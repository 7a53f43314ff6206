/**
 * @file
 * Budget-planner candidates: the Echo pass's recomputation candidates,
 * packaged with the feature maps and configuration they are priced
 * under, plus the maximum-reduction probe.
 *
 * The enumerator reuses echo::pass end to end — the same feature maps,
 * the same maximal GEMM-free regions (fused elementwise groups arrive
 * as single cheap nodes, making them near-free candidates), the same
 * footprint and runtime cost models — and the planner selects among
 * them with the Echo pass's own selector (pass::selectRegions) under a
 * byte target instead of a time limit.
 */
#ifndef ECHO_BUDGET_ITEMS_H
#define ECHO_BUDGET_ITEMS_H

#include <vector>

#include "echo/selection.h"

namespace echo::budget {

using graph::Node;
using graph::Val;

/** Every admissible candidate of a graph, ready for selection. */
struct ItemSet
{
    std::vector<pass::Candidate> candidates;
    std::vector<pass::FeatureMap> feature_maps;
    /** Pricing/rewrite configuration the candidates were built under. */
    pass::PassConfig config;
};

/**
 * Enumerate the admissible candidates reachable from @p fetches,
 * ordered by ascending target time step (values outside the
 * recurrence first), then target node id.  maxReductionSet() breaks
 * its ties in this order.
 */
ItemSet enumerateItems(const std::vector<Val> &fetches,
                       const pass::PassConfig &config);

/**
 * The modelled maximum-reduction selection: a marginal-gain greedy
 * that accepts, while joint full-charge net savings still grow, the
 * single candidate — or the whole remainder of a shared-stash family,
 * priced jointly — with the largest gain.  Families are how attention
 * regions pay off: each member is solo-net-negative because of the
 * shared keys-projection stash, but the family together stashes it
 * once and saves every step's interior.  The planner probes this set
 * against the real memory planner to learn the tightest achievable
 * pool peak.
 */
pass::Selection maxReductionSet(const ItemSet &set);

} // namespace echo::budget

#endif // ECHO_BUDGET_ITEMS_H
