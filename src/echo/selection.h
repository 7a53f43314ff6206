/**
 * @file
 * The one recompute-region selector.  Both recompute planners run it:
 * the Echo pass with a replay-*time* limit (2 % of the baseline
 * iteration by default), the budget planner (src/budget) with a
 * *byte* target (the reduction its pool budget needs).  One loop
 * serves both:
 *
 *  1. rank every admissible candidate by amortized net savings per
 *     microsecond of replay (shared stash values split across their
 *     sharers — see SelectionState::frontier_multiplicity);
 *  2. walk the ranking, re-evaluating each candidate against what was
 *     accepted so far, skipping it when its net savings are <= 0 or
 *     when its replay would overrun the time limit, and stopping once
 *     the joint full-charge net savings reach the byte target;
 *  3. prune, to a fixpoint, every accepted member whose full-charge
 *     marginal net savings against the other members is <= 0 (an
 *     amortization subsidy nobody pays).  Dropping such a member never
 *     lowers the joint net savings, so a reached target stays reached.
 *
 * JointCost is the incremental evaluator of the joint full-charge
 * objective (pass::evaluateAcceptedSet) the stop test reads; the budget
 * planner's maximum-reduction probe builds on it too.
 */
#ifndef ECHO_ECHO_SELECTION_H
#define ECHO_ECHO_SELECTION_H

#include <limits>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "echo/recompute_pass.h"

namespace echo::pass {

/** What choosing one candidate sets in the joint objective. */
struct RegionEffect
{
    std::vector<Val> stash;   ///< values accepting it keeps stashed
    std::vector<Val> recomp;  ///< subgraph outputs it recomputes
    std::vector<Node *> nodes;
    std::vector<double> node_replay_us; ///< per nodes[] entry
};

RegionEffect regionEffect(const Candidate &cand, const PassConfig &config);

/**
 * Incremental evaluator of the joint full-charge objective.  Mirrors
 * evaluateAcceptedSet element by element — the objective decomposes as
 * a sum over values (saved iff recomputed by some member and stashed by
 * none; charged iff stashed and not a feature map) and over replayed
 * nodes (each node's kernels once) — so a marginal can be previewed in
 * O(|effect|) instead of re-evaluating the whole set.
 */
class JointCost
{
  public:
    explicit JointCost(const std::vector<FeatureMap> &fms);

    const SetCost &cost() const { return cost_; }
    /** Indices passed to add(), in call order. */
    const std::vector<int> &chosen() const { return chosen_; }

    /** Cost after also choosing @p e, without mutating. */
    SetCost preview(const RegionEffect &e) const;

    void add(int i, const RegionEffect &e);

  private:
    using FmBytes = std::unordered_map<Val, int64_t, graph::ValHash>;

    int64_t contribution(const Val &v, bool stashed,
                         bool recomputed) const;
    void applyEffect(const RegionEffect &e, SetCost &c,
                     std::unordered_set<Val, graph::ValHash> *stashed,
                     std::unordered_set<Val, graph::ValHash> *recomputed,
                     std::unordered_set<const Node *> *replayed) const;

    /** Shared and immutable: family trials copy a JointCost per
     *  family, and duplicating the map would dominate the copy. */
    std::shared_ptr<const FmBytes> fm_bytes_;
    std::unordered_set<Val, graph::ValHash> stashed_;
    std::unordered_set<Val, graph::ValHash> recomputed_;
    std::unordered_set<const Node *> replayed_;
    std::vector<int> chosen_;
    SetCost cost_;
    /** Scratch for applyEffect (bit state mid-application). */
    mutable std::unordered_map<Val, std::pair<bool, bool>,
                               graph::ValHash>
        pending_;
    mutable std::unordered_set<const Node *> preview_nodes_;
};

/** The constraint a selection runs under. */
struct SelectionLimit
{
    /** Summed per-candidate replay time may not exceed this. */
    double max_replay_us = std::numeric_limits<double>::infinity();
    /** Stop accepting once joint net savings reach this many bytes. */
    int64_t required_reduction = std::numeric_limits<int64_t>::max();
};

/** What selectRegions chose. */
struct Selection
{
    /** Chosen candidate indices, ascending. */
    std::vector<int> chosen;
    /** Joint full-charge cost of the chosen set. */
    SetCost cost;
};

/**
 * Select recompute regions among @p candidates (all admissible, priced
 * against @p fms under @p config) within @p limit; see the file
 * comment.  Emits one region.accept / region.reject trace event per
 * ranked candidate it reaches and region.pruned per pruned member.
 */
Selection selectRegions(const std::vector<Candidate> &candidates,
                        const std::vector<FeatureMap> &fms,
                        const PassConfig &config,
                        const SelectionLimit &limit);

} // namespace echo::pass

#endif // ECHO_ECHO_SELECTION_H
