/**
 * @file
 * The Echo pass's two cost models (the ISCA paper's core machinery):
 *
 *  1. Footprint model — how many stashed bytes a candidate actually
 *     saves.  Naive per-tensor accounting is wrong in ways the model
 *     handles: savings already claimed by an overlapping accepted
 *     candidate are not double-counted, and the candidate's
 *     frontier must itself be stashed, unless it already is (weights,
 *     placeholders, values other accepted candidates stash, or feature
 *     maps other backward consumers keep anyway).
 *
 *  2. Runtime model — the GPU time of replaying the candidate's
 *     subgraph, summed over the analytical kernel model.  The pass
 *     accepts candidates best-ratio-first until a budget (default 2 % of
 *     the baseline iteration) is exhausted; the paper measures the
 *     chosen attention regions at ~1.5 % with a 0.7 % theoretical lower
 *     bound.
 */
#ifndef ECHO_ECHO_COST_MODEL_H
#define ECHO_ECHO_COST_MODEL_H

#include <unordered_map>
#include <unordered_set>

#include "echo/candidate.h"
#include "gpusim/kernel_cost.h"

namespace echo::pass {

/** Evaluation of one candidate against the current acceptance state. */
struct CandidateCost
{
    /** Stash bytes freed (lifetime no longer spans the backward pass). */
    int64_t bytes_saved = 0;
    /** Frontier bytes that become newly stashed. */
    int64_t bytes_added = 0;
    /** GPU time to replay the subgraph once, microseconds. */
    double replay_time_us = 0.0;

    int64_t netSavings() const { return bytes_saved - bytes_added; }
};

/** Mutable selection state shared across candidate evaluations. */
struct SelectionState
{
    /** Values already stashed by accepted candidates' frontiers. */
    std::unordered_set<Val, graph::ValHash> stashed;
    /** Feature-map values already scheduled for recomputation. */
    std::unordered_set<Val, graph::ValHash> recomputed;
    /**
     * How many candidates share each chargeable value (frontier or
     * pinned interior).  A frontier tensor shared by N regions (e.g.\
     * the projected encoder keys feeding all T attention steps) costs
     * each region only 1/N of its stash bytes: without this joint
     * amortization, none of the N candidates breaks even individually
     * and the pass would miss the whole family.  Amortized costs are
     * for *ranking and provisional acceptance* only — the greedy loop
     * prunes provisionally accepted candidates that are net-negative
     * against the other accepted members at full charge, and reports
     * totals recomputed at full charge over the final accepted set.
     */
    std::unordered_map<Val, int, graph::ValHash> frontier_multiplicity;
};

/**
 * Evaluate @p cand given what has been accepted so far.
 *
 * @param all_feature_maps every feature map of the graph, used to tell
 *        whether a frontier value is stashed anyway.
 * @param per_step_fusion when true (fuse_replay), cross-step interior
 *        values stay stashed and are charged like frontier values; the
 *        unfused ablation chains clones instead, so they really die.
 */
CandidateCost
evaluateCandidate(const Candidate &cand,
                  const std::vector<FeatureMap> &all_feature_maps,
                  const SelectionState &state,
                  const gpusim::GpuSpec &gpu,
                  bool per_step_fusion = true);

/** Record what accepting @p cand contributes to @p state: its frontier
 *  (and, under per-step fusion, its cross-step pinned interior) becomes
 *  stashed, its subgraph outputs become recomputed. */
void noteAccepted(SelectionState &state, const Candidate &cand,
                  bool per_step_fusion);

/** Full-charge joint cost of an accepted set (order-independent). */
struct SetCost
{
    /** Stash bytes freed by the whole set jointly. */
    int64_t bytes_saved = 0;
    /** Replay-read bytes newly stashed, each charged exactly once. */
    int64_t bytes_added = 0;
    /** Modelled time to replay the union of the set's subgraphs once
     *  (shared nodes charged once), microseconds. */
    double replay_time_us = 0.0;

    int64_t netSavings() const { return bytes_saved - bytes_added; }
};

/**
 * Jointly evaluate @p accepted at full charge — the objective the
 * budget planner targets (JointCost in echo/selection.h tracks it
 * incrementally).  Decomposes per element: a feature
 * map is saved iff recomputed by some member and stashed by none, a
 * stash charge is paid once per distinct value, a subgraph node's
 * kernels are priced once no matter how many members replay it.  This
 * mirrors the totals runRecomputePass reports for its final set.
 */
SetCost
evaluateAcceptedSet(const std::vector<const Candidate *> &accepted,
                    const std::vector<FeatureMap> &all_feature_maps,
                    const gpusim::GpuSpec &gpu,
                    bool per_step_fusion = true);

} // namespace echo::pass

#endif // ECHO_ECHO_COST_MODEL_H
