/**
 * @file
 * The Echo recomputation pass — the compiler transformation at the heart
 * of "Echo: Compiler-based GPU Memory Footprint Reduction for LSTM RNN
 * Training" (ISCA 2020), generalizing the EcoRNN draft's manual
 * "partial forward propagation" (§4.1/§5.2) into an automatic
 * whole-graph rewrite:
 *
 *  1. find every feature map (forward value stashed for the backward
 *     pass),
 *  2. build the maximal GEMM-free recompute region per feature map,
 *  3. select regions best-savings-per-overhead first under the two cost
 *     models (never recomputing GEMMs, accounting for liveness
 *     interactions and shared frontiers) — selectRegions
 *     (echo/selection.h), the selector the budget planner runs too,
 *  4. rewrite the graph: clone each accepted region into recompute-phase
 *     nodes and redirect all backward references into the clones.
 *
 * The scheduler then anchors each clone just before its first backward
 * consumer, so the pool planner shares one workspace arena across all
 * time steps (paper §4.1.2: O(B·T·H) extra instead of O(B·T²·H)).
 *
 * Policies: kOff (baseline), kManual (regions whose layer tag matches
 * `manual_tag` only — EcoRNN's hand-annotated attention), kAuto (whole
 * graph — Echo).
 */
#ifndef ECHO_ECHO_RECOMPUTE_PASS_H
#define ECHO_ECHO_RECOMPUTE_PASS_H

#include <string>
#include <vector>

#include "echo/cost_model.h"

namespace echo::pass {

/** Pass configuration. */
struct PassConfig
{
    enum class Policy { kOff, kManual, kAuto };

    Policy policy = Policy::kAuto;
    /** Layer tag the kManual policy restricts itself to. */
    std::string manual_tag = "attention";
    /** Maximum added replay time, as a fraction of the baseline
     *  iteration's GPU time (the paper measures ~1.5 % for the
     *  attention regions; the default budget is 2 %).  Negative means
     *  unlimited — the EcoRNN-paper behaviour of recomputing every
     *  admissible attention region regardless of replay time. */
    double overhead_budget_fraction = 0.02;
    /** Ablation: when false, GEMMs may be recomputed (Chen et al.). */
    bool respect_gemm_boundary = true;
    /** Emit each replay region as one generated fused kernel (reads
     *  the frontier, writes the exits, interior stays in registers) —
     *  what the TVM-based Echo compiler does.  false replays with one
     *  kernel per op (ablation). */
    bool fuse_replay = true;
    /** GPU the runtime cost model targets. */
    gpusim::GpuSpec gpu = gpusim::GpuSpec::titanXp();
};

/** What the pass did. */
struct PassResult
{
    /** Number of accepted recomputation regions. */
    int num_regions = 0;
    /** Recompute-phase nodes added. */
    int num_recompute_nodes = 0;
    /** Modelled stash bytes eliminated / newly added. */
    int64_t bytes_saved = 0;
    int64_t bytes_added = 0;
    /** Modelled replay time added per iteration, microseconds,
     *  measured on the rewritten graph (fused kernels when
     *  fuse_replay). */
    double replay_time_us = 0.0;
    /** Baseline iteration GPU time the budget was computed from. */
    double baseline_gpu_time_us = 0.0;
    /** Candidates examined / admissible (for reporting). */
    int num_candidates = 0;
    int num_admissible = 0;
};

/**
 * Run the pass on @p graph, rewriting backward references in place.
 * @p fetches must be the training iteration's outputs (loss and weight
 * gradients); fetched values themselves are never dropped.
 */
PassResult runRecomputePass(graph::Graph &graph,
                            const std::vector<Val> &fetches,
                            const PassConfig &config = {});

/**
 * Enumerate the admissible recomputation candidates of @p fms under
 * @p config (fetched targets skipped, kManual restricted to its layer
 * tag).  When @p res is given, num_candidates / num_admissible are
 * filled in.  The shared front half of runRecomputePass and the budget
 * planner (src/budget); both then choose among the candidates with
 * selectRegions (echo/selection.h).
 */
std::vector<Candidate>
enumerateCandidates(const std::vector<FeatureMap> &fms,
                    const std::vector<Val> &fetches,
                    const PassConfig &config,
                    PassResult *res = nullptr);

/**
 * Rewrite @p graph for the accepted candidate set: emit the replay
 * nodes (one generated fused kernel per time-step component under
 * fuse_replay, per-op clones otherwise), redirect backward references
 * into them, and fill @p res's rewrite fields (num_regions,
 * num_recompute_nodes, bytes_saved / bytes_added at full charge over
 * the set, and replay_time_us measured on the emitted kernels).
 *
 * The rewrite only appends nodes and only mutates backward-phase
 * inputs, so a trial application can be rolled back by restoring the
 * backward inputs and Graph::truncate()-ing to the prior node count —
 * which is how the budget planner validates a plan against the real
 * memory planner before committing to it.
 */
void applyRecomputation(graph::Graph &graph,
                        const std::vector<const Candidate *> &accepted,
                        const std::vector<FeatureMap> &fms,
                        const PassConfig &config, PassResult &res);

} // namespace echo::pass

#endif // ECHO_ECHO_RECOMPUTE_PASS_H
