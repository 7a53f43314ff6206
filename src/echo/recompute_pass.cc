#include "echo/recompute_pass.h"

#include <algorithm>
#include <functional>
#include <unordered_map>
#include <unordered_set>

#include "core/logging.h"
#include "echo/fused_region.h"
#include "echo/selection.h"
#include "gpusim/timeline.h"
#include "obs/counters.h"
#include "obs/trace.h"

namespace echo::pass {

std::vector<Candidate>
enumerateCandidates(const std::vector<FeatureMap> &fms,
                    const std::vector<Val> &fetches,
                    const PassConfig &config, PassResult *res)
{
    static obs::Counter &c_candidates = obs::counter("echo.candidates");
    static obs::Counter &c_admissible = obs::counter("echo.admissible");

    const std::unordered_set<Val, graph::ValHash> fetch_set(
        fetches.begin(), fetches.end());

    std::vector<Candidate> candidates;
    for (const FeatureMap &fm : fms) {
        if (fetch_set.count(fm.val))
            continue; // fetched values must survive
        if (config.policy == PassConfig::Policy::kManual &&
            fm.val.node->layer_tag != config.manual_tag)
            continue;
        if (res != nullptr)
            ++res->num_candidates;
        c_candidates.add(1);
        Candidate cand =
            buildCandidate(fm, config.respect_gemm_boundary);
        if (!cand.admissible) {
            if (obs::traceEnabled())
                obs::emitEvent('i', "echo", "candidate.inadmissible",
                               {{"target", fm.val.node->id},
                                {"name", fm.val.node->name},
                                {"bytes", fm.bytes}});
            continue;
        }
        if (res != nullptr)
            ++res->num_admissible;
        c_admissible.add(1);
        candidates.push_back(std::move(cand));
    }
    return candidates;
}

void
applyRecomputation(graph::Graph &g,
                   const std::vector<const Candidate *> &accepted,
                   const std::vector<FeatureMap> &fms,
                   const PassConfig &config, PassResult &res)
{
    static obs::Counter &c_accepted = obs::counter("echo.regions_accepted");
    static obs::Counter &c_nodes = obs::counter("echo.recompute_nodes");
    static obs::Counter &c_saved = obs::counter("echo.bytes_saved");
    static obs::Counter &c_added = obs::counter("echo.bytes_added");

    res.num_regions = static_cast<int>(accepted.size());
    if (accepted.empty())
        return;

    // Report totals recomputed at full charge over the final accepted
    // set, so PassResult matches what liveness will actually measure:
    // saved = feature maps recomputed and not pinned by any replay,
    // added = replay-read values that were not stashed before.
    const SetCost joint =
        evaluateAcceptedSet(accepted, fms, config.gpu, config.fuse_replay);
    res.bytes_saved = joint.bytes_saved;
    res.bytes_added = joint.bytes_added;

    // Union of accepted region nodes.
    std::unordered_set<Node *> region_nodes;
    for (const Candidate *cand : accepted)
        for (Node *n : cand->subgraph)
            region_nodes.insert(n);

    // Values produced in the union that backward nodes consume (the
    // exits the replay must materialize).  Collected before rewriting.
    std::unordered_set<Val, graph::ValHash> bwd_consumed;
    for (const auto &node_ptr : g.nodes()) {
        Node *n = node_ptr.get();
        if (n->phase != graph::Phase::kBackward)
            continue;
        for (const Val &v : n->inputs)
            if (region_nodes.count(v.node))
                bwd_consumed.insert(v);
    }

    // Mapping from original value to its replayed value.
    std::unordered_map<Val, Val, graph::ValHash> replayed;

    const graph::Phase saved_phase = g.phase();
    g.setPhase(graph::Phase::kRecompute);

    if (config.fuse_replay) {
        // Connected components of the region (by dataflow edges):
        // each becomes one generated fused kernel.
        std::unordered_map<Node *, Node *> parent;
        std::function<Node *(Node *)> find =
            [&](Node *n) -> Node * {
            Node *&p = parent[n];
            if (p == nullptr || p == n)
                return p = n;
            return p = find(p);
        };
        // Only nodes of the same time step fuse together: a shared
        // producer (e.g. the once-per-sentence key projection reshape,
        // time_step == -1) must not weld every step's region into one
        // giant kernel — that would materialize all steps' exits
        // simultaneously and destroy the cross-step workspace sharing
        // of paper §4.1.2.  Cross-component edges become frontier
        // values instead.
        for (Node *n : region_nodes)
            for (const Val &v : n->inputs)
                if (region_nodes.count(v.node) &&
                    v.node->time_step == n->time_step)
                    parent[find(n)] = find(v.node);

        std::unordered_map<Node *, std::vector<Node *>> components;
        for (Node *n : region_nodes)
            components[find(n)].push_back(n);

        // Deterministic component order (by smallest node id).
        std::vector<std::vector<Node *>> ordered;
        for (auto &[root, nodes] : components) {
            std::sort(nodes.begin(), nodes.end(),
                      [](Node *a, Node *b) { return a->id < b->id; });
            ordered.push_back(std::move(nodes));
        }
        std::sort(ordered.begin(), ordered.end(),
                  [](const auto &a, const auto &b) {
                      return a.front()->id < b.front()->id;
                  });

        for (std::vector<Node *> &nodes : ordered) {
            FusedRegionSpec spec;
            spec.nodes = nodes;
            std::unordered_set<Node *> members(nodes.begin(),
                                               nodes.end());
            std::unordered_set<Val, graph::ValHash> seen_frontier;
            for (Node *n : nodes) {
                for (const Val &v : n->inputs)
                    if (!members.count(v.node) &&
                        seen_frontier.insert(v).second)
                        spec.frontier.push_back(v);
                for (int i = 0; i < n->numOutputs(); ++i)
                    if (bwd_consumed.count(n->out(i)))
                        spec.exits.push_back(n->out(i));
            }
            if (spec.exits.empty())
                continue; // nothing to materialize

            Node *deepest = nodes.back();
            graph::TagScope tag(g, deepest->layer_tag);
            g.setTimeStep(deepest->time_step);
            const std::vector<Val> outs =
                g.apply(makeFusedRegionOp(spec), spec.frontier,
                        deepest->name + ".fused_recompute");
            for (size_t e = 0; e < spec.exits.size(); ++e)
                replayed[spec.exits[e]] =
                    outs[e];
            ++res.num_recompute_nodes;
        }
    } else {
        // Unfused ablation: clone each node, one kernel per op.
        std::unordered_map<Node *, Node *> clone_of;
        std::vector<Node *> order(region_nodes.begin(),
                                  region_nodes.end());
        std::sort(order.begin(), order.end(),
                  [](Node *a, Node *b) { return a->id < b->id; });
        for (Node *n : order) {
            std::vector<Val> mapped_inputs;
            mapped_inputs.reserve(n->inputs.size());
            for (const Val &v : n->inputs) {
                auto it = clone_of.find(v.node);
                mapped_inputs.push_back(
                    it == clone_of.end() ? v
                                         : Val{it->second, v.index});
            }
            graph::TagScope tag(g, n->layer_tag);
            g.setTimeStep(n->time_step);
            const std::vector<Val> outs = g.apply(
                n->op, std::move(mapped_inputs),
                n->name + ".recompute");
            clone_of[n] = outs[0].node;
            ++res.num_recompute_nodes;
            for (int i = 0; i < n->numOutputs(); ++i)
                replayed[n->out(i)] = outs[0].node->out(i);
        }
    }
    g.setTimeStep(-1);
    g.setPhase(saved_phase);

    // Redirect backward references into the replayed values.
    for (const auto &node_ptr : g.nodes()) {
        Node *n = node_ptr.get();
        if (n->phase != graph::Phase::kBackward)
            continue;
        for (Val &v : n->inputs) {
            auto it = replayed.find(v);
            if (it != replayed.end())
                v = it->second;
        }
    }

    // Report the replay time of what was actually emitted.
    res.replay_time_us = 0.0;
    for (const auto &node_ptr : g.nodes()) {
        Node *n = node_ptr.get();
        if (n->phase != graph::Phase::kRecompute ||
            n->kind != graph::NodeKind::kOp)
            continue;
        std::vector<Shape> in_shapes;
        for (const Val &v : n->inputs)
            in_shapes.push_back(graph::Graph::shapeOf(v));
        for (const graph::KernelDesc &d :
             n->op->kernels(in_shapes, n->out_shapes))
            res.replay_time_us +=
                gpusim::estimateKernel(d, config.gpu).time_us;
    }

    c_accepted.add(res.num_regions);
    c_nodes.add(res.num_recompute_nodes);
    c_saved.add(res.bytes_saved);
    c_added.add(res.bytes_added);
}

PassResult
runRecomputePass(graph::Graph &g, const std::vector<Val> &fetches,
                 const PassConfig &config)
{
    PassResult res;
    if (config.policy == PassConfig::Policy::kOff)
        return res;

    obs::Span pass_span;
    if (obs::traceEnabled())
        pass_span.begin("echo", "recompute_pass");

    const std::vector<FeatureMap> fms = findFeatureMaps(fetches);
    const gpusim::ProfileReport baseline =
        gpusim::simulateRun(fetches, config.gpu);
    res.baseline_gpu_time_us = baseline.gpu_kernel_time_us;
    SelectionLimit limit;
    if (config.overhead_budget_fraction >= 0.0)
        limit.max_replay_us =
            config.overhead_budget_fraction * baseline.gpu_kernel_time_us;
    const std::vector<Candidate> candidates =
        enumerateCandidates(fms, fetches, config, &res);
    const Selection sel = selectRegions(candidates, fms, config, limit);

    std::vector<const Candidate *> accepted;
    for (const int i : sel.chosen)
        accepted.push_back(&candidates[static_cast<size_t>(i)]);
    applyRecomputation(g, accepted, fms, config, res);
    return res;
}

} // namespace echo::pass
