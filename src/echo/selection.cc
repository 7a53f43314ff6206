#include "echo/selection.h"

#include <algorithm>

#include "obs/trace.h"

namespace echo::pass {

RegionEffect
regionEffect(const Candidate &cand, const PassConfig &config)
{
    RegionEffect e;
    std::unordered_set<Val, graph::ValHash> seen;
    for (const Val &v : cand.frontier)
        if (v.node->kind == graph::NodeKind::kOp && seen.insert(v).second)
            e.stash.push_back(v);
    if (config.fuse_replay)
        for (const Val &v : cand.pinned_interior)
            if (seen.insert(v).second)
                e.stash.push_back(v);
    for (Node *n : cand.subgraph) {
        for (int o = 0; o < n->numOutputs(); ++o)
            e.recomp.push_back(n->out(o));
        e.nodes.push_back(n);
        std::vector<Shape> in_shapes;
        for (const Val &v : n->inputs)
            in_shapes.push_back(graph::Graph::shapeOf(v));
        double us = 0.0;
        for (const graph::KernelDesc &d :
             n->op->kernels(in_shapes, n->out_shapes))
            us += gpusim::estimateKernel(d, config.gpu).time_us;
        e.node_replay_us.push_back(us);
    }
    return e;
}

JointCost::JointCost(const std::vector<FeatureMap> &fms)
{
    auto fm_bytes = std::make_shared<FmBytes>();
    for (const FeatureMap &fm : fms)
        (*fm_bytes)[fm.val] = fm.bytes;
    fm_bytes_ = std::move(fm_bytes);
}

SetCost
JointCost::preview(const RegionEffect &e) const
{
    SetCost c = cost_;
    applyEffect(e, c, nullptr, nullptr, nullptr);
    return c;
}

void
JointCost::add(int i, const RegionEffect &e)
{
    applyEffect(e, cost_, &stashed_, &recomputed_, &replayed_);
    chosen_.push_back(i);
}

int64_t
JointCost::contribution(const Val &v, bool stashed, bool recomputed) const
{
    auto fm = fm_bytes_->find(v);
    if (fm != fm_bytes_->end())
        return (recomputed && !stashed) ? fm->second : 0;
    return stashed ? -graph::Graph::shapeOf(v).bytes() : 0;
}

void
JointCost::applyEffect(const RegionEffect &e, SetCost &c,
                       std::unordered_set<Val, graph::ValHash> *stashed,
                       std::unordered_set<Val, graph::ValHash> *recomputed,
                       std::unordered_set<const Node *> *replayed) const
{
    // Per touched value: subtract the old contribution, flip the bits,
    // add the new one.  Splitting net into saved/added keeps the
    // reported components exact, not just their difference.  Within
    // one effect application both of a value's bits may flip (stashed
    // by the frontier, recomputed by the subgraph); pending_ overlays
    // the committed sets so the update stays idempotent and order-free.
    auto flip = [&](const Val &v, bool set_stash, bool set_recomp) {
        const bool was_stashed = stashed_.count(v) != 0;
        const bool was_recomp = recomputed_.count(v) != 0;
        auto it = pending_.find(v);
        const bool pend_stashed =
            it != pending_.end() ? it->second.first : was_stashed;
        const bool pend_recomp =
            it != pending_.end() ? it->second.second : was_recomp;
        const bool new_stashed = pend_stashed || set_stash;
        const bool new_recomp = pend_recomp || set_recomp;
        if (new_stashed == pend_stashed && new_recomp == pend_recomp)
            return;
        const int64_t delta = contribution(v, new_stashed, new_recomp) -
                              contribution(v, pend_stashed, pend_recomp);
        if (fm_bytes_->count(v))
            c.bytes_saved += delta;
        else
            c.bytes_added -= delta; // contribution is -bytes_added
        pending_[v] = {new_stashed, new_recomp};
    };
    pending_.clear();
    for (const Val &v : e.stash)
        flip(v, true, false);
    for (const Val &v : e.recomp)
        flip(v, false, true);
    if (stashed != nullptr)
        stashed->insert(e.stash.begin(), e.stash.end());
    if (recomputed != nullptr)
        recomputed->insert(e.recomp.begin(), e.recomp.end());
    for (size_t n = 0; n < e.nodes.size(); ++n) {
        if (replayed_.count(e.nodes[n]))
            continue;
        // Commit into replayed; a preview charges once per distinct
        // new node through its scratch set.
        auto &seen = replayed != nullptr ? *replayed : preview_nodes_;
        if (seen.insert(e.nodes[n]).second)
            c.replay_time_us += e.node_replay_us[n];
    }
    preview_nodes_.clear();
    pending_.clear();
}

Selection
selectRegions(const std::vector<Candidate> &candidates,
              const std::vector<FeatureMap> &fms, const PassConfig &config,
              const SelectionLimit &limit)
{
    // Amortized ranking: every chargeable value (frontier and, under
    // per-step fusion, cross-step pinned interior) splits its stash
    // cost across all candidates sharing it, so a family of regions
    // sharing a large frontier can get in together.
    SelectionState state;
    for (const Candidate &cand : candidates) {
        for (const Val &v : cand.frontier)
            ++state.frontier_multiplicity[v];
        if (config.fuse_replay)
            for (const Val &v : cand.pinned_interior)
                ++state.frontier_multiplicity[v];
    }
    const auto evaluate = [&](const Candidate &cand,
                              const SelectionState &s) {
        return evaluateCandidate(cand, fms, s, config.gpu,
                                 config.fuse_replay);
    };

    // Best savings-per-overhead first; replay below the kernel
    // overhead floor is effectively free.
    struct Ranked
    {
        int index;
        double ratio;
    };
    std::vector<Ranked> ranked;
    for (size_t i = 0; i < candidates.size(); ++i) {
        const CandidateCost cost = evaluate(candidates[i], state);
        if (cost.netSavings() > 0)
            ranked.push_back({static_cast<int>(i),
                              static_cast<double>(cost.netSavings()) /
                                  std::max(0.5, cost.replay_time_us)});
    }
    const auto target_id = [&](int i) {
        return candidates[static_cast<size_t>(i)].target.val.node->id;
    };
    std::sort(ranked.begin(), ranked.end(),
              [&](const Ranked &a, const Ranked &b) {
                  if (a.ratio != b.ratio)
                      return a.ratio > b.ratio;
                  return target_id(a.index) < target_id(b.index);
              });

    // Provisional acceptance, re-evaluated against the evolving state.
    // Charges stay amortized here; the prune below settles them.
    JointCost joint(fms);
    double replay_used_us = 0.0;
    std::vector<int> accepted;
    std::vector<RegionEffect> effects;
    for (const Ranked &r : ranked) {
        if (joint.cost().netSavings() >= limit.required_reduction)
            break;
        const Candidate &cand = candidates[static_cast<size_t>(r.index)];
        const CandidateCost cost = evaluate(cand, state);
        const bool net_positive = cost.netSavings() > 0;
        const bool in_limit =
            replay_used_us + cost.replay_time_us <= limit.max_replay_us;
        // One decision event per candidate region: the modelled savings
        // and replay cost the selection acted on (paper Fig. 5/6 are
        // assembled from exactly these numbers).
        if (obs::traceEnabled())
            obs::emitEvent(
                'i', "echo",
                net_positive && in_limit ? "region.accept"
                                         : "region.reject",
                {{"target", target_id(r.index)},
                 {"name", cand.target.val.node->name},
                 {"bytes_saved", cost.netSavings()},
                 {"replay_us", cost.replay_time_us},
                 {"reason", !net_positive ? "net_negative"
                            : in_limit    ? "accepted"
                                          : "over_budget"}});
        if (!net_positive || !in_limit)
            continue;
        replay_used_us += cost.replay_time_us;
        noteAccepted(state, cand, config.fuse_replay);
        effects.push_back(regionEffect(cand, config));
        joint.add(r.index, effects.back());
        accepted.push_back(r.index);
    }

    // Amortization divides a shared value's cost among every admissible
    // sharer, including ones that end up rejected — which can let a
    // net-negative candidate in on a subsidy nobody pays.  Re-check
    // each accepted candidate at full charge (empty multiplicity map)
    // against the *other* accepted members: a genuine family member's
    // shared values are stashed by its siblings and cost it nothing,
    // while a phantom-subsidized region goes net-negative and is
    // dropped.  Iterate to a fixpoint since a drop can orphan another.
    for (bool changed = true; changed;) {
        changed = false;
        for (size_t i = 0; i < accepted.size(); ++i) {
            SelectionState others;
            for (size_t j = 0; j < accepted.size(); ++j)
                if (j != i)
                    noteAccepted(others,
                                 candidates[static_cast<size_t>(
                                     accepted[j])],
                                 config.fuse_replay);
            const CandidateCost marginal = evaluate(
                candidates[static_cast<size_t>(accepted[i])], others);
            if (marginal.netSavings() > 0)
                continue;
            if (obs::traceEnabled())
                obs::emitEvent('i', "echo", "region.pruned",
                               {{"target", target_id(accepted[i])},
                                {"net_savings", marginal.netSavings()}});
            accepted.erase(accepted.begin() + static_cast<ptrdiff_t>(i));
            effects.erase(effects.begin() + static_cast<ptrdiff_t>(i));
            changed = true;
            break;
        }
    }

    JointCost kept(fms);
    for (size_t k = 0; k < accepted.size(); ++k)
        kept.add(accepted[k], effects[k]);
    Selection sel;
    sel.cost = kept.cost();
    sel.chosen = std::move(accepted);
    std::sort(sel.chosen.begin(), sel.chosen.end());
    return sel;
}

} // namespace echo::pass
