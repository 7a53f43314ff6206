#include "budget/planner.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "core/logging.h"
#include "memory/liveness.h"
#include "obs/counters.h"
#include "obs/trace.h"

namespace echo::budget {

namespace {

/** Snapshot of everything applyRecomputation may mutate: the node
 *  count (the rewrite only appends) and every backward node's inputs
 *  (the only pre-existing state it rewrites).  rollback() restores
 *  both; node ids are append positions, so a later re-apply of the
 *  same set reproduces the identical graph. */
class TrialRewrite
{
  public:
    explicit TrialRewrite(graph::Graph &g) : g_(&g)
    {
        node_count_ = g.numNodes();
        for (const auto &node_ptr : g.nodes()) {
            Node *n = node_ptr.get();
            if (n->phase == graph::Phase::kBackward)
                saved_inputs_.emplace_back(n, n->inputs);
        }
    }

    void
    rollback()
    {
        for (auto &[node, inputs] : saved_inputs_)
            node->inputs = inputs;
        g_->truncate(node_count_);
    }

  private:
    graph::Graph *g_;
    size_t node_count_ = 0;
    std::vector<std::pair<Node *, std::vector<Val>>> saved_inputs_;
};

int64_t
measurePoolPeak(const std::vector<Val> &fetches,
                const std::vector<Val> &weight_grads)
{
    const memory::LivenessResult live =
        memory::analyzeLiveness(fetches, weight_grads);
    return memory::planMemory(live).pool_peak_bytes;
}

/** The largest transients live at @p plan's peak position. */
std::vector<BindingBuffer>
bindingBuffersAtPeak(const memory::LivenessResult &live,
                     const memory::MemoryPlan &plan, size_t max_buffers)
{
    std::vector<BindingBuffer> binding;
    for (const memory::ValueInfo &vi : live.values) {
        if (vi.persistent)
            continue;
        if (vi.def_pos > plan.peak_pos || vi.last_use_pos < plan.peak_pos)
            continue;
        BindingBuffer b;
        b.val = vi.val;
        b.bytes = vi.bytes;
        b.def_pos = vi.def_pos;
        b.last_use_pos = vi.last_use_pos;
        b.name = vi.val.node->name;
        b.category = memory::dataStructureName(vi.category);
        binding.push_back(std::move(b));
    }
    std::sort(binding.begin(), binding.end(),
              [](const BindingBuffer &a, const BindingBuffer &b) {
                  if (a.bytes != b.bytes)
                      return a.bytes > b.bytes;
                  return a.val.node->id < b.val.node->id;
              });
    if (binding.size() > max_buffers)
        binding.resize(max_buffers);
    return binding;
}

/** Apply @p chosen, measure the real pool peak, and either keep the
 *  rewrite (returns true, fills res/peak) or roll it back. */
bool
trialApply(graph::Graph &g, const std::vector<Val> &fetches,
           const std::vector<Val> &weight_grads, const ItemSet &items,
           const std::vector<int> &chosen, const BudgetConfig &config,
           bool keep_if_fits, pass::PassResult *res, int64_t *peak)
{
    std::vector<const pass::Candidate *> accepted;
    accepted.reserve(chosen.size());
    for (int i : chosen)
        accepted.push_back(&items.candidates[static_cast<size_t>(i)]);

    TrialRewrite trial(g);
    pass::PassResult r;
    pass::applyRecomputation(g, accepted, items.feature_maps,
                             config.recompute, r);
    const int64_t measured = measurePoolPeak(fetches, weight_grads);
    *peak = measured;
    const bool fits = measured <= config.budget_bytes;
    if (fits && keep_if_fits) {
        *res = r;
        return true;
    }
    trial.rollback();
    return false;
}

} // namespace

BudgetPlan
planWithBudget(graph::Graph &g, const std::vector<Val> &fetches,
               const std::vector<Val> &weight_grads,
               const BudgetConfig &config)
{
    obs::Span span;
    if (obs::traceEnabled())
        span.begin("budget", "plan_with_budget",
                   {{"budget_bytes", config.budget_bytes}});
    obs::counter("budget.plans").add(1);

    BudgetPlan plan;
    plan.budget_bytes = config.budget_bytes;
    ECHO_CHECK(config.budget_bytes > 0,
               "planWithBudget needs a positive byte budget, got ",
               config.budget_bytes);

    // Record the final (possibly rewritten) plan + its timeline replay.
    const auto finalize = [&](graph::Graph &graph) {
        (void)graph;
        obs::MemoryTimeline timeline;
        memory::PlannerOptions popts;
        popts.timeline = &timeline;
        const memory::LivenessResult live =
            memory::analyzeLiveness(fetches, weight_grads);
        const memory::MemoryPlan mem = memory::planMemory(live, popts);
        plan.planned_pool_peak = mem.pool_peak_bytes;
        plan.replay = obs::replayTimeline(timeline);
        plan.replay_ok = plan.replay.ok() &&
                         plan.replay.address_peak_bytes ==
                             mem.pool_peak_bytes;
    };

    plan.baseline_pool_peak = measurePoolPeak(fetches, weight_grads);
    if (plan.baseline_pool_peak <= config.budget_bytes) {
        plan.feasible = true;
        plan.tightest_pool_peak = plan.baseline_pool_peak;
        plan.note = "baseline fits without rewriting";
        finalize(g);
        return plan;
    }

    const ItemSet items = enumerateItems(fetches, config.recompute);
    plan.num_items = static_cast<int>(items.candidates.size());

    // Probe: how tight can recomputation squeeze this graph at all?
    const pass::Selection probe = maxReductionSet(items);
    int64_t tightest = plan.baseline_pool_peak;
    if (!probe.chosen.empty()) {
        pass::PassResult probe_res;
        trialApply(g, fetches, weight_grads, items, probe.chosen, config,
                   /*keep_if_fits=*/false, &probe_res, &tightest);
    }
    plan.tightest_pool_peak = std::min(tightest, plan.baseline_pool_peak);

    if (plan.tightest_pool_peak > config.budget_bytes) {
        // Unreachable: report the tightest plan's binding buffers.
        // Re-apply the probe set just to analyze its peak, then undo.
        std::ostringstream note;
        note << "infeasible: tightest achievable pool peak "
             << formatBytes(plan.tightest_pool_peak) << " exceeds budget "
             << formatBytes(config.budget_bytes) << " by "
             << formatBytes(plan.tightest_pool_peak -
                            config.budget_bytes);
        plan.note = note.str();
        plan.selection = probe;
        {
            TrialRewrite trial(g);
            if (!probe.chosen.empty()) {
                std::vector<const pass::Candidate *> accepted;
                for (int i : probe.chosen)
                    accepted.push_back(
                        &items.candidates[static_cast<size_t>(i)]);
                pass::PassResult r;
                pass::applyRecomputation(g, accepted, items.feature_maps,
                                         config.recompute, r);
            }
            const memory::LivenessResult live =
                memory::analyzeLiveness(fetches, weight_grads);
            const memory::MemoryPlan mem = memory::planMemory(live);
            plan.binding = bindingBuffersAtPeak(live, mem, 8);
            trial.rollback();
        }
        finalize(g);
        obs::counter("budget.infeasible").add(1);
        return plan;
    }

    // Select until the required reduction is covered; the model and
    // the pool planner disagree by fragmentation/liveness slack, so
    // measure every proposal and raise the bar by the overshoot until
    // it fits.
    pass::SelectionLimit limit;
    limit.required_reduction = plan.baseline_pool_peak - config.budget_bytes;
    for (int round = 0; round < config.max_rounds; ++round) {
        plan.rounds = round + 1;
        plan.selection = pass::selectRegions(items.candidates,
                                          items.feature_maps, items.config,
                                          limit);
        int64_t measured = 0;
        if (trialApply(g, fetches, weight_grads, items,
                       plan.selection.chosen, config, /*keep_if_fits=*/true,
                       &plan.pass, &measured)) {
            plan.feasible = true;
            plan.applied = true;
            std::ostringstream note;
            note << "solved in " << plan.rounds << " round(s)";
            plan.note = note.str();
            finalize(g);
            if (obs::traceEnabled())
                obs::emitEvent('i', "budget", "plan.feasible",
                               {{"pool_peak", plan.planned_pool_peak},
                                {"budget", config.budget_bytes},
                                {"rounds", plan.rounds}});
            return plan;
        }
        const int64_t overshoot = measured - config.budget_bytes;
        // Raise by at least one alignment quantum so the loop always
        // makes progress even when the model refuses to budge.
        limit.required_reduction += std::max<int64_t>(overshoot, 256);
        if (obs::traceEnabled())
            obs::emitEvent('i', "budget", "plan.retry",
                           {{"measured", measured},
                            {"budget", config.budget_bytes},
                            {"required", limit.required_reduction}});
    }

    // The probed maximum-reduction set measured within budget; use it.
    pass::PassResult res;
    int64_t measured = 0;
    const bool ok =
        trialApply(g, fetches, weight_grads, items, probe.chosen, config,
                   /*keep_if_fits=*/true, &res, &measured);
    ECHO_CHECK(ok, "budget planner fallback set no longer fits: ",
               measured, " > ", config.budget_bytes,
               " (non-deterministic rewrite?)");
    plan.pass = res;
    plan.selection = probe;
    plan.feasible = true;
    plan.applied = true;
    ++plan.rounds;
    plan.note = "fell back to the maximum-reduction probe set";
    finalize(g);
    return plan;
}

bool
parseByteSize(const std::string &text, int64_t *bytes)
{
    if (text.empty() || bytes == nullptr)
        return false;
    size_t pos = 0;
    double value = 0.0;
    try {
        value = std::stod(text, &pos);
    } catch (...) {
        return false;
    }
    if (value < 0.0)
        return false;
    std::string unit = text.substr(pos);
    while (!unit.empty() && std::isspace(static_cast<unsigned char>(
                                unit.front())))
        unit.erase(unit.begin());
    for (char &c : unit)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    double scale = 1.0;
    if (unit.empty() || unit == "b")
        scale = 1.0;
    else if (unit == "k" || unit == "kb" || unit == "kib")
        scale = 1024.0;
    else if (unit == "m" || unit == "mb" || unit == "mib")
        scale = 1024.0 * 1024.0;
    else if (unit == "g" || unit == "gb" || unit == "gib")
        scale = 1024.0 * 1024.0 * 1024.0;
    else
        return false;
    *bytes = static_cast<int64_t>(std::llround(value * scale));
    return true;
}

std::string
formatBytes(int64_t bytes)
{
    const char *units[] = {"B", "KiB", "MiB", "GiB", "TiB"};
    double v = static_cast<double>(bytes);
    int u = 0;
    while (std::fabs(v) >= 1024.0 && u < 4) {
        v /= 1024.0;
        ++u;
    }
    char buf[32];
    if (u == 0)
        std::snprintf(buf, sizeof(buf), "%lld B",
                      static_cast<long long>(bytes));
    else
        std::snprintf(buf, sizeof(buf), "%.2f %s", v, units[u]);
    return buf;
}

} // namespace echo::budget
