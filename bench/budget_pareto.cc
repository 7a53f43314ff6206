/**
 * @file
 * Memory-vs-overhead Pareto sweep of the budget-targeted planner
 * (src/budget): for the word-LM and NMT presets, walk byte budgets
 * across each model's feasible band [tightest achievable, baseline]
 * and plan every point.
 *
 * Emits results/budget_pareto.csv: one row per (preset, budget point)
 * with the planned pool peak and the applied replay time.  Exits
 * nonzero when a feasible plan overruns its budget or fails the
 * timeline replay.
 *
 * --quick trims the sweep to fewer points for CI.
 */
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "budget/planner.h"
#include "memory/liveness.h"
#include "memory/planner.h"
#include "models/nmt.h"
#include "models/word_lm.h"

using namespace echo;

namespace {

/** The echo-plan CLI presets: sized so the per-step feature maps (what
 *  recomputation reclaims) dominate the vocab-sized logits. */
models::WordLmConfig
wordLmPreset()
{
    models::WordLmConfig cfg;
    cfg.vocab = 2000;
    cfg.hidden = 192;
    cfg.layers = 2;
    cfg.batch = 16;
    cfg.seq_len = 35;
    return cfg;
}

models::NmtConfig
nmtPreset()
{
    models::NmtConfig cfg;
    cfg.src_vocab = 1500;
    cfg.tgt_vocab = 1200;
    cfg.hidden = 128;
    cfg.enc_layers = 1;
    cfg.batch = 16;
    cfg.src_len = 25;
    cfg.tgt_len = 25;
    return cfg;
}

struct Point
{
    std::string preset;
    int64_t budget_bytes = 0;
    double band_fraction = 0.0; // position inside [tightest, baseline]
    budget::BudgetPlan plan;
};

template <typename ModelT, typename ConfigT>
budget::BudgetPlan
planFresh(const ConfigT &cfg, int64_t budget_bytes)
{
    ModelT model(cfg);
    budget::BudgetConfig config;
    config.budget_bytes = budget_bytes;
    return budget::planWithBudget(model.graph(), model.fetches(),
                                  model.weightGrads(), config);
}

/** [tightest, baseline] learned from a sacrificial 1-byte-budget run
 *  (always infeasible; leaves its model untouched and unused). */
template <typename ModelT, typename ConfigT>
void
feasibleBand(const ConfigT &cfg, int64_t *tightest, int64_t *baseline)
{
    const budget::BudgetPlan probe =
        planFresh<ModelT>(cfg, int64_t{1});
    *tightest = probe.tightest_pool_peak;
    *baseline = probe.baseline_pool_peak;
}

template <typename ModelT, typename ConfigT>
void
sweep(const std::string &preset, const ConfigT &cfg,
      const std::vector<double> &band_fractions, std::vector<Point> *points)
{
    int64_t tightest = 0, baseline = 0;
    feasibleBand<ModelT>(cfg, &tightest, &baseline);
    bench::note(preset + ": baseline pool peak " +
                budget::formatBytes(baseline) +
                ", tightest achievable " +
                budget::formatBytes(tightest));
    for (const double f : band_fractions) {
        const int64_t budget_bytes =
            tightest + static_cast<int64_t>(std::llround(
                           f * static_cast<double>(baseline - tightest)));
        Point p;
        p.preset = preset;
        p.budget_bytes = budget_bytes;
        p.band_fraction = f;
        p.plan = planFresh<ModelT>(cfg, budget_bytes);
        points->push_back(std::move(p));
    }
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    for (int i = 1; i < argc; ++i)
        quick = quick || std::strcmp(argv[i], "--quick") == 0;

    bench::begin(
        "Budget-planner Pareto sweep",
        std::string("Byte budgets across each preset's feasible band; "
                    "replay time at matched memory peaks") +
            (quick ? " [--quick]" : ""));

    const std::vector<double> fractions =
        quick ? std::vector<double>{0.25, 0.75}
              : std::vector<double>{0.05, 0.25, 0.50, 0.75};

    std::vector<Point> points;
    sweep<models::WordLmModel>("word_lm", wordLmPreset(), fractions,
                               &points);
    sweep<models::NmtModel>("nmt", nmtPreset(), fractions, &points);

    Table table({"preset", "band pos", "budget", "feasible",
                 "planned peak", "replay us", "regions", "replay ok"});
    for (const Point &p : points) {
        table.addRow({p.preset, Table::fmt(p.band_fraction, 2),
                      budget::formatBytes(p.budget_bytes),
                      p.plan.feasible ? "yes" : "NO",
                      budget::formatBytes(p.plan.planned_pool_peak),
                      Table::fmt(p.plan.pass.replay_time_us, 1),
                      std::to_string(p.plan.pass.num_regions),
                      p.plan.replay_ok ? "yes" : "NO"});
    }
    bench::emit(table, "budget_pareto");

    // Every feasible plan must fit its budget and replay cleanly.
    int violations = 0;
    for (const Point &p : points)
        if (p.plan.feasible &&
            (!p.plan.replay_ok ||
             p.plan.planned_pool_peak > p.budget_bytes))
            ++violations;
    if (violations > 0)
        bench::note("ERROR: " + std::to_string(violations) +
                    " feasible plan(s) failed the pool-peak / timeline "
                    "cross-check");
    return violations > 0 ? 1 : 0;
}
