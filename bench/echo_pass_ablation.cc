/**
 * @file
 * Echo-pass ablations (the ISCA-2020 design-choice studies beyond the
 * EcoRNN draft's figures):
 *
 *  1. Policy: Off / Manual (attention-annotated, EcoRNN) / Auto
 *     (whole-graph, Echo) — the automatic pass must find at least the
 *     manual savings.
 *  2. Overhead budget sweep: the cost-model-guided selection trades
 *     replay time for footprint.
 *  3. GEMM-boundary ablation: letting the pass recompute GEMMs (the
 *     Chen-et-al sublinear-checkpointing behaviour) explodes the
 *     replay time for little extra memory — the reason Echo never
 *     recomputes compute-heavy ops.
 *  4. Workspace sharing: disabling pool reuse turns the shared
 *     O(B·T·H) recompute arena into O(B·T²·H) (paper §4.1.2).
 */
#include "bench_common.h"
#include "budget/planner.h"
#include "echo/recompute_pass.h"
#include "gpusim/timeline.h"
#include "memory/liveness.h"
#include "memory/planner.h"
#include "models/nmt.h"
#include "train/simulation.h"

using namespace echo;
using pass::PassConfig;

namespace {

models::NmtConfig
benchConfig()
{
    models::NmtConfig cfg;
    cfg.batch = 128;
    cfg.src_len = 100;
    cfg.tgt_len = 100;
    return cfg;
}

struct Row
{
    pass::PassResult pass;
    train::IterationProfile prof;
};

Row
run(const PassConfig &pc, bool apply_pass)
{
    models::NmtModel model(benchConfig());
    Row row;
    if (apply_pass)
        row.pass = pass::runRecomputePass(model.graph(),
                                          model.fetches(), pc);
    row.prof = train::profileIteration(model.fetches(),
                                       model.weightGrads());
    return row;
}

} // namespace

int
main()
{
    bench::begin("Echo pass ablations (NMT, B=128, T=100, H=512)",
                 "Policies, budgets, the GEMM boundary, and workspace "
                 "sharing.");

    // --- 1. Policies -----------------------------------------------
    {
        Table table({"policy", "regions", "memory (device)",
                     "replay (% of kernels)"});
        const Row off = run({}, false);
        table.addRow({"Off (baseline)", "0",
                      Table::fmtBytes(static_cast<uint64_t>(
                          off.prof.memory.device_bytes)),
                      "0%"});
        PassConfig manual;
        manual.policy = PassConfig::Policy::kManual;
        manual.overhead_budget_fraction = -1.0;
        const Row m = run(manual, true);
        table.addRow({"Manual (attention tag, EcoRNN)",
                      std::to_string(m.pass.num_regions),
                      Table::fmtBytes(static_cast<uint64_t>(
                          m.prof.memory.device_bytes)),
                      Table::fmtPercent(m.pass.replay_time_us /
                                        m.pass.baseline_gpu_time_us)});
        PassConfig automatic;
        automatic.policy = PassConfig::Policy::kAuto;
        automatic.overhead_budget_fraction = -1.0;
        const Row a = run(automatic, true);
        table.addRow({"Auto (whole graph, Echo)",
                      std::to_string(a.pass.num_regions),
                      Table::fmtBytes(static_cast<uint64_t>(
                          a.prof.memory.device_bytes)),
                      Table::fmtPercent(a.pass.replay_time_us /
                                        a.pass.baseline_gpu_time_us)});
        bench::emit(table, "ablation_policy");
        bench::note("Auto must match or beat Manual's savings without "
                    "annotations — the Echo paper's headline over the "
                    "EcoRNN draft.");
    }

    // --- 2. Budget sweeps -----------------------------------------
    // Two budget axes over one table: the Echo pass's replay-*time*
    // fraction, and the budget planner's transient-pool *byte*
    // fraction ("fit in X bytes", the same selector under a byte
    // target).
    {
        Table table({"budget fraction", "of", "regions",
                     "memory (device)", "replay used"});
        for (const double budget : {0.01, 0.02, 0.05, 0.10, -1.0}) {
            PassConfig pc;
            pc.policy = PassConfig::Policy::kAuto;
            pc.overhead_budget_fraction = budget;
            const Row r = run(pc, true);
            table.addRow(
                {budget < 0 ? "unlimited"
                            : Table::fmtPercent(budget, 0),
                 "kernel time", std::to_string(r.pass.num_regions),
                 Table::fmtBytes(static_cast<uint64_t>(
                     r.prof.memory.device_bytes)),
                 Table::fmtPercent(r.pass.replay_time_us /
                                   r.pass.baseline_gpu_time_us)});
        }
        for (const double fraction : {0.75, 0.50}) {
            models::NmtModel model(benchConfig());
            const double baseline_kernel_us =
                gpusim::simulateRun(model.fetches(),
                                    gpusim::GpuSpec::titanXp())
                    .gpu_kernel_time_us;
            const auto live = memory::analyzeLiveness(
                model.fetches(), model.weightGrads());
            const int64_t baseline_pool =
                memory::planMemory(live).pool_peak_bytes;
            budget::BudgetConfig bc;
            bc.budget_bytes = static_cast<int64_t>(
                fraction * static_cast<double>(baseline_pool));
            const budget::BudgetPlan plan = budget::planWithBudget(
                model.graph(), model.fetches(), model.weightGrads(),
                bc);
            const train::IterationProfile prof =
                train::profileIteration(model.fetches(),
                                        model.weightGrads());
            table.addRow(
                {Table::fmtPercent(fraction, 0), "pool bytes",
                 std::to_string(plan.pass.num_regions),
                 Table::fmtBytes(static_cast<uint64_t>(
                     prof.memory.device_bytes)),
                 Table::fmtPercent(plan.pass.replay_time_us /
                                   baseline_kernel_us)});
        }
        bench::emit(table, "ablation_budget");
        bench::note("the cost model spends its budget on the highest "
                    "savings-per-microsecond regions first; the byte "
                    "rows pose the inverse problem (fixed pool budget) "
                    "to the same selector.");
    }

    // --- 3. GEMM boundary ------------------------------------------
    {
        Table table({"recompute GEMMs?", "regions", "memory (device)",
                     "replay (% of kernels)"});
        for (const bool respect : {true, false}) {
            PassConfig pc;
            pc.policy = PassConfig::Policy::kAuto;
            pc.overhead_budget_fraction = -1.0;
            pc.respect_gemm_boundary = respect;
            const Row r = run(pc, true);
            table.addRow(
                {respect ? "no (Echo rule)" : "yes (Chen et al.)",
                 std::to_string(r.pass.num_regions),
                 Table::fmtBytes(static_cast<uint64_t>(
                     r.prof.memory.device_bytes)),
                 Table::fmtPercent(r.pass.replay_time_us /
                                   r.pass.baseline_gpu_time_us)});
        }
        bench::emit(table, "ablation_gemm_boundary");
        bench::note("recomputing GEMMs multiplies the replay time for "
                    "marginal extra savings — Echo's central rule.");
    }

    // --- 4. Workspace sharing --------------------------------------
    {
        models::NmtModel model(benchConfig());
        PassConfig pc;
        pc.policy = PassConfig::Policy::kManual;
        pc.overhead_budget_fraction = -1.0;
        pass::runRecomputePass(model.graph(), model.fetches(), pc);

        const auto live = memory::analyzeLiveness(
            model.fetches(), model.weightGrads());
        memory::PlannerOptions shared;
        memory::PlannerOptions exclusive;
        exclusive.reuse_transients = false;
        const auto plan_shared = memory::planMemory(live, shared);
        const auto plan_exclusive =
            memory::planMemory(live, exclusive);

        Table table({"workspace policy", "transient pool peak"});
        table.addRow({"shared across steps (pool reuse)",
                      Table::fmtBytes(static_cast<uint64_t>(
                          plan_shared.pool_peak_bytes))});
        table.addRow({"exclusive per step (no reuse)",
                      Table::fmtBytes(static_cast<uint64_t>(
                          plan_exclusive.pool_peak_bytes))});
        table.addRow(
            {"blow-up factor",
             Table::fmt(
                 static_cast<double>(plan_exclusive.pool_peak_bytes) /
                     plan_shared.pool_peak_bytes,
                 1) +
                 "x"});
        bench::emit(table, "ablation_workspace");
        bench::note("paper §4.1.2: sharing one workspace arena across "
                    "all time steps keeps the extra memory at "
                    "O(B*T*H) instead of O(B*T^2*H).");
    }
    return 0;
}
