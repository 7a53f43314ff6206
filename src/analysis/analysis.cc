#include "analysis/analysis.h"

namespace echo::analysis {

AnalysisReport
analyzeAll(const std::vector<graph::Val> &fetches,
           const std::vector<graph::Val> &weight_grads,
           const AnalyzeOptions &opts)
{
    AnalysisReport report = verifyFetches(fetches);
    // A structurally broken graph makes schedule construction panic, so
    // the schedule-level analyzers only run on verified graphs.
    if (!report.ok())
        return report;

    const memory::LivenessResult live =
        memory::analyzeLiveness(fetches, weight_grads);
    if (opts.with_plan) {
        const memory::MemoryPlan plan = memory::planMemory(live);
        report.merge(analyzeLifetimes(live, fetches, weight_grads, &plan));
    } else {
        report.merge(analyzeLifetimes(live, fetches, weight_grads));
    }
    if (opts.parallel_hazards)
        report.merge(detectParallelHazards(buildTopology(fetches)));
    return report;
}

} // namespace echo::analysis
