/**
 * @file
 * Shared vocabulary of the benchmark binary: workload definitions,
 * the metric sink, and the phases main() strings together.
 *
 * Every workload has the same two phases, so every workload reports
 * every metric:
 *
 *  1. train: build a training graph, run a pass pipeline over it, and
 *     time SGD iterations on real batches (closed loop, one iteration
 *     in flight);
 *  2. serve: write checkpoints of fixed weights for the model families
 *     the traffic mix needs, start a continuous-scheduler server, replay
 *     an open-loop arrival schedule at a low and a high fixed rate, and
 *     measure the rate the server sustains in a closed loop.
 *
 * The workloads differ in model, pass pipeline and traffic mix; the
 * reasons for each are in METRICS.md.
 */
#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "models/nmt.h"
#include "models/word_lm.h"
#include "obs/trace.h"
#include "serve/request.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

enum class ModelKind { kWordLm, kNmt };

/** Shares of each request kind in a traffic mix (sum to 1). */
struct TrafficMix
{
    double lm_topk = 0.0;
    double nmt_greedy = 0.0;
    double nmt_beam = 0.0;
};

struct WorkloadSpec
{
    std::string name;
    /** Model trained in the train phase. */
    ModelKind train_model = ModelKind::kWordLm;
    /** Pass pipeline of the training graph. */
    std::string pipeline;
    TrafficMix mix;
    /** Fixed offered rates (req/s): little queueing, queueing visible. */
    double low_rps = 0.0;
    double high_rps = 0.0;
};

/** The model sizes every workload trains and serves: roughly the
 *  echo-plan presets (tools/echo_plan.cc). */
echo::models::WordLmConfig wordLmPreset();
echo::models::NmtConfig nmtPreset();

/** The workload named @p name, or nullptr. */
const WorkloadSpec *findWorkload(const std::string &name);

/** Names of every workload, for usage messages. */
std::string workloadNames();

// ---------------------------------------------------------------------
// Run options and results
// ---------------------------------------------------------------------

struct RunOptions
{
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Fresh per-run directory for checkpoints. */
    std::string workdir;
    /** Pool threads of the measured phases. */
    int threads = 1;
    /** Pool threads of the traced parallel-executor check. */
    int parallel_threads = 1;
};

/** One named metric of the result line. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Everything a run accumulates: metrics, counts, errors, record. */
struct Report
{
    std::vector<Metric> end_to_end;
    std::vector<Metric> per_layer;
    int64_t attempted = 0;
    int64_t failed = 0;
    std::vector<std::string> errors;
    /** Extra "key": value pairs of the run record (JSON fragments). */
    std::vector<std::pair<std::string, std::string>> record;

    void e2e(const std::string &n, double v, const std::string &u)
    {
        end_to_end.push_back({n, v, u});
    }
    void layer(const std::string &n, double v, const std::string &u)
    {
        per_layer.push_back({n, v, u});
    }
    void fail(const std::string &what)
    {
        errors.push_back(what);
        ++failed;
    }
    void note(const std::string &key, const std::string &json_value)
    {
        record.emplace_back(key, json_value);
    }
};

/** JSON string literal of @p s. */
std::string jsonString(const std::string &s);

/** Heap allocations (operator new calls) since process start. */
int64_t allocCount();

// ---------------------------------------------------------------------
// Train phase
// ---------------------------------------------------------------------

/** What the correctness gate needs once the timed work is over. */
struct TrainGate
{
    ModelKind model = ModelKind::kWordLm;
    uint64_t seed = 0;
    /** FNV-1a over every fetch's bytes, for each of the first
     *  iterations of the measured run. */
    std::vector<uint64_t> fetch_hashes;
};

struct TrainOutcome
{
    double setup_s = 0.0; ///< median of the repeated set-ups
    TrainGate gate;
};

TrainOutcome runTrainPhase(const WorkloadSpec &spec, const RunOptions &opts,
                           Report &report);

/** Replay the first iterations on a reference: the same model built
 *  with autodiff only, run by the serial interpreter.  Records a
 *  failure on any bit difference. */
void checkTrainGate(const TrainGate &gate, Report &report);

// ---------------------------------------------------------------------
// Serve phase
// ---------------------------------------------------------------------

/** A request and the payload the server returned for it. */
struct ServedSample
{
    echo::serve::Request request;
    echo::serve::Response response;
};

struct ServeOutcome
{
    double setup_s = 0.0; ///< median of the repeated set-ups
    std::vector<std::string> checkpoints;
    std::vector<ServedSample> samples;
};

ServeOutcome runServePhase(const WorkloadSpec &spec, const RunOptions &opts,
                           Report &report);

/** Decode every sample again, one at a time, straight on fresh
 *  sessions (no scheduler) and require identical payloads. */
void checkServeGate(const ServeOutcome &served, Report &report);

// ---------------------------------------------------------------------
// Trace folding
// ---------------------------------------------------------------------

/** One closed span: a matched B/E pair on one thread. */
struct SpanRecord
{
    std::string cat;
    std::string name;
    std::string phase; ///< op spans: forward | backward | recompute
    int64_t begin_ns = 0;
    int64_t end_ns = 0;
    /** Duration minus the non-pool child spans on the same thread. */
    int64_t self_ns = 0;
};

/** Pair the B/E events of a trace into spans. */
std::vector<SpanRecord> foldSpans(const std::vector<echo::obs::TraceEvent> &events);

/** Per-iteration graph-layer numbers folded from a traced segment. */
struct GraphFold
{
    double run_ms = 0.0;      ///< executor/tape run span
    double dispatch_ms = 0.0; ///< run time not covered by any op span
    /** Op self time by kind: gemm, fused_ew, slice_grad, add, tanh,
     *  fused_recompute, other. */
    double kind_ms[7] = {};
    /** Op self time by phase: forward, backward, recompute. */
    double phase_ms[3] = {};
};

inline constexpr const char *kOpKinds[7] = {
    "gemm", "fused_ew", "slice_grad", "add", "tanh", "fused_recompute",
    "other"};
inline constexpr const char *kPhases[3] = {"forward", "backward",
                                           "recompute"};

/** Fold the op and run spans of @p iterations traced iterations. */
GraphFold foldGraph(const std::vector<SpanRecord> &spans, int iterations);

/** Summed inclusive time of spans with @p cat named @p name, or
 *  @p name followed by an argument list ("pass.x(args)"). */
double spanTotalMs(const std::vector<SpanRecord> &spans, const char *cat,
                   const std::string &name);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
