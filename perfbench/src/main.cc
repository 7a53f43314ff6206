/**
 * @file
 * echo_perfbench: runs one named workload in this process, checks its
 * outputs, and prints one JSON result line.
 *
 * usage: echo_perfbench --workload NAME --seed N --seconds S
 *                       --trace 0|1 --workdir DIR [--source-id ID]
 *
 * --trace 0 reports the end-to-end metrics; --trace 1 runs the same
 * workload, collects spans around the segments it folds, and reports
 * the per-layer metrics.
 * The last line of standard output is
 *   {"correct": B, "attempted": N, "failed": N, "metrics": {...}}
 * and the line before it is the run record (workload, seed, source
 * id, host, CPUs, pool threads, tune mode, engine, every serving
 * window).
 * Exit status: 0 on a correct run, 1 when a correctness gate failed,
 * 2 on usage errors or an inherited ECHO_* behaviour setting.
 */
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <new>
#include <sstream>
#include <string>

#include "bench.h"
#include "core/thread_pool.h"
#include "obs/counters.h"
#include "tensor/gemm_schedule.h"

extern char **environ;

// ---------------------------------------------------------------------
// Heap-allocation counter (memory.allocs_per_iter).  Always on: one
// relaxed atomic add per allocation.
// ---------------------------------------------------------------------

namespace {
std::atomic<int64_t> g_allocs{0};

void *
countedAlloc(std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}
} // namespace

// Every non-aligned form is replaced, so memory from any of them is
// released by the matching free() (std::stable_sort's buffer, for one,
// comes from the nothrow form).
void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(n ? n : 1);
}
void *
operator new[](std::size_t n, const std::nothrow_t &t) noexcept
{
    return operator new(n, t);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, const std::nothrow_t &) noexcept { std::free(p); }
void operator delete[](void *p, const std::nothrow_t &) noexcept { std::free(p); }

namespace perfbench {

int64_t
allocCount()
{
    return g_allocs.load(std::memory_order_relaxed);
}

std::string
jsonString(const std::string &s)
{
    std::string o = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            o += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        o += c;
    }
    return o + "\"";
}

echo::models::WordLmConfig
wordLmPreset()
{
    echo::models::WordLmConfig c;
    c.vocab = 2000;
    c.hidden = 192;
    c.layers = 2;
    c.batch = 16;
    c.seq_len = 35;
    return c;
}

echo::models::NmtConfig
nmtPreset()
{
    echo::models::NmtConfig c;
    c.src_vocab = 1500;
    c.tgt_vocab = 1200;
    c.hidden = 128;
    c.enc_layers = 1;
    c.batch = 16;
    c.src_len = 25;
    c.tgt_len = 25;
    return c;
}

namespace {

/** Pool threads of every measured phase: one, so the executor runs
 *  serially.  On the shared 4-CPU VM the benchmark was tuned on, four
 *  threads made NMT training iterations swing between 170 and 570 ms
 *  from run to run (every parallel join waits for the slowest vCPU)
 *  and cut the sustained serving rate by a quarter. */
constexpr int kPoolThreads = 1;
/** Pool threads of the traced run's parallel-executor check (fewer
 *  when fewer CPUs are available). */
constexpr int kParallelThreads = 4;

// Why each workload exists is in METRICS.md.  The word-LM traffic is
// bench/serve_throughput's open-loop trace; the mixed traffic adds NMT
// requests in the shares of examples/assets/serve_requests_mixed.txt
// (4 word-LM : 3 NMT greedy : 1 NMT beam).  The low and high rates sit
// well below each mix's sustained rate on a 4-CPU VM.
const WorkloadSpec kWorkloads[] = {
    {"train-wordlm", ModelKind::kWordLm, "autodiff,fusion,recompute",
     TrafficMix{1.0, 0.0, 0.0}, 600, 1200},
    {"train-nmt-budget", ModelKind::kNmt,
     "autodiff,fusion,plan,recompute_budget(fraction=0.6)",
     TrafficMix{0.5, 0.375, 0.125}, 150, 300},
    {"serve-mixed-openloop", ModelKind::kNmt, "autodiff,fusion",
     TrafficMix{0.5, 0.375, 0.125}, 150, 300},
};

int
availableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return CPU_COUNT(&set);
    return 1;
}

/** Inherited ECHO_* variables other than the tune-cache path. */
std::vector<std::string>
inheritedKnobs()
{
    std::vector<std::string> knobs;
    for (char **e = environ; *e != nullptr; ++e) {
        const std::string kv = *e;
        if (kv.rfind("ECHO_", 0) == 0 && kv.rfind("ECHO_TUNE_CACHE=", 0) != 0)
            knobs.push_back(kv.substr(0, kv.find('=')));
    }
    return knobs;
}

double
maxRssMiB()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

const char *
tuneModeName()
{
    switch (echo::ops::tuneMode()) {
      case echo::ops::TuneMode::kOff:
        return "off";
      case echo::ops::TuneMode::kCache:
        return "cache";
      case echo::ops::TuneMode::kSearch:
        return "search";
    }
    return "?";
}

void
printMetrics(std::ostream &os, const std::vector<Metric> &metrics)
{
    os << "{";
    for (size_t i = 0; i < metrics.size(); ++i) {
        os << (i ? ", " : "") << jsonString(metrics[i].name)
           << ": {\"value\": " << metrics[i].value
           << ", \"unit\": " << jsonString(metrics[i].unit) << "}";
    }
    os << "}";
}

int
usage(const std::string &why)
{
    std::cerr << "echo_perfbench: " << why << "\n"
              << "usage: echo_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 --workdir DIR [--source-id ID]\n"
              << "workloads: " << workloadNames() << "\n";
    return 2;
}

} // namespace

const WorkloadSpec *
findWorkload(const std::string &name)
{
    for (const WorkloadSpec &w : kWorkloads)
        if (w.name == name)
            return &w;
    return nullptr;
}

std::string
workloadNames()
{
    std::string s;
    for (const WorkloadSpec &w : kWorkloads)
        s += (s.empty() ? "" : " ") + w.name;
    return s;
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    RunOptions opts;
    std::string workload, source_id = "unknown";
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage("missing value for " + arg);
        const std::string val = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            workload = val;
        } else if (arg == "--seed") {
            opts.seed = std::strtoull(val.c_str(), &end, 10);
            have_seed = *end == '\0' && !val.empty();
        } else if (arg == "--seconds") {
            opts.seconds = std::strtod(val.c_str(), &end);
            have_seconds = *end == '\0' && opts.seconds > 0.0;
        } else if (arg == "--trace") {
            have_trace = val == "0" || val == "1";
            opts.trace = val == "1";
        } else if (arg == "--workdir") {
            opts.workdir = val;
        } else if (arg == "--source-id") {
            source_id = val;
        } else {
            return usage("unknown argument " + arg);
        }
    }
    const WorkloadSpec *spec = findWorkload(workload);
    if (spec == nullptr)
        return usage("unknown workload '" + workload + "'");
    if (!have_seed || !have_seconds || !have_trace || opts.workdir.empty())
        return usage("--seed, --seconds, --trace and --workdir are required");
    if (const auto knobs = inheritedKnobs(); !knobs.empty()) {
        std::string names;
        for (const std::string &k : knobs)
            names += " " + k;
        return usage("refusing inherited behaviour settings:" + names);
    }

    const int cpus = availableCpus();
    opts.threads = std::min(kPoolThreads, cpus);
    opts.parallel_threads = std::min(kParallelThreads, cpus);
    echo::ThreadPool::setGlobalNumThreads(opts.threads);
    echo::obs::Counter &measure_runs =
        echo::obs::counter("tune.measure_runs", echo::obs::CounterKind::kScheduling);
    const int64_t measure_runs0 = measure_runs.value();

    Report report;
    const TrainOutcome trained = runTrainPhase(*spec, opts, report);
    const ServeOutcome served = runServePhase(*spec, opts, report);
    // Peak RSS before the correctness gates, which build reference
    // models the measured system does not need.
    const double rss_mib = maxRssMiB();
    report.e2e("setup_s", trained.setup_s + served.setup_s, "s");
    report.e2e("max_rss_mb", rss_mib, "MiB");
    if (opts.trace)
        report.layer("tune.measure_runs",
                     static_cast<double>(measure_runs.value() - measure_runs0),
                     "count");

    checkTrainGate(trained.gate, report);
    checkServeGate(served, report);

    char host[256] = "unknown";
    gethostname(host, sizeof host - 1);
    std::ostringstream rec;
    rec << std::setprecision(6) << "{\"workload\": " << jsonString(spec->name)
        << ", \"seed\": " << opts.seed << ", \"seconds\": " << opts.seconds
        << ", \"trace\": " << (opts.trace ? 1 : 0)
        << ", \"source\": " << jsonString(source_id)
        << ", \"host\": " << jsonString(host) << ", \"cpus\": " << cpus
        << ", \"pool_threads\": " << opts.threads
        << ", \"tune_mode\": " << jsonString(tuneModeName());
    for (const auto &[k, v] : report.record)
        rec << ", " << jsonString(k) << ": " << v;
    rec << ", \"errors\": [";
    for (size_t i = 0; i < report.errors.size(); ++i)
        rec << (i ? ", " : "") << jsonString(report.errors[i]);
    rec << "]}";
    std::cout << "run-record " << rec.str() << "\n";
    for (const std::string &e : report.errors)
        std::cerr << "echo_perfbench: FAILED: " << e << "\n";

    const bool correct = report.errors.empty();
    std::cout << std::setprecision(17) << "{\"correct\": "
              << (correct ? "true" : "false")
              << ", \"attempted\": " << report.attempted
              << ", \"failed\": " << report.failed << ", \"metrics\": ";
    printMetrics(std::cout,
                 opts.trace ? report.per_layer : report.end_to_end);
    std::cout << "}" << std::endl;
    return correct ? 0 : 1;
}
