/**
 * @file
 * Train phase: set-up, correctness-gated SGD iterations, and the
 * per-layer table of one training iteration.
 *
 * Jobs are built by the model constructors, which run the pass
 * pipeline a user's trainer runs.  The traced run reads the pass
 * decisions the models do not expose (Echo regions, the budget plan)
 * from a separate pipeline run.
 */
#include <cmath>
#include <memory>
#include <sstream>

#include "bench.h"
#include "core/rng.h"
#include "core/thread_pool.h"
#include "data/batcher.h"
#include "graph/executor.h"
#include "graph/gemm_keys.h"
#include "memory/liveness.h"
#include "memory/planner.h"
#include "models/nmt.h"
#include "models/word_lm.h"
#include "obs/counters.h"
#include "pass/builtin_passes.h"
#include "stats.h"
#include "tensor/ops.h"
#include "train/optimizer.h"

namespace perfbench {

namespace {

using namespace echo;

/** Set-ups timed per run; the median is reported. */
constexpr int kSetupRepeats = 3;
/** Iterations whose fetches the correctness gate replays. */
constexpr int kGateIterations = 3;
/** Timed iterations needed for a p90 with ten samples beyond it. */
const size_t kMinTimedIterations = samplesNeeded(0.90);
constexpr size_t kMaxTimedIterations = 2000;
/** Iterations folded in the traced segment, and timed on the
 *  parallel executor. */
constexpr int kTracedIterations = 10;
/** Share of --seconds given to the timed training loop. */
constexpr double kTrainShare = 0.6;

/** The seeded training data of one run (the benchmark's input). */
struct Inputs
{
    std::unique_ptr<data::Corpus> corpus;
    std::unique_ptr<data::ParallelCorpus> pairs;
};

Inputs
makeInputs(ModelKind kind, uint64_t seed)
{
    Inputs in;
    if (kind == ModelKind::kWordLm) {
        data::CorpusConfig cc;
        cc.vocab = data::Vocab{wordLmPreset().vocab};
        cc.num_tokens = 200000;
        cc.seed = seed;
        in.corpus = std::make_unique<data::Corpus>(data::Corpus::generate(cc));
    } else {
        const models::NmtConfig m = nmtPreset();
        data::ParallelCorpusConfig pc;
        pc.src_vocab = data::Vocab{m.src_vocab};
        pc.tgt_vocab = data::Vocab{m.tgt_vocab};
        pc.num_pairs = 4000;
        pc.min_len = 5;
        pc.max_len = m.src_len;
        pc.seed = seed;
        in.pairs = std::make_unique<data::ParallelCorpus>(
            data::ParallelCorpus::generate(pc));
    }
    return in;
}

/**
 * A built training job: the model as its constructor builds it (pass
 * pipeline included), its batcher, executor and optimizer state.
 * Exactly one of the model pointers is set.
 */
struct Job
{
    std::unique_ptr<models::WordLmModel> lm;
    std::unique_ptr<data::LmBatcher> lm_batches;
    std::unique_ptr<models::NmtModel> nmt;
    std::unique_ptr<data::NmtBatcher> nmt_batches;
    std::unique_ptr<graph::Executor> exec;
    models::ParamStore params;
    std::unique_ptr<train::SgdOptimizer> opt;

    const models::NamedWeights &
    weights() const
    {
        return lm ? lm->weights() : nmt->weights();
    }
    const std::vector<graph::Val> &
    fetches() const
    {
        return lm ? lm->fetches() : nmt->fetches();
    }
    const std::vector<graph::Val> &
    grads() const
    {
        return lm ? lm->weightGrads() : nmt->weightGrads();
    }
    const fusion::FusionResult &
    fusion() const
    {
        return lm ? lm->fusionResult() : nmt->fusionResult();
    }
    /** Next batch and its feed (the data layer's work). */
    graph::FeedDict
    nextFeed()
    {
        return lm ? lm->makeFeed(params, lm_batches->next())
                  : nmt->makeFeed(params, nmt_batches->next());
    }
    /** Predicted (label) positions per iteration. */
    int64_t
    tokensPerIteration() const
    {
        return lm ? lm->config().batch * lm->config().seq_len
                  : nmt->config().batch * nmt->config().tgt_len;
    }
};

Job
buildJob(ModelKind kind, const Inputs &in, const std::string &pipeline,
         graph::ExecMode mode, uint64_t param_seed)
{
    Job job;
    if (kind == ModelKind::kWordLm) {
        const models::WordLmConfig c = wordLmPreset();
        job.lm = std::make_unique<models::WordLmModel>(c, pipeline);
        job.lm_batches =
            std::make_unique<data::LmBatcher>(*in.corpus, c.batch, c.seq_len);
    } else {
        const models::NmtConfig c = nmtPreset();
        job.nmt = std::make_unique<models::NmtModel>(c, pipeline);
        job.nmt_batches = std::make_unique<data::NmtBatcher>(
            *in.pairs, c.batch, c.src_len, c.tgt_len);
    }
    job.exec = std::make_unique<graph::Executor>(job.fetches(), mode);
    Rng rng(param_seed);
    job.params = models::initParams(job.weights(), rng);
    job.opt = std::make_unique<train::SgdOptimizer>(0.4, 0.9);
    return job;
}

/**
 * The pass decisions the models keep to themselves (Echo regions, the
 * budget plan), read from a second run of @p pipeline on a fresh
 * forward graph.  Only the traced run asks for them.
 */
struct PassCounts
{
    int echo_regions = 0;
    int budget_regions = 0;
    double budget_replay_us = 0.0;
};

PassCounts
passCounts(ModelKind kind, const std::string &pipeline)
{
    std::unique_ptr<models::WordLmModel> lm;
    std::unique_ptr<models::NmtModel> nmt;
    std::unique_ptr<pass::PipelineContext> ctx;
    const models::NamedWeights *weights = nullptr;
    if (kind == ModelKind::kWordLm) {
        lm = std::make_unique<models::WordLmModel>(wordLmPreset(), "none");
        ctx = std::make_unique<pass::PipelineContext>(lm->graph());
        ctx->loss = lm->loss();
        ctx->layout_spec = lm->layoutSpec();
        weights = &lm->weights();
    } else {
        const models::NmtConfig c = nmtPreset();
        nmt = std::make_unique<models::NmtModel>(c, "none");
        ctx = std::make_unique<pass::PipelineContext>(nmt->graph());
        ctx->loss = nmt->loss();
        ctx->layout_spec.input_size = c.hidden;
        ctx->layout_spec.hidden = c.hidden;
        ctx->layout_spec.layers = c.enc_layers;
        ctx->layout_spec.batch = c.batch;
        ctx->layout_spec.seq_len = c.src_len;
        weights = &nmt->weights();
    }
    ctx->has_layout_spec = true;
    for (const auto &[name, val] : *weights)
        ctx->wrt.push_back(val);
    pass::PassManager::RunOptions ro;
    ro.die_on_error = true;
    ro.what = "perfbench pass counts";
    pass::buildPipeline(pipeline).run(*ctx, ro);

    PassCounts pc;
    // The budget pass reports its plan through ctx.recompute too;
    // echo.regions counts the Echo (time-budget) pass alone.
    if (ctx->has_budget_plan) {
        pc.budget_regions = ctx->budget_plan.pass.num_regions;
        pc.budget_replay_us = ctx->budget_plan.pass.replay_time_us;
    } else {
        pc.echo_regions = ctx->recompute.num_regions;
    }
    return pc;
}

uint64_t
hashFetches(const std::vector<Tensor> &outs)
{
    uint64_t h = 1469598103934665603ull;
    const auto mix = [&h](const void *p, size_t n) {
        const auto *b = static_cast<const unsigned char *>(p);
        for (size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 1099511628211ull;
        }
    };
    for (const Tensor &t : outs) {
        const int64_t n = t.numel();
        mix(&n, sizeof n);
        mix(t.data(), static_cast<size_t>(n) * sizeof(float));
    }
    return h;
}

struct Step
{
    double feed_ms = 0.0;
    double run_ms = 0.0;
    double opt_ms = 0.0;
    double total_ms = 0.0;
    float loss = 0.0f;
    uint64_t hash = 0;
    /** End of the iteration (before hashing). */
    Clock::time_point done{};
};

/** One training iteration: batch + feed, executor run, SGD step. */
Step
runStep(Job &job, bool hash)
{
    Step s;
    const Clock::time_point t0 = Clock::now();
    const graph::FeedDict feed = job.nextFeed();
    const Clock::time_point t1 = Clock::now();
    std::vector<Tensor> outs = job.exec->run(feed);
    const Clock::time_point t2 = Clock::now();
    const std::vector<Tensor> grads(outs.begin() + 1, outs.end());
    job.opt->step(job.params, job.weights(), grads);
    const Clock::time_point t3 = Clock::now();
    s.feed_ms = msBetween(t0, t1);
    s.run_ms = msBetween(t1, t2);
    s.opt_ms = msBetween(t2, t3);
    s.total_ms = msBetween(t0, t3);
    s.loss = outs[0].at(0);
    s.done = t3;
    if (hash)
        s.hash = hashFetches(outs);
    return s;
}

double
meanOf(const std::vector<float> &v, size_t begin, size_t end)
{
    double sum = 0.0;
    for (size_t i = begin; i < end; ++i)
        sum += v[i];
    return sum / static_cast<double>(end - begin);
}

/** GFLOP/s of ops::gemm over the distinct GEMM shapes of @p schedule. */
double
gemmGflops(const std::vector<graph::Node *> &schedule, int threads)
{
    Rng rng(1234);
    double flops = 0.0, seconds = 0.0;
    for (const ops::GemmKey &k : graph::collectGemmKeys(schedule, threads)) {
        const Tensor a = Tensor::uniform(
            k.trans_a ? Shape({k.k, k.m}) : Shape({k.m, k.k}), rng);
        const Tensor b = Tensor::uniform(
            k.trans_b ? Shape({k.n, k.k}) : Shape({k.k, k.n}), rng);
        (void)ops::gemm(a, k.trans_a, b, k.trans_b); // warm
        constexpr int kReps = 3;
        const Clock::time_point t0 = Clock::now();
        for (int r = 0; r < kReps; ++r)
            (void)ops::gemm(a, k.trans_a, b, k.trans_b);
        seconds += msBetween(t0, Clock::now()) / 1e3;
        flops += 2.0 * static_cast<double>(k.m) * static_cast<double>(k.n) *
                 static_cast<double>(k.k) * kReps;
    }
    return seconds > 0.0 ? flops / seconds / 1e9 : 0.0;
}

std::string
modelName(ModelKind k)
{
    return k == ModelKind::kWordLm ? "word_lm" : "nmt";
}

} // namespace

TrainOutcome
runTrainPhase(const WorkloadSpec &spec, const RunOptions &opts,
              Report &report)
{
    TrainOutcome out;
    out.gate.model = spec.train_model;
    out.gate.seed = opts.seed;
    const Inputs inputs = makeInputs(spec.train_model, opts.seed);
    const uint64_t param_seed = opts.seed * 7919 + 1;

    // Set-up: model build, pass pipeline, executor construction and the
    // first (cold) iteration, repeated; the last job is the one timed.
    std::vector<double> setups;
    Job job;
    for (int r = 0; r < kSetupRepeats; ++r) {
        job = Job{};
        const Clock::time_point t0 = Clock::now();
        job = buildJob(spec.train_model, inputs, spec.pipeline,
                       graph::ExecMode::kAuto, param_seed);
        const Step first = runStep(job, /*hash=*/r + 1 == kSetupRepeats);
        setups.push_back(msBetween(t0, first.done) / 1e3);
        if (r + 1 == kSetupRepeats)
            out.gate.fetch_hashes.push_back(first.hash);
        ++report.attempted;
    }
    out.setup_s = medianOf(setups);
    for (int i = 1; i < kGateIterations; ++i) {
        out.gate.fetch_hashes.push_back(runStep(job, true).hash);
        ++report.attempted;
    }

    // Timed steady iterations.
    obs::Counter &tape_runs = obs::counter("tape.runs");
    obs::Counter &exec_ops = obs::counter("exec.ops");
    const int64_t tape_runs0 = tape_runs.value();
    const int64_t allocs0 = allocCount();
    std::vector<double> total_ms, feed_ms, opt_ms;
    std::vector<float> losses;
    const Clock::time_point loop0 = Clock::now();
    const double budget_ms = opts.seconds * kTrainShare * 1e3;
    while (total_ms.size() < kMaxTimedIterations &&
           (total_ms.size() < kMinTimedIterations ||
            msBetween(loop0, Clock::now()) < budget_ms)) {
        const Step s = runStep(job, false);
        total_ms.push_back(s.total_ms);
        feed_ms.push_back(s.feed_ms);
        opt_ms.push_back(s.opt_ms);
        losses.push_back(s.loss);
    }
    const int64_t allocs = allocCount() - allocs0;
    const size_t n = total_ms.size();
    report.attempted += static_cast<int64_t>(n);

    double sum_ms = 0.0;
    for (double v : total_ms)
        sum_ms += v;
    const auto p50 = percentile(total_ms, 0.50);
    const auto p90 = percentile(total_ms, 0.90);
    if (!p50 || !p90)
        report.fail("too few timed iterations for p90");

    bool finite = true;
    for (float l : losses)
        finite = finite && std::isfinite(l);
    const double head = meanOf(losses, 0, 10);
    const double tail = meanOf(losses, n - 10, n);
    if (!finite)
        report.fail("training loss is not finite");
    else if (!(tail < head))
        report.fail("training loss did not go down");

    const memory::MemoryPlan plan = memory::planMemory(
        memory::analyzeLiveness(job.fetches(), job.grads()));

    report.e2e("train.tokens_per_s",
                static_cast<double>(job.tokensPerIteration()) *
                    static_cast<double>(n) / (sum_ms / 1e3),
                "tok/s");
    report.e2e("train.iter_ms.p50", p50.value_or(0.0), "ms");
    report.e2e("train.iter_ms.p90", p90.value_or(0.0), "ms");
    report.e2e("train.peak_pool_bytes",
               static_cast<double>(plan.pool_peak_bytes), "B");

    const bool tape = tape_runs.value() > tape_runs0;
    std::ostringstream rec;
    rec << "{\"model\": " << jsonString(modelName(spec.train_model))
        << ", \"pipeline\": " << jsonString(spec.pipeline)
        << ", \"engine\": " << jsonString(tape ? "tape" : "interpreter")
        << ", \"timed_iterations\": " << n
        << ", \"loss_first10\": " << head << ", \"loss_last10\": " << tail
        << ", \"setup_s\": [";
    for (size_t i = 0; i < setups.size(); ++i)
        rec << (i ? ", " : "") << setups[i];
    rec << "]}";
    report.note("train", rec.str());

    if (opts.trace) {
        report.layer("data.feed_ms", medianOf(feed_ms), "ms");
        report.layer("train.opt_step_ms", medianOf(opt_ms), "ms");
        report.layer("memory.allocs_per_iter",
                     static_cast<double>(allocs) / static_cast<double>(n),
                     "count");

        // Pass times: one more job built, traced.  It runs on the
        // parallel executor below.
        obs::startTrace();
        Job par = buildJob(spec.train_model, inputs, spec.pipeline,
                           graph::ExecMode::kAuto, param_seed);
        obs::stopTrace();
        const std::vector<SpanRecord> pass_spans =
            foldSpans(obs::snapshotEvents());
        for (const char *p : {"autodiff", "fusion", "recompute", "plan",
                              "recompute_budget"})
            report.layer(std::string("pass.") + p + "_ms",
                         spanTotalMs(pass_spans, "pass",
                                     std::string("pass.") + p),
                         "ms");

        const PassCounts pc = passCounts(spec.train_model, spec.pipeline);
        report.layer("fusion.groups", job.fusion().num_groups, "count");
        report.layer("echo.regions", pc.echo_regions, "count");
        report.layer("budget.regions", pc.budget_regions, "count");
        report.layer("budget.replay_us", pc.budget_replay_us, "us");
        report.layer("graph.nodes",
                     static_cast<double>(job.exec->schedule().size()),
                     "count");

        // Traced iterations, each paired with an untraced one just before
        // it so the overhead compares iterations under the same machine
        // conditions.  Each traced iteration is folded on its own (a
        // trace restarts its clock) and the folds are averaged.
        const int64_t ops0 = exec_ops.value();
        std::vector<double> traced_ms, paired_ms;
        GraphFold gf;
        for (int i = 0; i < kTracedIterations; ++i) {
            paired_ms.push_back(runStep(job, false).total_ms);
            obs::startTrace();
            traced_ms.push_back(runStep(job, false).total_ms);
            obs::stopTrace();
            const GraphFold one = foldGraph(foldSpans(obs::snapshotEvents()), 1);
            gf.run_ms += one.run_ms / kTracedIterations;
            gf.dispatch_ms += one.dispatch_ms / kTracedIterations;
            for (int k = 0; k < 7; ++k)
                gf.kind_ms[k] += one.kind_ms[k] / kTracedIterations;
            for (int p = 0; p < 3; ++p)
                gf.phase_ms[p] += one.phase_ms[p] / kTracedIterations;
        }
        report.attempted += 2 * kTracedIterations;
        report.layer("graph.run_ms", gf.run_ms, "ms");
        report.layer("graph.ops_per_iter",
                     static_cast<double>(exec_ops.value() - ops0) /
                         (2 * kTracedIterations),
                     "count");
        report.layer("graph.dispatch_ms", gf.dispatch_ms, "ms");
        for (int k = 0; k < 7; ++k)
            report.layer(std::string("op.") + kOpKinds[k] + "_ms",
                         gf.kind_ms[k], "ms");
        for (int p = 0; p < 3; ++p)
            report.layer(std::string("phase.") + kPhases[p] + "_ms",
                         gf.phase_ms[p], "ms");
        report.layer("trace.overhead_pct",
                     100.0 * (medianOf(traced_ms) / medianOf(paired_ms) - 1.0),
                     "%");
        report.layer("tensor.gemm_gflops",
                     gemmGflops(job.exec->schedule(), opts.threads),
                     "GFLOP/s");

        // The parallel executor, which the measured phases never use:
        // the same job on a wider pool must reproduce the measured
        // job's first iterations bit for bit (and so the serial
        // reference the gate compares those with).
        ThreadPool::setGlobalNumThreads(opts.parallel_threads);
        for (int i = 0; i < kGateIterations; ++i)
            if (runStep(par, true).hash != out.gate.fetch_hashes[i])
                report.fail("training iteration " + std::to_string(i) +
                            " on " + std::to_string(opts.parallel_threads) +
                            " pool threads differs from one thread");
        std::vector<double> par_run_ms;
        for (int i = 0; i < kTracedIterations; ++i)
            par_run_ms.push_back(runStep(par, false).run_ms);
        report.attempted += kGateIterations + kTracedIterations;
        report.layer("graph.parallel_run_ms", medianOf(par_run_ms), "ms");
        ThreadPool::setGlobalNumThreads(opts.threads);
    }

    return out;
}

void
checkTrainGate(const TrainGate &gate, Report &report)
{
    const Inputs inputs = makeInputs(gate.model, gate.seed);
    Job ref = buildJob(gate.model, inputs, "autodiff",
                       graph::ExecMode::kSerial, gate.seed * 7919 + 1);
    for (size_t i = 0; i < gate.fetch_hashes.size(); ++i) {
        const Step s = runStep(ref, true);
        if (s.hash != gate.fetch_hashes[i])
            report.fail("training iteration " + std::to_string(i) +
                        " differs from the autodiff-only serial reference");
    }
}

} // namespace perfbench
