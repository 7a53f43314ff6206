/**
 * @file
 * Serve phase: a continuous-scheduler server under an open-loop,
 * bursty-Poisson arrival schedule.
 *
 * One generator thread (the caller) sends each request at its
 * scheduled time whether or not earlier ones have finished.  Latency
 * counts from the scheduled send time, so a stall of the generator or
 * the server is charged to every request it delays.
 *
 * Two fixed offered rates, low and high, measure latency in a window
 * of 1000 requests each (enough for a p99).  A window is invalid when
 * the generator fell behind its schedule or the backlog grew, and is
 * replaced by one more.
 *
 * serve.max_rate_rps is the rate the server sustains: a closed loop
 * keeps a fixed number of requests in flight, more than the server has
 * rows, so the server is never idle while its queue stays short; the
 * requests completed per second is its capacity for this traffic.
 * Unlike a pass/fail ladder of offered rates, it moves in proportion
 * to the server's speed.
 */
#include <algorithm>
#include <cmath>
#include <cstring>
#include <future>
#include <limits>
#include <sstream>
#include <thread>
#include <utility>

#include "bench.h"
#include "core/rng.h"
#include "models/serialize.h"
#include "serve/server.h"
#include "stats.h"

namespace perfbench {

namespace {

using namespace echo;

constexpr int64_t kSlots = 8;
constexpr int kSetupRepeats = 3;
/** Requests per window: a p99 needs ten samples beyond it. */
const size_t kWindowRequests = samplesNeeded(0.99);
/** Windows run at a fixed rate until one is valid. */
constexpr int kFixedRateWindows = 2;
/** Requests in flight while the sustained rate is measured: four times
 *  a session's rows, so the rows of both sessions of the mixed traffic
 *  stay full with requests to spare.  The queue stays short on purpose:
 *  the scheduler sorts its waiting requests on every pass, so with
 *  thousands waiting (an open loop offered past capacity) the rate
 *  would depend on how deep the queue grew. */
constexpr int64_t kInFlight = 4 * kSlots;
/** Length and number of the sustained-rate windows (median reported). */
constexpr double kSustainedWindowS = 1.5;
constexpr int kSustainedWindows = 3;
/** Median generator lateness beyond which the generator fell behind
 *  its schedule and a window is invalid.  The median, not the tail:
 *  on a shared VM the generator thread is sometimes descheduled for
 *  10 to 20 ms (its p99), which delays a few sends, and those are
 *  charged to the requests' latency anyway. */
constexpr double kMaxGenLateMs = 1.0;
/** Growth of the outstanding requests over a window (from a tenth of
 *  the way in to its end) that means the backlog is growing. */
constexpr int64_t kMaxBacklogGrowth = 64;
/** Requests per kind replayed by the correctness gate. */
constexpr int kGateSamplesPerKind = 6;
constexpr uint64_t kServeWeightsSeed = 20200530;
/** Requests in the unreported warm-up window. */
constexpr size_t kWarmupRequests = 200;
/** Requests in the traced window. */
constexpr size_t kTracedRequests = 300;

// The request shapes and the arrival process are the open-loop trace
// of bench/serve_throughput.cc: prompt lengths Zipf(s=1.2) over 1..8,
// token ids 3 + uniform(40), top-k 1..4, bursts with geometric sizes
// (continue with probability 0.65, at most 8) sent back to back.  NMT
// requests decode up to 16 tokens (echo-serve's default --max-new) and
// beam requests use width 3, as in examples/assets/serve_requests_mixed.txt.
constexpr int64_t kMaxPromptLen = 8;
constexpr double kPromptZipfS = 1.2;
constexpr int64_t kTokenIds = 40;
constexpr int kMaxTopK = 4;
constexpr int64_t kMaxNewTokens = 16;
constexpr int kBeamWidth = 3;
constexpr double kBurstContinue = 0.65;
constexpr int kMaxBurst = 8;
constexpr int64_t kBurstGapNs = 1000;

serve::SessionConfig
sessionConfig()
{
    serve::SessionConfig c;
    c.slots = kSlots;
    c.buckets = {kMaxPromptLen};
    c.beam_width = kBeamWidth;
    return c;
}

serve::ServerConfig
serverConfig()
{
    // Latency, not shedding, is measured: the queue never rejects, and
    // every request is admitted at one tier.
    serve::ServerConfig c;
    c.queue_capacity = 1 << 14;
    c.batch_admit_fraction = 1.0;
    return c;
}

enum Kind { kLmTopk = 0, kNmtGreedy = 1, kNmtBeam = 2 };

/** Prompt length: Zipf(kPromptZipfS) over 1..kMaxPromptLen. */
int64_t
promptLength(Rng &rng)
{
    double cdf[kMaxPromptLen], total = 0.0;
    for (int64_t len = 1; len <= kMaxPromptLen; ++len) {
        total += 1.0 / std::pow(static_cast<double>(len), kPromptZipfS);
        cdf[len - 1] = total;
    }
    const double pick = total * rng.uniform();
    int64_t len = 1;
    while (len < kMaxPromptLen && cdf[len - 1] < pick)
        ++len;
    return len;
}

serve::Request
makeRequest(Kind kind, Rng &rng)
{
    serve::Request r;
    const int64_t len = promptLength(rng);
    for (int64_t t = 0; t < len; ++t)
        r.tokens.push_back(3 + static_cast<int64_t>(rng.uniformInt(kTokenIds)));
    r.model = kind == kLmTopk ? "word_lm" : "nmt";
    if (kind == kLmTopk) {
        r.top_k = 1 + static_cast<int>(rng.uniformInt(kMaxTopK));
    } else {
        r.max_new_tokens = kMaxNewTokens;
        r.beam_width = kind == kNmtBeam ? kBeamWidth : 1;
    }
    return r;
}

Kind
pickKind(const TrafficMix &mix, Rng &rng)
{
    const double u = rng.uniform();
    if (u < mix.lm_topk)
        return kLmTopk;
    if (u < mix.lm_topk + mix.nmt_greedy)
        return kNmtGreedy;
    return kNmtBeam;
}

struct Planned
{
    int64_t at_ns = 0; ///< scheduled send time from the window start
    Kind kind = kLmTopk;
    serve::Request req;
};

/** Mean burst size of the arrival process. */
double
meanBurst()
{
    double mean = 0.0, p = 1.0;
    for (int b = 1; b <= kMaxBurst; ++b) {
        mean += p;
        p *= kBurstContinue;
    }
    return mean;
}

/**
 * Bursty Poisson arrivals at mean rate @p rps: burst starts form a
 * Poisson process, burst sizes are geometric and a burst's requests
 * are sent back to back.
 */
std::vector<Planned>
makeSchedule(const TrafficMix &mix, double rps, size_t n, Rng &rng)
{
    const double mean_gap_ns = meanBurst() / rps * 1e9;
    std::vector<Planned> out;
    out.reserve(n);
    double t_ns = 0.0;
    while (out.size() < n) {
        t_ns += -std::log(std::max(1e-12, 1.0 - rng.uniform())) * mean_gap_ns;
        int burst = 1;
        while (burst < kMaxBurst && rng.uniform() < kBurstContinue)
            ++burst;
        for (int b = 0; b < burst && out.size() < n; ++b) {
            Planned p;
            p.at_ns = static_cast<int64_t>(t_ns) + b * kBurstGapNs;
            p.kind = pickKind(mix, rng);
            p.req = makeRequest(p.kind, rng);
            out.push_back(std::move(p));
        }
    }
    return out;
}

/** One open-loop window. */
struct WindowResult
{
    double offered_rps = 0.0;
    double span_s = 0.0; ///< first to last scheduled send
    size_t sent = 0;
    int64_t ok = 0, rejected = 0, expired = 0;
    double p50_ms = 0.0, p99_ms = 0.0;
    double gen_late_p50_ms = 0.0, gen_late_p99_ms = 0.0;
    /** Outstanding requests a tenth of the way in, and at the end. */
    int64_t backlog_start = 0, backlog_end = 0;
    bool valid = false;
    std::vector<ServedSample> samples;
};

int64_t
outstanding(const std::vector<std::future<serve::Response>> &fs)
{
    int64_t n = 0;
    for (const auto &f : fs)
        if (f.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready)
            ++n;
    return n;
}

/** Replay @p sched open-loop against @p server; drains before return. */
WindowResult
runWindow(serve::Server &server, const std::vector<Planned> &sched,
          int gate_samples_per_kind)
{
    WindowResult r;
    r.sent = sched.size();
    std::vector<std::future<serve::Response>> futures;
    futures.reserve(sched.size());
    std::vector<double> late_ms(sched.size());
    const Clock::time_point start =
        Clock::now() + std::chrono::milliseconds(2);
    for (size_t i = 0; i < sched.size(); ++i) {
        const Clock::time_point due =
            start + std::chrono::nanoseconds(sched[i].at_ns);
        std::this_thread::sleep_until(due);
        late_ms[i] = msBetween(due, Clock::now());
        futures.push_back(server.submit(sched[i].req));
        if (i + 1 == sched.size() / 10)
            r.backlog_start = outstanding(futures);
    }
    r.backlog_end = outstanding(futures);

    std::vector<double> lat_ms(sched.size());
    int taken[3] = {0, 0, 0};
    for (size_t i = 0; i < sched.size(); ++i) {
        serve::Response resp = futures[i].get();
        if (resp.ok) {
            ++r.ok;
            lat_ms[i] = late_ms[i] + resp.latency_us / 1e3;
            if (taken[sched[i].kind] < gate_samples_per_kind) {
                ++taken[sched[i].kind];
                r.samples.push_back({sched[i].req, std::move(resp)});
            }
        } else {
            // A failed request counts as infinitely late.
            lat_ms[i] = std::numeric_limits<double>::infinity();
            if (resp.reject == serve::RejectReason::kExpired)
                ++r.expired;
            else
                ++r.rejected;
        }
    }
    r.span_s =
        static_cast<double>(sched.back().at_ns - sched.front().at_ns) / 1e9;
    r.offered_rps = static_cast<double>(sched.size()) / r.span_s;
    const auto p50 = percentile(lat_ms, 0.50);
    const auto p99 = percentile(lat_ms, 0.99);
    const auto late50 = percentile(late_ms, 0.50);
    const auto late99 = percentile(late_ms, 0.99);
    r.p50_ms = p50.value_or(0.0);
    r.p99_ms = p99.value_or(0.0);
    r.gen_late_p50_ms = late50.value_or(0.0);
    r.gen_late_p99_ms = late99.value_or(0.0);
    r.valid = p99 && late50 && *late50 <= kMaxGenLateMs &&
              r.backlog_end - r.backlog_start <= kMaxBacklogGrowth;
    return r;
}

std::string
windowJson(const WindowResult &w)
{
    std::ostringstream o;
    o << "{\"offered_rps\": " << w.offered_rps << ", \"sent\": " << w.sent
      << ", \"ok\": " << w.ok << ", \"rejected\": " << w.rejected
      << ", \"expired\": " << w.expired << ", \"p50_ms\": " << w.p50_ms
      << ", \"p99_ms\": " << w.p99_ms
      << ", \"gen_late_p50_ms\": " << w.gen_late_p50_ms
      << ", \"gen_late_p99_ms\": " << w.gen_late_p99_ms
      << ", \"backlog_start\": " << w.backlog_start
      << ", \"backlog_end\": " << w.backlog_end
      << ", \"valid\": " << (w.valid ? "true" : "false") << "}";
    return o.str();
}

/** One fixed rate: its first valid window, if any. */
struct RateResult
{
    double rps = 0.0;
    bool valid = false;
    WindowResult window;
    std::string json;
};

/** Measure @p rps until a window is valid or kFixedRateWindows ran. */
RateResult
measureRate(serve::Server &server, const TrafficMix &mix, double rps,
            int gate_samples_per_kind, Rng &rng, Report &report)
{
    RateResult r;
    r.rps = rps;
    std::ostringstream js;
    js << "{\"rps\": " << rps << ", \"windows\": [";
    for (int w = 0; w < kFixedRateWindows && !r.valid; ++w) {
        WindowResult win = runWindow(
            server, makeSchedule(mix, rps, kWindowRequests, rng),
            gate_samples_per_kind);
        report.attempted += static_cast<int64_t>(win.sent);
        report.failed += win.rejected + win.expired;
        js << (w ? ", " : "") << windowJson(win);
        r.valid = win.valid;
        r.window = std::move(win);
    }
    js << "]}";
    r.json = js.str();
    return r;
}

/**
 * The rate the server sustains: a closed loop sends a new request as
 * soon as one of the kInFlight outstanding ones completes, for
 * kSustainedWindowS seconds; the rate is the requests completed over
 * that time.  Median over kSustainedWindows windows.
 */
double
measureSustainedRate(serve::Server &server, const TrafficMix &mix, Rng &rng,
                     Report &report)
{
    std::vector<double> rates;
    std::ostringstream js;
    js << "[";
    for (int w = 0; w < kSustainedWindows; ++w) {
        int64_t sent = 0, done = 0, failed = 0;
        const auto send = [&] {
            ++sent;
            return server.submit(makeRequest(pickKind(mix, rng), rng));
        };
        std::vector<std::future<serve::Response>> inflight;
        const Clock::time_point t0 = Clock::now();
        const Clock::time_point end =
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(kSustainedWindowS));
        for (int64_t i = 0; i < kInFlight; ++i)
            inflight.push_back(send());
        // Poll rather than block: a thread blocked on a future is woken
        // by the server once per completion, work the server would do
        // for the benchmark rather than for its requests.
        while (Clock::now() < end) {
            for (auto &f : inflight) {
                if (f.wait_for(std::chrono::seconds(0)) !=
                    std::future_status::ready)
                    continue;
                (f.get().ok ? done : failed) += 1;
                f = send();
            }
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        const double secs = msBetween(t0, Clock::now()) / 1e3;
        for (auto &f : inflight)
            failed += f.get().ok ? 0 : 1;
        report.attempted += sent;
        report.failed += failed;
        rates.push_back(static_cast<double>(done) / secs);
        js << (w ? ", " : "") << "{\"sent\": " << sent << ", \"failed\": "
           << failed << ", \"rps\": " << rates.back() << "}";
    }
    js << "]";
    report.note("serve_sustained", js.str());
    return medianOf(std::move(rates));
}

struct Loaded
{
    std::unique_ptr<serve::Server> server;
    double load_ms = 0.0;
};

Loaded
loadServer(const std::vector<std::string> &ckpts)
{
    Loaded l;
    const Clock::time_point t0 = Clock::now();
    std::vector<std::unique_ptr<serve::InferenceSession>> sessions;
    for (const std::string &c : ckpts)
        sessions.push_back(
            serve::InferenceSession::fromCheckpoint(c, sessionConfig()));
    l.load_ms = msBetween(t0, Clock::now());
    l.server =
        std::make_unique<serve::Server>(std::move(sessions), serverConfig());
    return l;
}

/** The request kinds @p mix sends. */
std::vector<Kind>
kindsOf(const TrafficMix &mix)
{
    std::vector<Kind> k;
    if (mix.lm_topk > 0.0)
        k.push_back(kLmTopk);
    if (mix.nmt_greedy > 0.0)
        k.push_back(kNmtGreedy);
    if (mix.nmt_beam > 0.0)
        k.push_back(kNmtBeam);
    return k;
}

/** Send @p reqs at once and wait; returns how many failed. */
int64_t
sendAndWait(serve::Server &server, const std::vector<serve::Request> &reqs)
{
    std::vector<std::future<serve::Response>> fs;
    for (const serve::Request &r : reqs)
        fs.push_back(server.submit(r));
    int64_t failed = 0;
    for (auto &f : fs)
        failed += f.get().ok ? 0 : 1;
    return failed;
}

} // namespace

ServeOutcome
runServePhase(const WorkloadSpec &spec, const RunOptions &opts,
              Report &report)
{
    ServeOutcome out;
    Rng rng(opts.seed * 104729 + 3);

    // Checkpoints of fixed weights, independent of the seed and of
    // the training phase: a decode's length (greedy stops at EOS)
    // depends on the weights, so serving work per request would
    // otherwise change from run to run.  The seed varies the traffic.
    if (spec.mix.lm_topk > 0.0) {
        models::WordLmModel m(wordLmPreset(), "none");
        Rng init(kServeWeightsSeed);
        out.checkpoints.push_back(opts.workdir + "/serve_word_lm.ckpt");
        models::saveParams(m.initialParams(init), out.checkpoints.back());
    }
    if (spec.mix.nmt_greedy + spec.mix.nmt_beam > 0.0) {
        models::NmtModel m(nmtPreset(), "none");
        Rng init(kServeWeightsSeed);
        out.checkpoints.push_back(opts.workdir + "/serve_nmt.ckpt");
        models::saveParams(m.initialParams(init), out.checkpoints.back());
    }

    // Set-up: session loads, server start and the first request of each
    // kind (cold step graphs), repeated; the last server is measured.
    const std::vector<Kind> kinds = kindsOf(spec.mix);
    std::vector<double> setups, loads;
    Loaded live;
    for (int r = 0; r < kSetupRepeats; ++r) {
        live = Loaded{};
        const bool traced = opts.trace && r == 0;
        if (traced)
            obs::startTrace();
        const Clock::time_point t0 = Clock::now();
        live = loadServer(out.checkpoints);
        std::vector<serve::Request> first;
        for (Kind k : kinds)
            first.push_back(makeRequest(k, rng));
        report.failed += sendAndWait(*live.server, first);
        report.attempted += static_cast<int64_t>(first.size());
        setups.push_back(msBetween(t0, Clock::now()) / 1e3);
        loads.push_back(live.load_ms);
        if (traced) {
            obs::stopTrace();
            report.layer("pass.gemm_warm_ms",
                         spanTotalMs(foldSpans(obs::snapshotEvents()), "pass",
                                     "pass.gemm_warm"),
                         "ms");
        }
    }
    out.setup_s = medianOf(setups);
    serve::Server &server = *live.server;

    // Warm-up at the high rate, not reported: every step graph gets
    // built and the allocator reaches its steady state.
    const WindowResult warm = runWindow(
        server, makeSchedule(spec.mix, spec.high_rps, kWarmupRequests, rng),
        0);
    report.attempted += static_cast<int64_t>(warm.sent);
    report.failed += warm.rejected + warm.expired;

    RateResult low = measureRate(server, spec.mix, spec.low_rps,
                                 kGateSamplesPerKind, rng, report);
    const RateResult high =
        measureRate(server, spec.mix, spec.high_rps, 0, rng, report);
    for (const RateResult *r : {&std::as_const(low), &high})
        if (!r->valid)
            report.fail("no valid window at " + std::to_string(r->rps) +
                        " req/s (generator behind its schedule or backlog "
                        "growing)");
    report.note("serve_fixed_rates", "[" + low.json + ", " + high.json + "]");
    out.samples = std::move(low.window.samples);
    // Scheduler statistics of the fixed rates only.
    const serve::ServerStats st = server.stats();

    report.e2e("serve.max_rate_rps",
               measureSustainedRate(server, spec.mix, rng, report), "req/s");

    if (opts.trace) {
        // Latency at fixed rates moves by tens of percent between runs
        // on a shared VM, more than any bound a regression gate could
        // use, so it is reported here rather than gated end to end.
        report.layer("serve.lat_ms.p50.low", low.window.p50_ms, "ms");
        report.layer("serve.lat_ms.p99.low", low.window.p99_ms, "ms");
        report.layer("serve.lat_ms.p50.high", high.window.p50_ms, "ms");
        report.layer("serve.lat_ms.p99.high", high.window.p99_ms, "ms");
        report.layer("serve.load_ms", medianOf(loads), "ms");
        report.layer("serve.wait_ms.p50", st.wait_p50_us / 1e3, "ms");
        report.layer("serve.wait_ms.p99", st.wait_p99_us / 1e3, "ms");
        report.layer("serve.mean_batch", st.mean_batch_requests, "count");
        report.layer("serve.splices", static_cast<double>(st.splices),
                     "count");
        report.layer("serve.gen_late_ms.p99", high.window.gen_late_p99_ms,
                     "ms");
        report.layer("serve.backlog_end",
                     static_cast<double>(high.window.backlog_end), "count");

        // Session step time, from a short traced window at the low rate.
        obs::startTrace();
        const WindowResult traced = runWindow(
            server,
            makeSchedule(spec.mix, spec.low_rps, kTracedRequests, rng),
            0);
        obs::stopTrace();
        report.attempted += static_cast<int64_t>(traced.sent);
        report.failed += traced.rejected + traced.expired;
        std::vector<double> step_ms;
        for (const SpanRecord &s : foldSpans(obs::snapshotEvents()))
            if (s.cat == "serve" && (s.name == "lm_step" || s.name == "nmt_step"))
                step_ms.push_back(static_cast<double>(s.end_ns - s.begin_ns) /
                                  1e6);
        report.layer("serve.step_ms", medianOf(step_ms), "ms");
    }
    server.stop();
    return out;
}

void
checkServeGate(const ServeOutcome &served, Report &report)
{
    std::vector<std::unique_ptr<serve::InferenceSession>> sessions;
    for (const std::string &c : served.checkpoints)
        sessions.push_back(
            serve::InferenceSession::fromCheckpoint(c, sessionConfig()));
    if (served.samples.empty())
        report.fail("no serving samples to check");
    for (const ServedSample &s : served.samples) {
        serve::InferenceSession *session = nullptr;
        for (auto &ss : sessions)
            if (s.request.model == ss->kind())
                session = ss.get();
        const serve::Response ref = session->runDirect(s.request);
        const bool same =
            ref.ok && ref.tokens == s.response.tokens &&
            ref.scores.size() == s.response.scores.size() &&
            std::memcmp(ref.scores.data(), s.response.scores.data(),
                        ref.scores.size() * sizeof(float)) == 0;
        if (!same)
            report.fail("served payload differs from a direct decode (" +
                        s.request.model + " request of " +
                        std::to_string(s.request.tokens.size()) +
                        " tokens)");
    }
}

} // namespace perfbench
