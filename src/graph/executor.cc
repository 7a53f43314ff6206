#include "graph/executor.h"

#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <mutex>
#include <string_view>

#include "core/logging.h"
#include "core/thread_pool.h"
#include "graph/gemm_keys.h"
#include "graph/tape.h"
#include "obs/counters.h"
#include "obs/trace.h"
#include "tune/tuner.h"

namespace echo::graph {

namespace {

/**
 * kAuto refuses to parallelize schedules below this size: the ready
 * queue costs one pool hand-off per node, which only pays off once
 * there are enough nodes for independent work to overlap.
 */
constexpr size_t kMinParallelNodes = 16;

/** Per-op-execution counters shared by both execution strategies. */
void
countOp(const Node *node)
{
    static obs::Counter &c_ops = obs::counter("exec.ops");
    static obs::Counter &c_replays = obs::counter("exec.replays");
    c_ops.add(1);
    if (node->phase == Phase::kRecompute)
        c_replays.add(1);
}

/** ECHO_TAPE=on|1 routes Executor::run through the compiled tape. */
bool
tapeEnvEnabled()
{
    static const bool on = [] {
        const char *e = std::getenv("ECHO_TAPE");
        if (!e)
            return false;
        const std::string_view v(e);
        return v == "on" || v == "1";
    }();
    return on;
}

const char *
phaseName(Phase p)
{
    switch (p) {
      case Phase::kForward:
        return "forward";
      case Phase::kBackward:
        return "backward";
      case Phase::kRecompute:
        return "recompute";
    }
    return "?";
}

} // namespace

Executor::Executor(std::vector<Val> fetches, ExecMode mode)
    : fetches_(std::move(fetches)), schedule_(buildSchedule(fetches_)),
      mode_(mode)
{
    const size_t n = schedule_.size();
    std::unordered_map<const Node *, int> slot_of;
    slot_of.reserve(n);
    for (size_t s = 0; s < n; ++s)
        slot_of[schedule_[s]] = static_cast<int>(s);

    use_counts_.assign(n, 0);
    in_degree_.assign(n, 0);
    consumers_.assign(n, {});
    input_slots_.assign(n, {});
    for (size_t s = 0; s < n; ++s) {
        const Node *node = schedule_[s];
        input_slots_[s].reserve(node->inputs.size());
        for (const Val &v : node->inputs) {
            auto it = slot_of.find(v.node);
            ECHO_CHECK(it != slot_of.end(), "input of node #", node->id,
                       " missing from its own schedule");
            const int producer = it->second;
            input_slots_[s].push_back(producer);
            ++use_counts_[static_cast<size_t>(producer)];
            consumers_[static_cast<size_t>(producer)].push_back(
                static_cast<int>(s));
            ++in_degree_[s];
        }
    }
    fetch_slots_.reserve(fetches_.size());
    for (const Val &v : fetches_) {
        auto it = slot_of.find(v.node);
        ECHO_CHECK(it != slot_of.end(), "fetch missing from schedule");
        fetch_slots_.push_back(it->second);
        ++use_counts_[static_cast<size_t>(it->second)];
    }

    // Shape-specialized GEMM tuning: wire the cache-backed schedule
    // registry (and, under ECHO_TUNE=search, the search-on-miss
    // resolver), then resolve this schedule's GEMM shape set eagerly so
    // searches run at construction time, not mid-iteration.
    if (ops::tuneMode() != ops::TuneMode::kOff) {
        tune::ensureGlobalTuner();
        if (ops::tuneMode() == ops::TuneMode::kSearch)
            tune::globalTuner().warmKeys(collectGemmKeys(
                schedule_, ThreadPool::global().numThreads()));
    }
}

Executor::~Executor() = default;

Tape &
Executor::compile() const
{
    std::lock_guard<std::mutex> lk(tape_mu_);
    if (!tape_)
        tape_ = std::make_unique<Tape>(fetches_);
    return *tape_;
}

const Tensor &
Executor::feedValue(const FeedDict &feed, const Node *n) const
{
    // The tape's index-bound feed path skips this hash entirely; the
    // counter makes the difference auditable (bench/steady_state).
    static obs::Counter &c_lookups = obs::counter("exec.feed_lookups");
    c_lookups.add(1);
    auto it = feed.find(n);
    ECHO_REQUIRE(it != feed.end(), "no feed for ",
                 (n->kind == NodeKind::kWeight ? "weight "
                                               : "placeholder "),
                 n->name);
    ECHO_REQUIRE(it->second.shape() == n->out_shapes[0], "feed for ",
                 n->name, " has shape ", it->second.shape().toString(),
                 ", expected ", n->out_shapes[0].toString());
    return it->second;
}

bool
Executor::useParallel() const
{
    // A run on a pool worker (e.g. an executor inside a parallelFor
    // body) must never block that worker waiting on queue hand-offs
    // the remaining workers may not exist to pick up, so worker-thread
    // callers always fall back to serial — even under kParallel.
    switch (mode_) {
      case ExecMode::kSerial:
        return false;
      case ExecMode::kParallel:
        return !ThreadPool::onWorkerThread();
      case ExecMode::kAuto:
        break;
    }
    if (schedule_.size() < kMinParallelNodes)
        return false;
    if (ThreadPool::onWorkerThread())
        return false;
    return ThreadPool::global().numThreads() > 1;
}

std::vector<Tensor>
Executor::run(const FeedDict &feed) const
{
    static obs::Counter &c_runs = obs::counter("exec.runs");
    c_runs.add(1);
    if (tapeEnvEnabled()) {
        // Hold the lock across bind + run: the tape's arena and value
        // table are mutable per-run state shared by all callers.
        std::lock_guard<std::mutex> lk(tape_mu_);
        if (!tape_)
            tape_ = std::make_unique<Tape>(fetches_);
        tape_->bindFeeds(feed);
        return tape_->run();
    }
    const bool parallel = useParallel();
    obs::Span span;
    if (obs::traceEnabled())
        span.begin("exec", parallel ? "run.parallel" : "run.serial",
                   {{"nodes", static_cast<int64_t>(schedule_.size())}});
    return parallel ? runParallel(feed) : runSerial(feed);
}

std::vector<Tensor>
Executor::runSerial(const FeedDict &feed) const
{
    const size_t n = schedule_.size();
    // Per-slot output tensors, plus the number of uses still pending so
    // buffers can be dropped as soon as they are dead.
    std::vector<std::vector<Tensor>> values(n);
    std::vector<int> remaining = use_counts_;

    auto release_use = [&](int slot) {
        int &uses = remaining[static_cast<size_t>(slot)];
        ECHO_CHECK(uses > 0, "use-count underflow on node #",
                   schedule_[static_cast<size_t>(slot)]->id);
        if (--uses == 0)
            values[static_cast<size_t>(slot)].clear();
    };

    for (size_t s = 0; s < n; ++s) {
        Node *node = schedule_[s];
        switch (node->kind) {
          case NodeKind::kPlaceholder:
          case NodeKind::kWeight:
            values[s] = {feedValue(feed, node)};
            break;
          case NodeKind::kOp: {
            obs::Span span;
            if (obs::traceEnabled())
                span.begin("exec", node->op->name(),
                           {{"node", node->id},
                            {"slot", static_cast<int64_t>(s)},
                            {"phase", phaseName(node->phase)}});
            countOp(node);
            std::vector<Tensor> inputs;
            inputs.reserve(node->inputs.size());
            for (size_t i = 0; i < node->inputs.size(); ++i) {
                const auto &slot_vals = values[static_cast<size_t>(
                    input_slots_[s][i])];
                ECHO_CHECK(!slot_vals.empty(), "input of node #",
                           node->id, " freed too early");
                inputs.push_back(slot_vals[static_cast<size_t>(
                    node->inputs[i].index)]);
            }
            std::vector<Tensor> outputs(
                static_cast<size_t>(node->numOutputs()));
            node->op->forward(inputs, outputs);
            for (int i = 0; i < node->numOutputs(); ++i) {
                ECHO_CHECK(
                    outputs[static_cast<size_t>(i)].defined() &&
                        outputs[static_cast<size_t>(i)].shape() ==
                            node->out_shapes[static_cast<size_t>(i)],
                    "op ", node->op->name(), " produced output ", i,
                    " with wrong shape");
            }
            values[s] = std::move(outputs);
            for (int input_slot : input_slots_[s])
                release_use(input_slot);
            break;
          }
        }
        // Nodes nothing consumes (and nobody fetches) can be dropped
        // immediately.
        if (remaining[s] == 0)
            values[s].clear();
    }

    std::vector<Tensor> out;
    out.reserve(fetches_.size());
    for (size_t i = 0; i < fetches_.size(); ++i) {
        const auto &slot_vals =
            values[static_cast<size_t>(fetch_slots_[i])];
        ECHO_CHECK(!slot_vals.empty(), "fetch value missing");
        out.push_back(
            slot_vals[static_cast<size_t>(fetches_[i].index)]);
    }
    return out;
}

std::vector<Tensor>
Executor::runParallel(const FeedDict &feed) const
{
    const size_t n = schedule_.size();

    // All mutable per-run state lives behind one mutex.  Node bodies
    // (op->forward) run outside the lock; only the gather / store /
    // bookkeeping steps around them hold it, so the lock is never held
    // across numeric work.
    struct RunState
    {
        std::mutex mu;
        std::condition_variable cv;
        std::vector<std::vector<Tensor>> values;
        std::vector<int> remaining;
        std::vector<int> pending_inputs;
        std::deque<int> ready;
        size_t completed = 0;
        size_t inflight = 0;
        std::exception_ptr error;
    };
    RunState st;
    st.values.resize(n);
    st.remaining = use_counts_;
    st.pending_inputs = in_degree_;
    for (size_t s = 0; s < n; ++s)
        if (in_degree_[s] == 0)
            st.ready.push_back(static_cast<int>(s));

    // Runs one node.  Tensor handles are shared_ptr-backed, so copying
    // them out under the lock keeps the data alive even if the
    // producer slot is freed while forward() executes.
    auto run_node = [&](int slot) {
        const size_t s = static_cast<size_t>(slot);
        Node *node = schedule_[s];
        std::vector<Tensor> outputs(
            static_cast<size_t>(node->numOutputs()));
        if (node->kind == NodeKind::kOp) {
            obs::Span span;
            if (obs::traceEnabled())
                span.begin("exec", node->op->name(),
                           {{"node", node->id},
                            {"slot", slot},
                            {"phase", phaseName(node->phase)}});
            countOp(node);
            std::vector<Tensor> inputs;
            inputs.reserve(node->inputs.size());
            {
                std::lock_guard<std::mutex> lk(st.mu);
                for (size_t i = 0; i < node->inputs.size(); ++i) {
                    const auto &slot_vals = st.values[static_cast<size_t>(
                        input_slots_[s][i])];
                    ECHO_CHECK(!slot_vals.empty(), "input of node #",
                               node->id, " freed too early");
                    inputs.push_back(slot_vals[static_cast<size_t>(
                        node->inputs[i].index)]);
                }
            }
            node->op->forward(inputs, outputs);
            for (int i = 0; i < node->numOutputs(); ++i) {
                ECHO_CHECK(
                    outputs[static_cast<size_t>(i)].defined() &&
                        outputs[static_cast<size_t>(i)].shape() ==
                            node->out_shapes[static_cast<size_t>(i)],
                    "op ", node->op->name(), " produced output ", i,
                    " with wrong shape");
            }
        } else {
            outputs = {feedValue(feed, node)};
        }

        std::lock_guard<std::mutex> lk(st.mu);
        st.values[s] = std::move(outputs);
        for (int input_slot : input_slots_[s]) {
            int &uses = st.remaining[static_cast<size_t>(input_slot)];
            ECHO_CHECK(uses > 0, "use-count underflow on node #",
                       schedule_[static_cast<size_t>(input_slot)]->id);
            if (--uses == 0)
                st.values[static_cast<size_t>(input_slot)].clear();
        }
        if (st.remaining[s] == 0)
            st.values[s].clear();
        for (int consumer : consumers_[s]) {
            if (--st.pending_inputs[static_cast<size_t>(consumer)] == 0)
                st.ready.push_back(consumer);
        }
        ++st.completed;
    };

    ThreadPool &pool = ThreadPool::global();
    std::vector<int> batch;
    std::unique_lock<std::mutex> lk(st.mu);
    for (;;) {
        st.cv.wait(lk, [&] {
            return !st.ready.empty() || st.inflight == 0;
        });
        if (st.error) {
            // Stop dispatching; wait for in-flight tasks (they
            // reference st) before propagating.
            st.ready.clear();
            if (st.inflight > 0)
                continue;
            std::exception_ptr error = st.error;
            lk.unlock();
            std::rethrow_exception(error);
        }
        if (st.ready.empty()) {
            ECHO_CHECK(st.completed == n,
                       "executor stalled with ", n - st.completed,
                       " nodes blocked (dependency cycle?)");
            break;
        }
        batch.assign(st.ready.begin(), st.ready.end());
        st.ready.clear();
        st.inflight += batch.size();
        lk.unlock();
        for (int slot : batch) {
            pool.submit([&st, &run_node, slot] {
                try {
                    run_node(slot);
                } catch (...) {
                    std::lock_guard<std::mutex> lk(st.mu);
                    if (!st.error)
                        st.error = std::current_exception();
                    ++st.completed;
                }
                // Notify while holding the mutex: the dispatcher
                // destroys RunState as soon as it observes
                // inflight == 0, so an unlocked notify could touch the
                // condition variable after its lifetime ends.
                std::lock_guard<std::mutex> lk(st.mu);
                --st.inflight;
                st.cv.notify_all();
            });
        }
        lk.lock();
    }
    lk.unlock();

    std::vector<Tensor> out;
    out.reserve(fetches_.size());
    for (size_t i = 0; i < fetches_.size(); ++i) {
        const auto &slot_vals =
            st.values[static_cast<size_t>(fetch_slots_[i])];
        ECHO_CHECK(!slot_vals.empty(), "fetch value missing");
        out.push_back(
            slot_vals[static_cast<size_t>(fetches_[i].index)]);
    }
    return out;
}

} // namespace echo::graph
