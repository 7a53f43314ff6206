/**
 * @file
 * Numeric executor: runs a graph's schedule on CPU tensors.
 *
 * Used by the training loops, the examples, and every numerical test.
 * Timing and memory are NOT measured here — they come from the
 * analytical GPU model (src/gpusim) and the memory planner (src/memory)
 * walking the same schedule.
 *
 * The executor has two execution strategies over the same schedule:
 *
 *  - serial: nodes run one after another in schedule order;
 *  - parallel: a ready queue dispatches every node whose producers have
 *    completed to the global ThreadPool, so independent nodes (e.g. the
 *    per-gate GEMMs of an LSTM cell, or forward nodes of different time
 *    steps that recomputation made independent) overlap.
 *
 * Both strategies free intermediate buffers as soon as the last
 * consumer of a node has run, and both produce byte-identical results:
 * ops are pure functions of their input tensors, every node's output is
 * written by exactly one task, and no op mutates shared state, so the
 * dispatch order cannot change any computed value.
 *
 * Under ECHO_TAPE=on, run() instead replays the compiled execution
 * tape (graph/tape.h), which always walks the schedule serially from
 * a planner-addressed arena; the interpreter stays the reference
 * oracle it is tested against.
 */
#ifndef ECHO_GRAPH_EXECUTOR_H
#define ECHO_GRAPH_EXECUTOR_H

#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "graph/graph.h"
#include "graph/schedule.h"

namespace echo::graph {

class Tape;

/** Values fed into a run: one tensor per placeholder / weight node. */
using FeedDict = std::unordered_map<const Node *, Tensor>;

/** How the interpreter walks the schedule (the tape is always
 *  serial). */
enum class ExecMode
{
    /** Strict schedule order on the calling thread. */
    kSerial,
    /** Ready-queue dispatch onto the global ThreadPool. */
    kParallel,
    /**
     * kParallel when it can help (pool has >1 thread, the schedule is
     * big enough to amortize dispatch, and the caller is not itself a
     * pool worker), kSerial otherwise.
     */
    kAuto,
};

/** Executes a fixed set of fetches over a prebuilt schedule. */
class Executor
{
  public:
    /** Prepare to repeatedly fetch @p fetches. */
    explicit Executor(std::vector<Val> fetches,
                      ExecMode mode = ExecMode::kAuto);

    ~Executor();

    /**
     * Run the schedule.  @p feed must contain a tensor for every
     * placeholder and weight in the fetched subgraph.  Intermediate
     * tensors are freed as soon as their last consumer has run.
     *
     * Thread-safe: all per-run state is local, so concurrent run()
     * calls on one Executor are fine.  Under ECHO_TAPE=on runs route
     * through the compiled tape (graph/tape.h), which ignores the
     * ExecMode and whose mutable arena state is serialized by an
     * internal mutex — still thread-safe, but concurrent runs no
     * longer overlap.
     */
    std::vector<Tensor> run(const FeedDict &feed) const;

    /**
     * The steady-state execution tape for this fetch set, compiled on
     * first use and cached (see graph/tape.h).  Callers that bind
     * feeds by index and call Tape::run directly must serialize their
     * own access; Executor::run's tape route does so internally.
     */
    Tape &compile() const;

    /** The schedule this executor runs (for inspection/tests). */
    const std::vector<Node *> &schedule() const { return schedule_; }

    /** The fetch set this executor was built for. */
    const std::vector<Val> &fetches() const { return fetches_; }

    /** The configured execution mode. */
    ExecMode mode() const { return mode_; }

  private:
    std::vector<Tensor> runSerial(const FeedDict &feed) const;
    std::vector<Tensor> runParallel(const FeedDict &feed) const;

    /** Resolve kAuto against the pool and calling context. */
    bool useParallel() const;

    /** Feed lookup + shape check for a placeholder/weight node. */
    const Tensor &feedValue(const FeedDict &feed, const Node *n) const;

    std::vector<Val> fetches_;
    std::vector<Node *> schedule_;
    ExecMode mode_;

    // Dense per-run topology, indexed by schedule position ("slot").
    // Built once here so run() touches only flat vectors — no hash
    // lookups or per-run map copies on the hot path.
    /** Remaining-use counts per slot (consumers + fetch references). */
    std::vector<int> use_counts_;
    /** Input-edge count per slot (parallel-mode ready condition). */
    std::vector<int> in_degree_;
    /** Consumer slots per slot, one entry per input edge. */
    std::vector<std::vector<int>> consumers_;
    /** Producer slot of each input, aligned with node->inputs. */
    std::vector<std::vector<int>> input_slots_;
    /** Slot of each fetch, aligned with fetches_. */
    std::vector<int> fetch_slots_;

    /** Lazily compiled steady-state tape (and its run serializer). */
    mutable std::unique_ptr<Tape> tape_;
    mutable std::mutex tape_mu_;
};

} // namespace echo::graph

#endif // ECHO_GRAPH_EXECUTOR_H
