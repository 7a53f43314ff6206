/**
 * @file
 * The steady-state execution tape: the schedule lowered ONCE into a
 * flat array of dispatch records, with every intermediate buffer
 * placed at the memory planner's pool offset inside one arena.
 *
 * The interpreter loop in graph/executor.cc re-derives per run what
 * never changes between runs: it heap-allocates every intermediate,
 * hashes the feed map per placeholder, and counts down use counts.
 * Training and serving run the same schedule thousands of times —
 * steady-state repetition is exactly what persistent-kernel and
 * prepacked-BLAS work exploits — so the tape precomputes all of it:
 *
 *  - dispatch records in schedule order: node, flat input/output value
 *    ids, and a free list — the transients whose liveness last use is
 *    this record, each freed exactly once, right after it;
 *  - placements: transient values get their planner offset inside an
 *    arena of EXACTLY plan.pool_peak_bytes (the plan becomes the
 *    actual allocator — arenaBytes() == pool_peak_bytes, cross-checked
 *    against the obs timeline replay by analysis::auditTape);
 *    persistent op outputs (fetches, weight gradients) live in a
 *    separate double-buffered region;
 *  - feed binding by INDEX: bindFeed(feedIndex(node), t) writes the
 *    value slot directly, so a steady-state caller re-binds step
 *    inputs with zero hash lookups (bindFeeds(FeedDict) remains as
 *    the hashing convenience for compatibility paths).
 *
 * The tape runs its records serially, in schedule order: the planner
 * proves offset reuse safe in that order only, so the free lists and
 * the arena need no run-time bookkeeping.  Ops still parallelize
 * internally on the thread pool.
 *
 * Steady-state runs perform zero heap allocations: op outputs are
 * served from the arena via the thread-local allocation hook
 * (tensor/alloc_hook.h), fetch results are returned through a
 * caller-reused vector (runInto), and all run bookkeeping lives in
 * preallocated members (asserted by bench/steady_state).
 *
 * Placement is an optimization, never a correctness dependency:
 * downstream records read inputs through the stored Tensor handles,
 * so an output that could not be served from its slot (an op that
 * returns a view of its input, a temporary that claimed the slot
 * first) is either copied into place (when it aliases arena memory
 * whose block the planner will reuse — the reshape hazard) or left on
 * the heap (counted by `tape.arena_miss`).
 *
 * Fetch lifetime contract: tensors returned by run()/runInto() live
 * in the double-buffered persistent region and stay valid until the
 * END OF THE NEXT run (the parity flip) — long enough for the
 * standard pattern of feeding run N's fetched state back as run N+1's
 * inputs.  Callers that need longer must clone.
 */
#ifndef ECHO_GRAPH_TAPE_H
#define ECHO_GRAPH_TAPE_H

#include <unordered_map>
#include <vector>

#include "graph/executor.h"
#include "graph/graph.h"
#include "memory/arena.h"
#include "memory/liveness.h"
#include "memory/planner.h"
#include "tensor/alloc_hook.h"

namespace echo::graph {

/** A compiled, arena-backed steady-state runner for one fetch set. */
class Tape
{
  public:
    /** Compile @p fetches (analyzes liveness and plans memory here). */
    explicit Tape(std::vector<Val> fetches);

    // ------------------------------------------------------------------
    // Feed binding (persistent across runs)
    // ------------------------------------------------------------------

    /** Placeholder/weight nodes, in schedule order. */
    const std::vector<const Node *> &feedNodes() const
    {
        return feed_nodes_;
    }

    /** Index of @p n in feedNodes(), or -1 (one-time hash lookup —
     *  resolve indices at setup, bind by index per run). */
    int feedIndex(const Node *n) const;

    /** Bind the feed at @p idx.  Shape-checked; no hashing. */
    void bindFeed(int idx, const Tensor &t);

    /** Bind every feed from @p feed (hashes once per feed node). */
    void bindFeeds(const FeedDict &feed);

    // ------------------------------------------------------------------
    // Running
    // ------------------------------------------------------------------

    /** Run and return the fetch tensors (allocates the result vector;
     *  see runInto for the zero-allocation variant). */
    std::vector<Tensor> run();

    /** Run, refilling @p out (cleared first; capacity is reused, so a
     *  caller-retained vector makes steady state allocation-free). */
    void runInto(std::vector<Tensor> &out);

    // ------------------------------------------------------------------
    // Introspection (tests, audits, bench)
    // ------------------------------------------------------------------

    /** One lowered dispatch record (an op node of the schedule). */
    struct Record
    {
        const Node *node = nullptr;
        /** Inputs: [in_begin, in_begin+in_count) in input_values_. */
        int in_begin = 0, in_count = 0;
        /** Outputs: [out_begin, out_begin+out_count) in outSlots(). */
        int out_begin = 0, out_count = 0;
        /**
         * Free list (range into releaseValues()): the transients whose
         * liveness last use is this record — inputs read here for the
         * last time, and this record's own unused outputs.  Each
         * transient appears in exactly one record's list.
         */
        int release_begin = 0, release_count = 0;
        /** Position of the node in the analyzed schedule. */
        int sched_pos = 0;
    };

    /** One output's placement. */
    struct OutSlot
    {
        /** Dense value id (index into the tape's value table). */
        int value = -1;
        int64_t offset = 0;
        int64_t bytes = 0;
        /** Lives in the double-buffered persistent region. */
        bool persistent = false;
    };

    const std::vector<Record> &records() const { return records_; }
    const std::vector<OutSlot> &outSlots() const { return out_slots_; }
    const std::vector<int> &releaseValues() const
    {
        return release_values_;
    }

    /** Dense value id of @p v, or -1. */
    int valueId(const Val &v) const;

    /** Transient arena size — equals plan().pool_peak_bytes exactly. */
    int64_t arenaBytes() const { return arena_.bytes(); }

    /** Both halves of the persistent (fetch/grad) region. */
    int64_t persistentBytes() const { return persist_.bytes(); }

    const std::vector<Val> &fetches() const { return fetches_; }
    const memory::LivenessResult &liveness() const { return live_; }
    const memory::MemoryPlan &plan() const { return plan_; }

  private:
    void compile();
    void checkFeedsBound() const;

    /** The address of @p slot for the given parity. */
    float *slotPtr(const OutSlot &slot, int64_t parity) const;

    /** Execute one record into the run scratch. */
    void executeRecord(const Record &r, int64_t parity);

    /** Copy misplaced outputs into their planned slots (see file
     *  comment); safe under output-permutation via the fixup scratch. */
    void fixupOutputs(const Record &r, int64_t parity);

    /** Drop the values on @p r's free list. */
    void releaseAfter(const Record &r);

    std::vector<Val> fetches_;
    memory::LivenessResult live_;
    memory::MemoryPlan plan_;

    memory::Arena arena_;   ///< transients, == pool_peak_bytes
    memory::Arena persist_; ///< persistent op outputs, 2x half size
    int64_t persist_half_ = 0;

    std::vector<Record> records_;
    std::vector<OutSlot> out_slots_;
    std::vector<int> input_values_;
    std::vector<int> release_values_;

    /** The value table: one Tensor handle per node output. */
    std::vector<Tensor> values_;
    std::unordered_map<Val, int, ValHash> value_id_;

    std::vector<const Node *> feed_nodes_;
    std::vector<int> feed_value_ids_;
    std::unordered_map<const Node *, int> feed_index_;

    std::vector<int> fetch_value_ids_;

    /** Fixup staging (max total output bytes of any record). */
    std::vector<float> fixup_scratch_;

    // Run scratch (capacity retained across runs).
    std::vector<Tensor> in_scratch_, out_scratch_;
    std::vector<AllocSlot> slot_scratch_;

    /** Completed runs (the parity source). */
    int64_t run_count_ = 0;
};

} // namespace echo::graph

#endif // ECHO_GRAPH_TAPE_H
