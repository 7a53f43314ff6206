#include "graph/tape.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "core/logging.h"
#include "obs/counters.h"
#include "obs/trace.h"

namespace echo::graph {

namespace {

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

/** Same per-op counters the interpreter ticks, so mode comparisons in
 *  tooling line up record-for-record. */
void
countOp(const Node *node)
{
    static obs::Counter &c_ops = obs::counter("exec.ops");
    static obs::Counter &c_replays = obs::counter("exec.replays");
    c_ops.add(1);
    if (node->phase == Phase::kRecompute)
        c_replays.add(1);
}

int64_t
alignUp(int64_t x, int64_t alignment)
{
    return (x + alignment - 1) / alignment * alignment;
}

} // namespace

Tape::Tape(std::vector<Val> fetches) : fetches_(std::move(fetches))
{
    live_ = memory::analyzeLiveness(fetches_);
    plan_ = memory::planMemory(live_);
    compile();
}

void
Tape::compile()
{
    const int64_t alignment = memory::PlannerOptions{}.alignment;
    const std::vector<Node *> &schedule = live_.schedule;
    const size_t n = schedule.size();

    // Dense value ids, in schedule order.
    int next_id = 0;
    for (Node *node : schedule)
        for (int i = 0; i < node->numOutputs(); ++i)
            value_id_[Val{node, i}] = next_id++;
    values_.resize(static_cast<size_t>(next_id));

    auto id_of = [&](const Val &v) {
        auto it = value_id_.find(v);
        ECHO_CHECK(it != value_id_.end(),
                   "tape: value of node #", v.node->id,
                   " missing from its own schedule");
        return it->second;
    };
    auto info_of = [&](const Val &v) -> const memory::ValueInfo & {
        auto it = live_.index.find(v);
        ECHO_CHECK(it != live_.index.end(),
                   "tape: value of node #", v.node->id,
                   " missing from liveness");
        return live_.values[it->second];
    };

    // Feed nodes keep schedule order; their values are bound, not run.
    std::vector<int> record_of_pos(n, -1);
    for (size_t pos = 0; pos < n; ++pos) {
        Node *node = schedule[pos];
        if (node->kind == NodeKind::kOp) {
            record_of_pos[pos] = static_cast<int>(records_.size());
            Record r;
            r.node = node;
            r.sched_pos = static_cast<int>(pos);
            records_.push_back(r);
        } else {
            feed_index_[node] = static_cast<int>(feed_nodes_.size());
            feed_nodes_.push_back(node);
            feed_value_ids_.push_back(id_of(Val{node, 0}));
        }
    }

    // Inputs, and output placements: transients at their planner
    // offsets, persistent op outputs bump-allocated in the
    // double-buffered region.  Each transient joins the free list of
    // the record at its liveness last use.
    int64_t persist_cursor = 0;
    std::vector<std::vector<int>> frees(records_.size());
    for (Record &r : records_) {
        Node *node = const_cast<Node *>(r.node);
        r.in_begin = static_cast<int>(input_values_.size());
        r.in_count = static_cast<int>(node->inputs.size());
        for (const Val &v : node->inputs)
            input_values_.push_back(id_of(v));

        r.out_begin = static_cast<int>(out_slots_.size());
        r.out_count = node->numOutputs();
        for (int i = 0; i < node->numOutputs(); ++i) {
            const Val v = node->out(i);
            const memory::ValueInfo &vi = info_of(v);
            OutSlot os;
            os.value = id_of(v);
            os.bytes = vi.bytes;
            if (vi.persistent) {
                os.persistent = true;
                os.offset = persist_cursor;
                persist_cursor += alignUp(vi.bytes, alignment);
            } else {
                auto it = plan_.offsets.find(v);
                ECHO_CHECK(it != plan_.offsets.end(),
                           "tape: transient value of node #", node->id,
                           " missing from the memory plan");
                os.offset = it->second.offset;
                ECHO_CHECK(os.offset + vi.bytes <= plan_.pool_peak_bytes,
                           "tape: planned slot of node #", node->id,
                           " exceeds the pool peak");
                const int last =
                    record_of_pos[static_cast<size_t>(vi.last_use_pos)];
                ECHO_CHECK(last >= 0, "tape: last use of node #",
                           node->id, " is not an op record");
                frees[static_cast<size_t>(last)].push_back(os.value);
            }
            out_slots_.push_back(os);
        }
    }
    for (size_t ri = 0; ri < records_.size(); ++ri) {
        records_[ri].release_begin =
            static_cast<int>(release_values_.size());
        records_[ri].release_count = static_cast<int>(frees[ri].size());
        release_values_.insert(release_values_.end(), frees[ri].begin(),
                               frees[ri].end());
    }

    // Fetches (may be feed values as well as op outputs).
    fetch_value_ids_.reserve(fetches_.size());
    for (const Val &v : fetches_)
        fetch_value_ids_.push_back(id_of(v));

    // The arena IS the plan: exactly pool_peak_bytes, not a byte more.
    arena_ = memory::Arena(plan_.pool_peak_bytes, alignment);
    persist_half_ = persist_cursor;
    persist_ = memory::Arena(2 * persist_half_, alignment);

    // Preallocate every piece of run-time bookkeeping.
    size_t max_in = 0, max_out = 0;
    int64_t max_fixup_elems = 0;
    for (const Record &r : records_) {
        max_in = std::max(max_in, static_cast<size_t>(r.in_count));
        max_out = std::max(max_out, static_cast<size_t>(r.out_count));
        int64_t elems = 0;
        for (int i = 0; i < r.out_count; ++i)
            elems += (out_slots_[static_cast<size_t>(r.out_begin + i)]
                          .bytes +
                      static_cast<int64_t>(sizeof(float)) - 1) /
                     static_cast<int64_t>(sizeof(float));
        max_fixup_elems = std::max(max_fixup_elems, elems);
    }
    in_scratch_.reserve(max_in);
    out_scratch_.reserve(max_out);
    slot_scratch_.resize(max_out);
    fixup_scratch_.resize(static_cast<size_t>(max_fixup_elems));

    static obs::Counter &c_compiles = obs::counter("tape.compiles");
    c_compiles.add(1);
}

int
Tape::feedIndex(const Node *n) const
{
    auto it = feed_index_.find(n);
    return it == feed_index_.end() ? -1 : it->second;
}

void
Tape::bindFeed(int idx, const Tensor &t)
{
    ECHO_REQUIRE(idx >= 0 &&
                     idx < static_cast<int>(feed_nodes_.size()),
                 "tape feed index ", idx, " out of range");
    const Node *n = feed_nodes_[static_cast<size_t>(idx)];
    ECHO_REQUIRE(t.shape() == n->out_shapes[0], "feed for ", n->name,
                 " has shape ", t.shape().toString(), ", expected ",
                 n->out_shapes[0].toString());
    values_[static_cast<size_t>(
        feed_value_ids_[static_cast<size_t>(idx)])] = t;
}

void
Tape::bindFeeds(const FeedDict &feed)
{
    static obs::Counter &c_lookups =
        obs::counter("exec.feed_lookups");
    for (size_t i = 0; i < feed_nodes_.size(); ++i) {
        const Node *n = feed_nodes_[i];
        c_lookups.add(1);
        auto it = feed.find(n);
        ECHO_REQUIRE(it != feed.end(), "no feed for ",
                     (n->kind == NodeKind::kWeight ? "weight "
                                                   : "placeholder "),
                     n->name);
        bindFeed(static_cast<int>(i), it->second);
    }
}

void
Tape::checkFeedsBound() const
{
    for (size_t i = 0; i < feed_nodes_.size(); ++i)
        ECHO_REQUIRE(
            values_[static_cast<size_t>(feed_value_ids_[i])].defined(),
            "tape run with unbound ",
            (feed_nodes_[i]->kind == NodeKind::kWeight ? "weight "
                                                       : "placeholder "),
            feed_nodes_[i]->name);
}

float *
Tape::slotPtr(const OutSlot &slot, int64_t parity) const
{
    if (!slot.persistent)
        return arena_.at(slot.offset);
    return persist_.at(slot.offset + (parity ? persist_half_ : 0));
}

void
Tape::executeRecord(const Record &r, int64_t parity)
{
    const Node *node = r.node;
    obs::Span span;
    if (obs::traceEnabled())
        span.begin("tape", node->op->name(),
                   {{"node", node->id},
                    {"slot", static_cast<int64_t>(r.sched_pos)},
                    {"phase", phaseName(node->phase)}});
    countOp(node);

    std::vector<Tensor> &in = in_scratch_;
    in.clear();
    for (int i = 0; i < r.in_count; ++i) {
        const Tensor &t = values_[static_cast<size_t>(
            input_values_[static_cast<size_t>(r.in_begin + i)])];
        ECHO_CHECK(t.defined(), "tape: input of node #", node->id,
                   " freed too early");
        in.push_back(t);
    }

    std::vector<Tensor> &out = out_scratch_;
    out.clear();
    out.resize(static_cast<size_t>(r.out_count));
    AllocSlot *slots = slot_scratch_.data();
    for (int j = 0; j < r.out_count; ++j) {
        const OutSlot &os =
            out_slots_[static_cast<size_t>(r.out_begin + j)];
        slots[j].ptr = slotPtr(os, parity);
        slots[j].bytes = os.bytes;
        slots[j].owner =
            os.persistent ? &persist_.owner() : &arena_.owner();
        slots[j].claimed = false;
    }
    {
        AllocHookScope scope(slots, r.out_count);
        node->op->forward(in, out);
    }
    for (int j = 0; j < r.out_count; ++j) {
        ECHO_CHECK(out[static_cast<size_t>(j)].defined() &&
                       out[static_cast<size_t>(j)].shape() ==
                           node->out_shapes[static_cast<size_t>(j)],
                   "op ", node->op->name(), " produced output ", j,
                   " with wrong shape");
    }
    fixupOutputs(r, parity);
    for (int j = 0; j < r.out_count; ++j)
        values_[static_cast<size_t>(
            out_slots_[static_cast<size_t>(r.out_begin + j)].value)] =
            std::move(out[static_cast<size_t>(j)]);
}

void
Tape::fixupOutputs(const Record &r, int64_t parity)
{
    // An output landed somewhere other than its planned slot when the
    // op returned a view of an input (reshape), or a temporary claimed
    // the slot first.  Heap results are safe to leave (nothing reuses
    // them); results aliasing pooled memory MUST move — the planner
    // will hand that block to a later value (transients), or the next
    // run's parity flip will overwrite it (persistents).  Misplaced
    // outputs of one record can sit in each other's slots, so they are
    // staged through the fixup scratch before placement.
    std::vector<Tensor> &out = out_scratch_;
    AllocSlot *slots = slot_scratch_.data();
    int misplaced = 0;
    for (int j = 0; j < r.out_count; ++j) {
        const OutSlot &os =
            out_slots_[static_cast<size_t>(r.out_begin + j)];
        const float *p = out[static_cast<size_t>(j)].data();
        const bool needs_copy =
            p != slotPtr(os, parity) &&
            (arena_.contains(p) ||
             (os.persistent && persist_.contains(p)));
        // The hook no longer needs `claimed`; reuse it as the per-slot
        // misplacement mark.
        slots[j].claimed = needs_copy;
        misplaced += needs_copy;
    }
    if (misplaced == 0)
        return;

    static obs::Counter &c_fixups =
        obs::counter("tape.fixup_copies", obs::CounterKind::kScheduling);
    int64_t cursor = 0;
    for (int j = 0; j < r.out_count; ++j) {
        if (!slots[j].claimed)
            continue;
        const Tensor &t = out[static_cast<size_t>(j)];
        std::memcpy(fixup_scratch_.data() + cursor, t.data(),
                    static_cast<size_t>(t.numel()) * sizeof(float));
        cursor += t.numel();
    }
    cursor = 0;
    for (int j = 0; j < r.out_count; ++j) {
        if (!slots[j].claimed)
            continue;
        const OutSlot &os =
            out_slots_[static_cast<size_t>(r.out_begin + j)];
        Tensor &t = out[static_cast<size_t>(j)];
        float *expected = slotPtr(os, parity);
        std::memcpy(expected, fixup_scratch_.data() + cursor,
                    static_cast<size_t>(t.numel()) * sizeof(float));
        cursor += t.numel();
        t = Tensor::fromExternal(t.shape(), expected,
                                 os.persistent ? persist_.owner()
                                               : arena_.owner());
        c_fixups.add(1);
    }
}

void
Tape::releaseAfter(const Record &r)
{
    for (int i = 0; i < r.release_count; ++i)
        values_[static_cast<size_t>(
            release_values_[static_cast<size_t>(r.release_begin + i)])] =
            Tensor();
}

std::vector<Tensor>
Tape::run()
{
    std::vector<Tensor> out;
    runInto(out);
    return out;
}

void
Tape::runInto(std::vector<Tensor> &out)
{
    checkFeedsBound();
    static obs::Counter &c_runs = obs::counter("tape.runs");
    c_runs.add(1);
    obs::Span span;
    if (obs::traceEnabled())
        span.begin("tape", "run.serial",
                   {{"records", static_cast<int64_t>(records_.size())}});

    const int64_t parity = run_count_ & 1;
    for (const Record &r : records_) {
        executeRecord(r, parity);
        releaseAfter(r);
    }
    ++run_count_;

    out.clear();
    for (size_t i = 0; i < fetch_value_ids_.size(); ++i) {
        const Tensor &t =
            values_[static_cast<size_t>(fetch_value_ids_[i])];
        ECHO_CHECK(t.defined(), "tape: fetch value missing");
        out.push_back(t);
    }
}

int
Tape::valueId(const Val &v) const
{
    auto it = value_id_.find(v);
    return it == value_id_.end() ? -1 : it->second;
}

} // namespace echo::graph
