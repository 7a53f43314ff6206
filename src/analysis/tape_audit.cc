#include "analysis/tape_audit.h"

#include <algorithm>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "graph/tape.h"
#include "memory/planner.h"
#include "obs/memory_timeline.h"

namespace echo::analysis {

namespace {

/** One currently-live arena interval during the record replay. */
struct LiveSlot
{
    int64_t end = 0;
    const graph::Node *node = nullptr;
    int sched_pos = -1;
};

} // namespace

AnalysisReport
auditTape(const graph::Tape &tape)
{
    AnalysisReport report;
    const memory::MemoryPlan &plan = tape.plan();

    // (a) The arena must BE the plan: sized to its peak exactly.  A
    // mismatch means Tape::compile lost the plan-becomes-allocator
    // property the whole design rests on.
    if (tape.arenaBytes() != plan.pool_peak_bytes) {
        report.add(Check::kPlanStale, Severity::kError,
                   "tape arena is " + std::to_string(tape.arenaBytes()) +
                       " bytes but the plan's pool peak is " +
                       std::to_string(plan.pool_peak_bytes) + " bytes");
    }

    // (b) Re-plan the tape's own liveness analysis with the footprint
    // timeline recorded, and integrate the timeline's address trace —
    // two independent derivations of the same peak.
    obs::MemoryTimeline timeline;
    memory::PlannerOptions popts;
    popts.timeline = &timeline;
    const memory::MemoryPlan fresh =
        memory::planMemory(tape.liveness(), popts);
    if (fresh.pool_peak_bytes != plan.pool_peak_bytes) {
        report.add(Check::kPlanStale, Severity::kError,
                   "re-planning the tape's liveness gives pool peak " +
                       std::to_string(fresh.pool_peak_bytes) +
                       " bytes, but the tape was compiled against " +
                       std::to_string(plan.pool_peak_bytes) + " bytes");
    }
    const obs::TimelineReplay replay = obs::replayTimeline(timeline);
    if (!replay.ok() ||
        replay.address_peak_bytes != tape.arenaBytes()) {
        report.add(Check::kPlanStale, Severity::kError,
                   "timeline replay disagrees with the tape arena: "
                   "address peak " +
                       std::to_string(replay.address_peak_bytes) +
                       " bytes vs arena " +
                       std::to_string(tape.arenaBytes()) + " bytes (" +
                       std::to_string(replay.violations.size()) +
                       " violation(s))");
    }

    // Planned allocation per dense value id, for the slot checks.
    std::unordered_map<int, memory::Allocation> expect;
    expect.reserve(plan.offsets.size());
    for (const auto &[val, alloc] : plan.offsets) {
        const int id = tape.valueId(val);
        if (id >= 0)
            expect.emplace(id, alloc);
    }

    // Liveness of every transient, by dense value id: its one legal
    // free point is the record at last_use_pos.
    std::map<int, const memory::ValueInfo *> transients;
    for (const memory::ValueInfo &vi : tape.liveness().values) {
        const int id = tape.valueId(vi.val);
        if (!vi.persistent && id >= 0)
            transients.emplace(id, &vi);
    }
    std::unordered_set<int> freed;

    // (c) + (d): walk the records in schedule order.  Outputs go live
    // before the record's free list retires values — the same
    // alloc-before-free convention the planner uses at a shared
    // schedule position (see analysis/lifetime.cc checkPlan).
    std::map<int64_t, LiveSlot> active;          // keyed by begin offset
    std::unordered_map<int, int64_t> live_begin; // value id -> begin
    int64_t high_water = 0;

    const std::vector<graph::Tape::OutSlot> &slots = tape.outSlots();
    const std::vector<int> &releases = tape.releaseValues();
    for (const graph::Tape::Record &r : tape.records()) {
        for (int j = 0; j < r.out_count; ++j) {
            const graph::Tape::OutSlot &os = slots[size_t(r.out_begin + j)];
            if (os.persistent)
                continue;
            const auto it = expect.find(os.value);
            if (it == expect.end()) {
                report.add(Check::kPlanMissing, Severity::kError,
                           "transient tape output has no planned "
                           "allocation",
                           {NodeRef::of(r.node, r.sched_pos)});
                continue;
            }
            if (it->second.offset != os.offset ||
                it->second.bytes < os.bytes) {
                report.add(Check::kTapeSlotMismatch, Severity::kError,
                           "tape slot [" + std::to_string(os.offset) +
                               ", +" + std::to_string(os.bytes) +
                               ") disagrees with the plan's [" +
                               std::to_string(it->second.offset) + ", +" +
                               std::to_string(it->second.bytes) + ")",
                           {NodeRef::of(r.node, r.sched_pos)});
                continue;
            }
            if (os.offset < 0 ||
                os.offset + os.bytes > tape.arenaBytes()) {
                report.add(Check::kTapeSlotMismatch, Severity::kError,
                           "tape slot [" + std::to_string(os.offset) +
                               ", +" + std::to_string(os.bytes) +
                               ") falls outside the " +
                               std::to_string(tape.arenaBytes()) +
                               "-byte arena",
                           {NodeRef::of(r.node, r.sched_pos)});
                continue;
            }
            // Replay with the PLANNED extent (alignment padding
            // included) — that is what the planner guarantees
            // disjoint, and what its peak is measured over.
            const int64_t begin = it->second.offset;
            const int64_t end = it->second.offset + it->second.bytes;
            const auto overlap = [&](const LiveSlot &holder) {
                report.add(Check::kPlanOverlap, Severity::kError,
                           "tape bytes [" + std::to_string(begin) + ", " +
                               std::to_string(end) +
                               ") overlap a live slot",
                           {NodeRef::of(holder.node, holder.sched_pos),
                            NodeRef::of(r.node, r.sched_pos)});
            };
            auto next = active.lower_bound(begin);
            bool clashed = false;
            if (next != active.begin()) {
                const auto prev = std::prev(next);
                if (prev->second.end > begin) {
                    overlap(prev->second);
                    clashed = true;
                }
            }
            if (!clashed && next != active.end() && next->first < end) {
                overlap(next->second);
                clashed = true;
            }
            if (clashed)
                continue;
            active[begin] = LiveSlot{end, r.node, r.sched_pos};
            live_begin[os.value] = begin;
            high_water = std::max(high_water, end);
        }
        for (int j = 0; j < r.release_count; ++j) {
            const int id = releases[size_t(r.release_begin + j)];
            const NodeRef here = NodeRef::of(r.node, r.sched_pos);
            const auto it = transients.find(id);
            if (it == transients.end()) {
                report.add(Check::kTapeSlotMismatch, Severity::kError,
                           "tape frees a value that is not a planned "
                           "transient",
                           {here});
                continue;
            }
            const memory::ValueInfo &vi = *it->second;
            const NodeRef producer = NodeRef::of(vi.val.node, vi.def_pos);
            if (!freed.insert(id).second) {
                report.add(Check::kDoubleFree, Severity::kError,
                           "tape frees a transient twice", {producer, here});
                continue;
            }
            if (r.sched_pos < vi.last_use_pos) {
                report.add(Check::kUseAfterFree, Severity::kError,
                           "tape frees a transient at slot " +
                               std::to_string(r.sched_pos) +
                               ", before its last use at slot " +
                               std::to_string(vi.last_use_pos),
                           {producer, here});
            } else if (r.sched_pos > vi.last_use_pos) {
                report.add(Check::kLeakedSlot, Severity::kError,
                           "tape frees a transient at slot " +
                               std::to_string(r.sched_pos) +
                               ", after its last use at slot " +
                               std::to_string(vi.last_use_pos),
                           {producer, here});
            }
            const auto lb = live_begin.find(id);
            if (lb != live_begin.end()) {
                active.erase(lb->second);
                live_begin.erase(lb);
            }
        }
    }

    // Every transient must be freed; a survivor would pin arena bytes
    // the planner hands to a later value.
    for (const auto &[id, vi] : transients) {
        if (freed.count(id) == 0) {
            report.add(Check::kLeakedSlot, Severity::kError,
                       "transient tape value is never freed (last use "
                       "at slot " +
                           std::to_string(vi->last_use_pos) + ")",
                       {NodeRef::of(vi->val.node, vi->def_pos)});
        }
    }

    // The replay's high-water mark must reach the plan's peak: the
    // planner's peak IS the pool's address high-water mark, so falling
    // short means slots and plan have drifted apart.
    if (report.ok() && high_water != plan.pool_peak_bytes) {
        report.add(Check::kPlanStale, Severity::kError,
                   "record replay reaches a high-water mark of " +
                       std::to_string(high_water) +
                       " bytes, but the plan's pool peak is " +
                       std::to_string(plan.pool_peak_bytes) + " bytes");
    }
    return report;
}

} // namespace echo::analysis
