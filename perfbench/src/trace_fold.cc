/**
 * @file
 * Folding a collected trace into the per-layer table.
 *
 * Self time follows one rule everywhere: a span's duration minus the
 * part its child spans on the same thread cover.  Thread-pool spans
 * ("pool" category: parallel-for chunks and worker tasks) are the
 * parent's own work split across threads, so they are never
 * subtracted.  Op and phase times are summed over threads, so under
 * parallel dispatch they can exceed the run's wall time; dispatch time
 * is the part of the run's wall interval that no op span covers.
 */
#include <algorithm>
#include <cstring>
#include <unordered_map>

#include "bench.h"

namespace perfbench {

namespace {

bool
isGraphCat(const std::string &cat)
{
    return cat == "exec" || cat == "tape";
}

bool
isRunSpan(const SpanRecord &s)
{
    return isGraphCat(s.cat) && s.name.rfind("run.", 0) == 0;
}

int
opKindIndex(const std::string &op)
{
    if (op == "gemm" || op == "bmm")
        return 0;
    if (op == "fused_ew")
        return 1;
    if (op == "slice_grad")
        return 2;
    if (op == "add")
        return 3;
    if (op == "tanh" || op == "tanh_grad")
        return 4;
    if (op == "fused_recompute")
        return 5;
    return 6;
}

int
phaseIndex(const std::string &phase)
{
    for (int i = 0; i < 3; ++i)
        if (phase == kPhases[i])
            return i;
    return 0;
}

} // namespace

std::vector<SpanRecord>
foldSpans(const std::vector<echo::obs::TraceEvent> &events)
{
    struct Open
    {
        SpanRecord rec;
        int64_t child_ns = 0;
    };
    std::unordered_map<uint32_t, std::vector<Open>> stacks;
    std::vector<SpanRecord> out;
    for (const echo::obs::TraceEvent &ev : events) {
        if (ev.ph == 'B') {
            Open o;
            o.rec.cat = ev.cat;
            o.rec.name = ev.name;
            o.rec.begin_ns = ev.ts_ns;
            for (const echo::obs::Arg &a : ev.args)
                if (std::strcmp(a.key, "phase") == 0)
                    o.rec.phase = a.s;
            stacks[ev.tid].push_back(std::move(o));
        } else if (ev.ph == 'E') {
            std::vector<Open> &st = stacks[ev.tid];
            if (st.empty())
                continue; // span opened before the trace started
            Open o = std::move(st.back());
            st.pop_back();
            o.rec.end_ns = ev.ts_ns;
            const int64_t dur = o.rec.end_ns - o.rec.begin_ns;
            o.rec.self_ns = dur - o.child_ns;
            if (!st.empty() && o.rec.cat != "pool")
                st.back().child_ns += dur;
            out.push_back(std::move(o.rec));
        }
    }
    return out;
}

GraphFold
foldGraph(const std::vector<SpanRecord> &spans, int iterations)
{
    GraphFold f;
    if (iterations <= 0)
        return f;
    std::vector<std::pair<int64_t, int64_t>> ops; // [begin, end)
    std::vector<std::pair<int64_t, int64_t>> runs;
    for (const SpanRecord &s : spans) {
        if (!isGraphCat(s.cat))
            continue;
        if (isRunSpan(s)) {
            runs.emplace_back(s.begin_ns, s.end_ns);
            continue;
        }
        const double ms = static_cast<double>(s.self_ns) / 1e6;
        f.kind_ms[opKindIndex(s.name)] += ms;
        f.phase_ms[phaseIndex(s.phase)] += ms;
        ops.emplace_back(s.begin_ns, s.end_ns);
    }
    std::sort(ops.begin(), ops.end());
    double run_ms = 0.0, covered_ms = 0.0;
    for (const auto &[rb, re] : runs) {
        run_ms += static_cast<double>(re - rb) / 1e6;
        // Union of op intervals clipped to this run.
        auto it = std::lower_bound(ops.begin(), ops.end(),
                                   std::make_pair(rb, int64_t{0}));
        int64_t cur_b = -1, cur_e = -1;
        for (; it != ops.end() && it->first < re; ++it) {
            const int64_t b = std::max(it->first, rb);
            const int64_t e = std::min(it->second, re);
            if (e <= b)
                continue;
            if (b > cur_e) {
                if (cur_e > cur_b)
                    covered_ms += static_cast<double>(cur_e - cur_b) / 1e6;
                cur_b = b;
                cur_e = e;
            } else {
                cur_e = std::max(cur_e, e);
            }
        }
        if (cur_e > cur_b)
            covered_ms += static_cast<double>(cur_e - cur_b) / 1e6;
    }
    const double n = static_cast<double>(iterations);
    f.run_ms = run_ms / n;
    f.dispatch_ms = (run_ms - covered_ms) / n;
    for (double &v : f.kind_ms)
        v /= n;
    for (double &v : f.phase_ms)
        v /= n;
    return f;
}

double
spanTotalMs(const std::vector<SpanRecord> &spans, const char *cat,
            const std::string &name)
{
    double ms = 0.0;
    for (const SpanRecord &s : spans)
        if (s.cat == cat && (s.name == name || s.name.rfind(name + "(", 0) == 0))
            ms += static_cast<double>(s.end_ns - s.begin_ns) / 1e6;
    return ms;
}

} // namespace perfbench
