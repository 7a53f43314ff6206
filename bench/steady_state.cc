/**
 * @file
 * Steady-state execution contract: interpreter vs compiled tape on a
 * repeated training iteration, with a global allocation counter.
 *
 * Checks, for the word-LM and NMT training graphs:
 *
 *  - heap allocations per steady-state iteration for both engines —
 *    counted by overriding global operator new/delete — where the
 *    tape must perform none;
 *  - the tape arena equals the planner's pool peak exactly;
 *  - byte-identity of tape fetches vs the interpreter at 1/2/4
 *    threads.
 *
 * Exits nonzero if the tape performs ANY heap allocation in steady
 * state, or if any fetch differs from the interpreter by a single
 * bit.  Mirrors everything to results/BENCH_steady_state.json.
 * It times nothing: one-sample wall-clock ratios of the two engines
 * did not reproduce from run to run.
 */
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <new>
#include <vector>

#include "analysis/numeric_verify.h"
#include "bench_common.h"
#include "core/thread_pool.h"
#include "data/batcher.h"
#include "graph/executor.h"
#include "graph/tape.h"
#include "models/nmt.h"
#include "models/word_lm.h"

// ---------------------------------------------------------------------
// Global allocation counter (armed only around the timed loops).
// ---------------------------------------------------------------------

namespace {
std::atomic<long long> g_alloc_count{0};
std::atomic<bool> g_alloc_armed{false};

void *
countedAlloc(std::size_t n)
{
    if (g_alloc_armed.load(std::memory_order_relaxed)) {
        g_alloc_count.fetch_add(1, std::memory_order_relaxed);
#ifdef ECHO_ALLOC_TRACE
        void *frames[12];
        int depth = backtrace(frames, 12);
        backtrace_symbols_fd(frames + 2, depth - 2, 2);
        write(2, "----\n", 5);
#endif
    }
    void *p = std::malloc(n ? n : 1);
    if (!p)
        throw std::bad_alloc();
    return p;
}
} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

using namespace echo;

namespace {

/** Allocation count across @p fn (this thread plus any pool thread). */
template <typename Fn>
long long
countAllocs(Fn &&fn)
{
    g_alloc_count.store(0);
    g_alloc_armed.store(true);
    fn();
    g_alloc_armed.store(false);
    return g_alloc_count.load();
}

struct Workload
{
    const char *name;
    std::vector<graph::Val> fetches;
    graph::FeedDict feed;
};

bool
byteIdenticalAcrossThreads(const Workload &w)
{
    graph::Executor ex(w.fetches, graph::ExecMode::kSerial);
    graph::Tape tape(w.fetches);
    bool ok = tape.arenaBytes() == tape.plan().pool_peak_bytes;
    if (!ok)
        bench::note("FAIL: arena bytes != planner pool peak");
    for (const int threads : {1, 2, 4}) {
        ThreadPool::setGlobalNumThreads(threads);
        const std::vector<Tensor> ref = ex.run(w.feed);
        tape.bindFeeds(w.feed);
        const std::vector<Tensor> out = tape.run();
        const analysis::VerifyResult vr =
            analysis::compareFetches(out, ref);
        if (!vr.shapes_match || vr.max_abs_diff != 0.0) {
            bench::note(std::string("FAIL: ") + w.name +
                        " differs from the interpreter at threads=" +
                        std::to_string(threads));
            ok = false;
        }
    }
    ThreadPool::setGlobalNumThreads(ThreadPool::defaultNumThreads());
    return ok;
}

} // namespace

int
main()
{
    bench::begin("Steady-state execution: interpreter vs compiled tape",
                 "One training iteration repeated; the tape replays "
                 "planner-addressed records from an arena with zero "
                 "steady-state allocations.");

    models::WordLmConfig lm_cfg;
    lm_cfg.vocab = 2000;
    lm_cfg.hidden = 200;
    lm_cfg.layers = 2;
    lm_cfg.batch = 16;
    lm_cfg.seq_len = 20;
    models::WordLmModel lm(lm_cfg);
    Rng lm_rng(7);
    models::ParamStore lm_params = lm.initialParams(lm_rng);
    data::CorpusConfig cc;
    cc.vocab = data::Vocab{lm_cfg.vocab};
    cc.num_tokens = 20000;
    cc.seed = 3;
    data::Corpus corpus = data::Corpus::generate(cc);
    data::LmBatcher lm_batcher(corpus, lm_cfg.batch, lm_cfg.seq_len);
    // A model's fetches are its loss followed by every weight grad.
    Workload lm_work{"word-lm-train", lm.fetches(),
                     lm.makeFeed(lm_params, lm_batcher.next())};

    models::NmtConfig nmt_cfg;
    nmt_cfg.src_vocab = 800;
    nmt_cfg.tgt_vocab = 800;
    nmt_cfg.hidden = 64;
    nmt_cfg.enc_layers = 1;
    nmt_cfg.batch = 8;
    nmt_cfg.src_len = 12;
    nmt_cfg.tgt_len = 12;
    models::NmtModel nmt(nmt_cfg);
    Rng nmt_rng(5);
    models::ParamStore nmt_params = nmt.initialParams(nmt_rng);
    data::ParallelCorpusConfig pcc;
    pcc.src_vocab = data::Vocab{nmt_cfg.src_vocab};
    pcc.tgt_vocab = data::Vocab{nmt_cfg.tgt_vocab};
    pcc.num_pairs = 256;
    pcc.min_len = 6;
    pcc.max_len = 12;
    pcc.seed = 11;
    data::ParallelCorpus pc = data::ParallelCorpus::generate(pcc);
    data::NmtBatcher nmt_batcher(pc, nmt_cfg.batch, nmt_cfg.src_len,
                                 nmt_cfg.tgt_len);
    Workload nmt_work{"nmt-train", nmt.fetches(),
                      nmt.makeFeed(nmt_params, nmt_batcher.next())};

    int exit_code = 0;
    Table table({"workload", "path", "allocs/iter", "arena B"});
    std::ofstream json;
    std::error_code ec;
    std::filesystem::create_directories("results", ec);
    json.open("results/BENCH_steady_state.json");
    json << "{\n  \"workloads\": [\n";

    bool first_json = true;
    for (Workload *w : {&lm_work, &nmt_work}) {
        ThreadPool::setGlobalNumThreads(1);

        graph::Executor ex(w->fetches, graph::ExecMode::kSerial);
        (void)ex.run(w->feed); // warm: packs built, caches primed
        const long long map_allocs =
            countAllocs([&] { (void)ex.run(w->feed); });

        graph::Tape tape(w->fetches);
        tape.bindFeeds(w->feed);
        std::vector<Tensor> out;
        tape.runInto(out); // warm: arena claimed, scratch sized
        tape.runInto(out); // both parity halves touched
        const long long tape_allocs =
            countAllocs([&] { tape.runInto(out); });

        table.addRow({w->name, "interpreter", std::to_string(map_allocs),
                      "-"});
        table.addRow({w->name, "tape", std::to_string(tape_allocs),
                      std::to_string(tape.arenaBytes())});

        if (tape_allocs != 0) {
            bench::note(std::string("FAIL: ") + w->name +
                        " tape performed " + std::to_string(tape_allocs) +
                        " heap allocation(s) in steady state (want 0)");
            exit_code = 1;
        }
        const bool identical = byteIdenticalAcrossThreads(*w);
        if (!identical)
            exit_code = 1;

        if (!first_json)
            json << ",\n";
        first_json = false;
        json << "    {\"workload\": \"" << w->name
             << "\", \"map_allocs_per_iter\": " << map_allocs
             << ", \"tape_allocs_per_iter\": " << tape_allocs
             << ", \"tape_arena_bytes\": " << tape.arenaBytes()
             << ", \"pool_peak_bytes\": " << tape.plan().pool_peak_bytes
             << ", \"byte_identical_1_2_4_threads\": "
             << (identical ? "true" : "false") << "}";
    }
    json << "\n  ]\n}\n";
    json.close();

    bench::emit(table, "steady_state");
    bench::note("tape steady state must allocate nothing: the arena "
                "serves every transient at its planned offset and "
                "feeds re-bind by index.");
    if (exit_code != 0)
        bench::note("STEADY-STATE CONTRACT VIOLATED (see FAIL lines)");
    return exit_code;
}
