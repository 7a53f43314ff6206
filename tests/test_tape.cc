/**
 * @file
 * Tests for the steady-state execution tape (graph/tape.h) and the
 * persistent packed-weight cache (tensor/pack_cache.h):
 *
 *  - tape runs are byte-identical to the interpreter on the word-LM
 *    and NMT training presets at 1/2/4 threads;
 *  - the tape arena equals the planner's pool peak EXACTLY and
 *    analysis::auditTape replays the records clean;
 *  - index-bound feeds perform zero hash lookups per run, and the
 *    arena serves steady-state outputs without heap fallbacks;
 *  - the pack cache hits 100% after the first iteration, drops packs
 *    on version bumps, and never serves stale panels when a dead
 *    tensor's heap address is reused by a new one;
 *  - PackScratch's shrink policy bounds retained capacity without
 *    thrashing on alternating shapes.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "analysis/numeric_verify.h"
#include "analysis/tape_audit.h"
#include "core/thread_pool.h"
#include "data/batcher.h"
#include "graph/executor.h"
#include "graph/ops/oplib.h"
#include "graph/tape.h"
#include "models/nmt.h"
#include "models/word_lm.h"
#include "obs/counters.h"
#include "tensor/pack_cache.h"
#include "tensor/pack_scratch.h"

namespace echo::graph {
namespace {

namespace ol = oplib;

models::WordLmConfig
tinyLmConfig()
{
    models::WordLmConfig cfg;
    cfg.vocab = 50;
    cfg.hidden = 8;
    cfg.layers = 2;
    cfg.batch = 4;
    cfg.seq_len = 6;
    return cfg;
}

data::Corpus
tinyCorpus()
{
    data::CorpusConfig cfg;
    cfg.vocab = data::Vocab{50};
    cfg.num_tokens = 2000;
    cfg.seed = 3;
    return data::Corpus::generate(cfg);
}

models::NmtConfig
tinyNmtConfig()
{
    models::NmtConfig cfg;
    cfg.src_vocab = 40;
    cfg.tgt_vocab = 45;
    cfg.hidden = 8;
    cfg.enc_layers = 1;
    cfg.batch = 3;
    cfg.src_len = 7;
    cfg.tgt_len = 7;
    return cfg;
}

data::ParallelCorpus
tinyParallelCorpus()
{
    data::ParallelCorpusConfig cfg;
    cfg.src_vocab = data::Vocab{40};
    cfg.tgt_vocab = data::Vocab{45};
    cfg.num_pairs = 64;
    cfg.min_len = 3;
    cfg.max_len = 6;
    cfg.seed = 11;
    return data::ParallelCorpus::generate(cfg);
}

/** Interpreter reference vs tape, bit for bit. */
void
expectTapeMatchesInterpreter(const std::vector<Val> &fetches,
                             const FeedDict &feed, const char *what)
{
    Executor ex(fetches, ExecMode::kSerial);
    Tape tape(fetches);
    EXPECT_EQ(tape.arenaBytes(), tape.plan().pool_peak_bytes) << what;

    for (const int threads : {1, 2, 4}) {
        ThreadPool::setGlobalNumThreads(threads);
        const std::vector<Tensor> ref = ex.run(feed);
        tape.bindFeeds(feed);
        const std::vector<Tensor> out = tape.run();
        const analysis::VerifyResult vr =
            analysis::compareFetches(out, ref);
        EXPECT_TRUE(vr.shapes_match) << what << " threads=" << threads;
        EXPECT_EQ(vr.max_abs_diff, 0.0) << what << " threads=" << threads;
    }
    ThreadPool::setGlobalNumThreads(ThreadPool::defaultNumThreads());
}

TEST(TapeWordLm, ByteIdenticalToInterpreterAtEveryThreadCount)
{
    models::WordLmModel model(tinyLmConfig());
    Rng rng(7);
    models::ParamStore params = model.initialParams(rng);
    data::Corpus corpus = tinyCorpus();
    data::LmBatcher batcher(corpus, 4, 6);
    expectTapeMatchesInterpreter(model.fetches(),
                                 model.makeFeed(params, batcher.next()),
                                 "word-lm");
}

TEST(TapeNmt, ByteIdenticalToInterpreterAtEveryThreadCount)
{
    models::NmtModel model(tinyNmtConfig());
    Rng rng(5);
    models::ParamStore params = model.initialParams(rng);
    data::ParallelCorpus pc = tinyParallelCorpus();
    data::NmtBatcher batcher(pc, 3, 7, 7);
    expectTapeMatchesInterpreter(model.fetches(),
                                 model.makeFeed(params, batcher.next()),
                                 "nmt");
}

TEST(TapeWordLm, ArenaEqualsPlannerPeakAndAuditsClean)
{
    models::WordLmModel model(tinyLmConfig());
    // Audit the tape the executor runs under ECHO_TAPE=on.
    const Executor ex(model.fetches());
    const Tape &tape = ex.compile();
    // The plan IS the allocator: sized to the peak, byte for byte.
    EXPECT_EQ(tape.arenaBytes(), tape.plan().pool_peak_bytes);
    EXPECT_GT(tape.arenaBytes(), 0);
    const analysis::AnalysisReport report = analysis::auditTape(tape);
    EXPECT_TRUE(report.ok()) << report.toString();
}

TEST(TapeNmt, AuditReplaysRecordsClean)
{
    models::NmtModel model(tinyNmtConfig());
    const Executor ex(model.fetches());
    const Tape &tape = ex.compile();
    EXPECT_EQ(tape.arenaBytes(), tape.plan().pool_peak_bytes);
    const analysis::AnalysisReport report = analysis::auditTape(tape);
    EXPECT_TRUE(report.ok()) << report.toString();
}

TEST(TapeFeeds, IndexBoundBindingSkipsHashLookups)
{
    models::WordLmModel model(tinyLmConfig());
    Rng rng(3);
    models::ParamStore params = model.initialParams(rng);
    data::Corpus corpus = tinyCorpus();
    data::LmBatcher batcher(corpus, 4, 6);
    const FeedDict feed = model.makeFeed(params, batcher.next());

    ThreadPool::setGlobalNumThreads(1);
    Tape tape(model.fetches());

    // Setup: resolve each feed node's index once (this may hash).
    std::vector<std::pair<int, const Tensor *>> bound;
    for (const Node *n : tape.feedNodes()) {
        const auto it = feed.find(n);
        ASSERT_NE(it, feed.end());
        const int idx = tape.feedIndex(n);
        ASSERT_GE(idx, 0);
        bound.emplace_back(idx, &it->second);
    }

    // Reference run through the hashing path.
    tape.bindFeeds(feed);
    const std::vector<Tensor> ref = tape.run();
    std::vector<Tensor> ref_copy;
    for (const Tensor &t : ref)
        ref_copy.push_back(t.clone());

    // Steady state: bind by index, run, and assert the feed-lookup
    // counter never moved — zero hash lookups per iteration.
    const int64_t lookups_before =
        obs::counter("exec.feed_lookups").value();
    std::vector<Tensor> out;
    for (int iter = 0; iter < 3; ++iter) {
        for (const auto &[idx, t] : bound)
            tape.bindFeed(idx, *t);
        tape.runInto(out);
        const analysis::VerifyResult vr =
            analysis::compareFetches(out, ref_copy);
        EXPECT_TRUE(vr.shapes_match) << "iter " << iter;
        EXPECT_EQ(vr.max_abs_diff, 0.0) << "iter " << iter;
    }
    EXPECT_EQ(obs::counter("exec.feed_lookups").value(), lookups_before);
    ThreadPool::setGlobalNumThreads(ThreadPool::defaultNumThreads());
}

TEST(TapeSteadyState, ArenaServesAllTransientsOnSimpleGraphs)
{
    // Element-wise chain + GEMM: every op allocates exactly its
    // planned output, so the arena must serve every request — the
    // heap-fallback counter stays flat across steady-state runs.
    Graph g;
    const Val x = g.placeholder(Shape({4, 8}), "x");
    const Val w = g.weight(Shape({8, 8}), "w");
    const Val h = g.apply1(ol::gemm(false, false), {x, w});
    const Val t = g.apply1(ol::tanhOp(), {h});
    const Val y = g.apply1(ol::mul(), {t, t});

    Rng rng(9);
    FeedDict feed;
    feed[x.node] = Tensor::uniform(Shape({4, 8}), rng, -1.0f, 1.0f);
    feed[w.node] = Tensor::uniform(Shape({8, 8}), rng, -1.0f, 1.0f);

    ThreadPool::setGlobalNumThreads(1);
    Tape tape({y});
    tape.bindFeeds(feed);
    std::vector<Tensor> out;
    tape.runInto(out); // warm
    const int64_t misses_before =
        obs::counter("tape.arena_miss", obs::CounterKind::kScheduling)
            .value();
    for (int iter = 0; iter < 4; ++iter)
        tape.runInto(out);
    EXPECT_EQ(obs::counter("tape.arena_miss",
                           obs::CounterKind::kScheduling)
                  .value(),
              misses_before);
    ThreadPool::setGlobalNumThreads(ThreadPool::defaultNumThreads());
}

// ---------------------------------------------------------------------
// Persistent packed-weight cache
// ---------------------------------------------------------------------

TEST(PackCache, SecondLookupHitsAndVersionBumpInvalidates)
{
    ops::clearPackCacheForTest();
    const int64_t k = 8, n = 16;
    Tensor b(Shape({k, n}));
    std::fill(b.data(), b.data() + b.numel(), 3.0f);
    ops::registerPackableTensor(b);
    const ops::GemmSchedule sch = ops::GemmSchedule::fixedDefault();

    ops::PackCacheStats s0 = ops::packCacheStats();
    ops::CachedPackHold hold;
    const ops::CachedPack p1 =
        ops::lookupPackedB(b, false, k, n, sch, hold);
    ASSERT_TRUE(p1);
    EXPECT_EQ(p1.data[p1.offsets[0]], 3.0f);
    ops::PackCacheStats s1 = ops::packCacheStats();
    EXPECT_EQ(s1.misses, s0.misses + 1);

    // Steady state: same operand, same schedule -> pure hits.
    for (int i = 0; i < 3; ++i) {
        ops::CachedPackHold h2;
        EXPECT_TRUE(ops::lookupPackedB(b, false, k, n, sch, h2));
    }
    ops::PackCacheStats s2 = ops::packCacheStats();
    EXPECT_EQ(s2.misses, s1.misses);
    EXPECT_EQ(s2.hits, s1.hits + 3);

    // In-place update + version bump: old packs dropped, the next
    // lookup rebuilds from the new contents.
    std::fill(b.data(), b.data() + b.numel(), 7.0f);
    ops::bumpTensorVersion(b);
    ops::PackCacheStats s3 = ops::packCacheStats();
    EXPECT_GT(s3.invalidations, s2.invalidations);
    ops::CachedPackHold h3;
    const ops::CachedPack p2 =
        ops::lookupPackedB(b, false, k, n, sch, h3);
    ASSERT_TRUE(p2);
    EXPECT_EQ(p2.data[p2.offsets[0]], 7.0f);
    ops::clearPackCacheForTest();
}

TEST(PackCache, AddressReuseAfterFreeNeverServesStalePanels)
{
    // The dead-store scenario: register a tensor, cache its pack, let
    // the tensor die, then register a NEW tensor (which frequently
    // lands on the same heap address).  The cache must rebuild from
    // the new bytes — never serve the dead tensor's panels.
    ops::clearPackCacheForTest();
    const int64_t k = 8, n = 16;
    const ops::GemmSchedule sch = ops::GemmSchedule::fixedDefault();
    {
        Tensor dead(Shape({k, n}));
        std::fill(dead.data(), dead.data() + dead.numel(), 1.0f);
        ops::registerPackableTensor(dead);
        ops::CachedPackHold hold;
        ASSERT_TRUE(ops::lookupPackedB(dead, false, k, n, sch, hold));
    }
    Tensor fresh(Shape({k, n}));
    std::fill(fresh.data(), fresh.data() + fresh.numel(), 2.0f);
    ops::registerPackableTensor(fresh);
    ops::CachedPackHold hold;
    const ops::CachedPack p =
        ops::lookupPackedB(fresh, false, k, n, sch, hold);
    ASSERT_TRUE(p);
    EXPECT_EQ(p.data[p.offsets[0]], 2.0f);
    ops::clearPackCacheForTest();
}

TEST(PackCache, SteadyStateTrainingIterationHitsEveryPack)
{
    // After the first (warm) iteration every weight pack must be
    // served from the cache: zero further misses.
    ops::clearPackCacheForTest();
    models::WordLmModel model(tinyLmConfig());
    Rng rng(17);
    models::ParamStore params = model.initialParams(rng);
    data::Corpus corpus = tinyCorpus();
    data::LmBatcher batcher(corpus, 4, 6);
    const FeedDict feed = model.makeFeed(params, batcher.next());

    ThreadPool::setGlobalNumThreads(1);
    Executor ex(model.fetches(), ExecMode::kSerial);
    (void)ex.run(feed); // warm: builds every pack once
    const ops::PackCacheStats warm = ops::packCacheStats();
    (void)ex.run(feed);
    (void)ex.run(feed);
    const ops::PackCacheStats steady = ops::packCacheStats();
    EXPECT_EQ(steady.misses, warm.misses);
    EXPECT_GT(steady.hits, warm.hits);
    ThreadPool::setGlobalNumThreads(ThreadPool::defaultNumThreads());
    ops::clearPackCacheForTest();
}

// ---------------------------------------------------------------------
// PackScratch shrink policy
// ---------------------------------------------------------------------

TEST(PackScratch, ShrinksAfterSustainedOversizedStreak)
{
    ops::PackScratch s;
    ASSERT_NE(s.acquire(1 << 16), nullptr);
    EXPECT_GE(s.capacityElems(), size_t(1) << 16);
    // A sustained run of small acquires (oversized by > kShrinkFactor)
    // must release the high-water buffer.
    for (int i = 0; i < ops::PackScratch::kShrinkStreak; ++i)
        ASSERT_NE(s.acquire(64), nullptr);
    EXPECT_LT(s.capacityElems(), (size_t(1) << 16) /
                                     ops::PackScratch::kShrinkFactor);
}

TEST(PackScratch, AlternatingShapesDoNotThrash)
{
    ops::PackScratch s;
    ASSERT_NE(s.acquire(1 << 14), nullptr);
    const size_t big_cap = s.capacityElems();
    // Alternating small/large requests keep resetting the oversized
    // streak, so the big buffer is retained (no realloc churn).
    for (int i = 0; i < 4 * ops::PackScratch::kShrinkStreak; ++i) {
        ASSERT_NE(s.acquire(16), nullptr);
        ASSERT_NE(s.acquire(1 << 14), nullptr);
    }
    EXPECT_EQ(s.capacityElems(), big_cap);
}

TEST(PackScratch, PeriodicBurstSettlesAtHighWater)
{
    // A training iteration's pack pattern: a long run of small packs,
    // then a burst the streak window cannot see (the smalls outnumber
    // the streak requirement).  A fixed streak shrinks and regrows
    // every period; the adaptive backoff must instead settle at the
    // burst size after a bounded number of wasted cycles.
    ops::PackScratch s;
    auto period = [&s] {
        for (int i = 0; i < 2 * ops::PackScratch::kShrinkStreak; ++i)
            ASSERT_NE(s.acquire(64), nullptr);
        ASSERT_NE(s.acquire(1 << 15), nullptr);
    };
    // Let the policy learn (each premature shrink doubles the window;
    // log2(kShrinkStreakMax / kShrinkStreak) cycles suffice).
    for (int cycle = 0; cycle < 12; ++cycle)
        period();
    // Steady state: capacity pinned at the burst size, no reallocs.
    const size_t settled = s.capacityElems();
    EXPECT_GE(settled, size_t(1) << 15);
    for (int cycle = 0; cycle < 4; ++cycle) {
        period();
        EXPECT_EQ(s.capacityElems(), settled);
    }
}

} // namespace
} // namespace echo::graph
