/**
 * @file
 * Tests for the contract-checked pass manager: spec parsing and env
 * resolution, static pipeline-legality validation (including the
 * exact diagnostics for the canonical illegal orderings), postcondition
 * checking against a deliberately invariant-breaking pass, per-stage IR
 * snapshot diffs, and the byte-identity contract across every legal
 * pipeline permutation at 1/2/4 threads.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "core/thread_pool.h"
#include "data/batcher.h"
#include "analysis/numeric_verify.h"
#include "graph/executor.h"
#include "models/word_lm.h"
#include "pass/builtin_passes.h"
#include "pass/pass_manager.h"

namespace echo::pass {
namespace {

/** Set (or clear, with nullptr) an env var for one scope. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        if (const char *old = std::getenv(name)) {
            had_old_ = true;
            old_ = old;
        }
        if (value != nullptr)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }
    ~ScopedEnv()
    {
        if (had_old_)
            ::setenv(name_.c_str(), old_.c_str(), 1);
        else
            ::unsetenv(name_.c_str());
    }
    ScopedEnv(const ScopedEnv &) = delete;
    ScopedEnv &operator=(const ScopedEnv &) = delete;

  private:
    std::string name_;
    bool had_old_ = false;
    std::string old_;
};

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

// ---------------------------------------------------------------------
// Spec parsing and resolution
// ---------------------------------------------------------------------

TEST(PassSpec, ParseSplitsTrimsAndHandlesNone)
{
    EXPECT_EQ(parseSpec("autodiff,fusion"),
              (std::vector<std::string>{"autodiff", "fusion"}));
    EXPECT_EQ(parseSpec(" autodiff , fusion ,, recompute "),
              (std::vector<std::string>{"autodiff", "fusion",
                                        "recompute"}));
    EXPECT_TRUE(parseSpec("").empty());
    EXPECT_TRUE(parseSpec("none").empty());
    // "none" is only the empty pipeline when it is the whole spec.
    EXPECT_EQ(parseSpec("none,fusion"),
              (std::vector<std::string>{"none", "fusion"}));
}

TEST(PassSpec, DefaultsPerPipelineKind)
{
    EXPECT_EQ(defaultSpec(PipelineKind::kTraining), "autodiff,fusion");
    EXPECT_EQ(defaultSpec(PipelineKind::kInference), "fusion");
}

TEST(PassSpec, ExplicitRequestWinsOverEnv)
{
    ScopedEnv passes("ECHO_PASSES", "fusion");
    EXPECT_EQ(resolveSpec(PipelineKind::kTraining, "autodiff,recompute"),
              "autodiff,recompute");
}

TEST(PassSpec, EchoPassesEnvOverridesDefault)
{
    ScopedEnv passes("ECHO_PASSES", "autodiff,recompute");
    EXPECT_EQ(resolveSpec(PipelineKind::kTraining, ""),
              "autodiff,recompute");
}

TEST(PassSpec, RetiredAliasesLeaveDefaultSpec)
{
    // ECHO_FUSION and ECHO_VERIFY no longer rewrite the default spec;
    // ECHO_PASSES is the one pipeline switch.
    ScopedEnv passes("ECHO_PASSES", nullptr);
    ScopedEnv fus("ECHO_FUSION", "0");
    ScopedEnv ver("ECHO_VERIFY", "1");
    EXPECT_EQ(resolveSpec(PipelineKind::kTraining, ""),
              defaultSpec(PipelineKind::kTraining));
    EXPECT_EQ(resolveSpec(PipelineKind::kInference, ""),
              defaultSpec(PipelineKind::kInference));
}

TEST(PassRegistry, BuiltinsRegisteredUnknownsNot)
{
    EXPECT_TRUE(isRegisteredPass("autodiff"));
    EXPECT_TRUE(isRegisteredPass("fusion"));
    EXPECT_TRUE(isRegisteredPass("recompute"));
    EXPECT_TRUE(isRegisteredPass("layout"));
    EXPECT_TRUE(isRegisteredPass("gemm_warm"));
    EXPECT_TRUE(isRegisteredPass("audit_fusion"));
    EXPECT_TRUE(isRegisteredPass("verify"));
    EXPECT_FALSE(isRegisteredPass("bogus"));
    // The tape is compiled by Executor::compile(), not by a pass.
    EXPECT_FALSE(isRegisteredPass("tape_compile"));
    EXPECT_EQ(makePass("bogus"), nullptr);
}

TEST(PassRegistry, BuiltinCheckersResolvable)
{
    for (const char *name :
         {"graph-verify", "lifetime", "hazards", "fusion-audit",
          "recompute-audit", "memory-plan", "plan-feasible"}) {
        EXPECT_NE(findChecker(name), nullptr) << name;
    }
    EXPECT_EQ(findChecker("bogus-checker"), nullptr);
    // Tapes are audited by echo-lint --tape and the tape tests, not
    // by a pipeline checker.
    EXPECT_EQ(findChecker("tape-ready"), nullptr);
}

// ---------------------------------------------------------------------
// Static pipeline-legality validation
// ---------------------------------------------------------------------

/** The invariants a fresh forward graph starts with. */
std::set<Invariant>
freshGraphInvariants()
{
    return {Invariant::kDifferentiable};
}

TEST(PipelineLegality, RecomputeBeforeAutodiffRejectedStatically)
{
    const PassManager pm = buildPipeline("recompute,autodiff");
    const std::vector<ContractViolation> violations =
        pm.validate(freshGraphInvariants());
    ASSERT_EQ(violations.size(), 2u);

    // recompute's kGradients precondition is unmet, and the diagnostic
    // names autodiff as the too-late establisher.
    EXPECT_EQ(violations[0].pass, "recompute");
    EXPECT_EQ(violations[0].pass_index, 0u);
    EXPECT_EQ(violations[0].invariant, Invariant::kGradients);
    EXPECT_EQ(violations[0].establisher, "autodiff");
    EXPECT_NE(violations[0].message.find("requires invariant "
                                         "'gradients'"),
              std::string::npos)
        << violations[0].message;
    EXPECT_NE(violations[0].message.find("order it before"),
              std::string::npos)
        << violations[0].message;

    // ... and running recompute first also destroys the fresh-graph
    // invariant autodiff itself needs.
    EXPECT_EQ(violations[1].pass, "autodiff");
    EXPECT_EQ(violations[1].invariant, Invariant::kDifferentiable);
    EXPECT_EQ(violations[1].invalidator, "recompute");
    EXPECT_NE(violations[1].message.find("held at pipeline entry"),
              std::string::npos)
        << violations[1].message;
}

TEST(PipelineLegality, EstablishedThenClobberedNamesThePassPair)
{
    const PassManager pm =
        buildPipeline("autodiff,fusion,recompute,audit_fusion");
    const std::vector<ContractViolation> violations =
        pm.validate(freshGraphInvariants());
    ASSERT_EQ(violations.size(), 1u);
    EXPECT_EQ(violations[0].pass, "audit_fusion");
    EXPECT_EQ(violations[0].invariant, Invariant::kFusionJournal);
    EXPECT_EQ(violations[0].establisher, "fusion");
    EXPECT_EQ(violations[0].invalidator, "recompute");
    EXPECT_NE(violations[0].message.find("established by 'fusion'"),
              std::string::npos)
        << violations[0].message;
    EXPECT_NE(violations[0].message.find("invalidated by 'recompute'"),
              std::string::npos)
        << violations[0].message;
}

TEST(PipelineLegality, DefaultAndPermutedPipelinesAreLegal)
{
    for (const char *spec :
         {"autodiff,fusion", "autodiff,recompute",
          "autodiff,fusion,recompute", "autodiff,recompute,fusion",
          "autodiff,fusion,audit_fusion",
          "autodiff,layout,fusion,gemm_warm,verify", "fusion",
          "none"}) {
        const PassManager pm = buildPipeline(spec);
        EXPECT_TRUE(pm.validate(freshGraphInvariants()).empty())
            << spec;
    }
}

TEST(PipelineLegality, ServePresetsExpandAndAreStaticallyLegal)
{
    // The serving presets are names for inference pipelines; parseSpec
    // expands them, so env rewriting and echo-lint --pipeline see the
    // underlying pass lists.
    EXPECT_EQ(presetSpec("serve-wordlm"), "fusion,gemm_warm");
    EXPECT_EQ(presetSpec("serve-nmt"), "fusion,audit_fusion,gemm_warm");
    EXPECT_EQ(parseSpec("serve-wordlm"),
              (std::vector<std::string>{"fusion", "gemm_warm"}));
    EXPECT_EQ(defaultSpec(PipelineKind::kServeWordLm), "serve-wordlm");
    EXPECT_EQ(defaultSpec(PipelineKind::kServeNmt), "serve-nmt");

    // Both presets must be statically legal on a fresh forward graph:
    // sessions build them unconditionally at construction time.
    for (const char *preset : {"serve-wordlm", "serve-nmt"}) {
        const PassManager pm = buildPipeline(preset);
        EXPECT_TRUE(pm.validate(freshGraphInvariants()).empty())
            << preset;
    }
}

TEST(PipelineLegality, GemmWarmBeforeAutodiffIsStale)
{
    // autodiff appends backward GEMMs, so a warm-up that ran before it
    // no longer covers the graph: kGemmKeysWarm is invalidated.
    const PassManager pm = buildPipeline("autodiff,gemm_warm");
    EXPECT_TRUE(pm.validate(freshGraphInvariants()).empty());

    std::set<Invariant> warmed = freshGraphInvariants();
    warmed.insert(Invariant::kGemmKeysWarm);
    // Nothing requires kGemmKeysWarm, so this is legal — but the walk
    // must drop the invariant; audit via a pipeline that assumes it.
    const PassManager pm2 = buildPipeline("autodiff");
    EXPECT_TRUE(pm2.validate(warmed).empty());
}

TEST(PipelineLegality, AssumeLetsCallersResumeMidPipeline)
{
    graph::Graph g;
    PipelineContext ctx(g);
    // Fresh graph, no grads yet.
    EXPECT_EQ(ctx.initialInvariants(),
              std::set<Invariant>{Invariant::kDifferentiable});
    ctx.assume.push_back(Invariant::kFusionJournal);
    std::set<Invariant> initial = ctx.initialInvariants();
    EXPECT_EQ(initial.count(Invariant::kFusionJournal), 1u);
    // A journal-only pipeline becomes legal under the assumption.
    const PassManager pm = buildPipeline("audit_fusion");
    EXPECT_FALSE(pm.validate({Invariant::kDifferentiable}).empty());
    EXPECT_TRUE(pm.validate(initial).empty());
}

TEST(PipelineLegality, SpecRoundTripsThroughManager)
{
    const PassManager pm = buildPipeline("autodiff,fusion,recompute");
    EXPECT_EQ(pm.size(), 3u);
    EXPECT_EQ(pm.spec(), "autodiff,fusion,recompute");
    EXPECT_STREQ(pm.at(1).name(), "fusion");
}

// ---------------------------------------------------------------------
// Budget passes: registration, argument parsing, contract legality
// ---------------------------------------------------------------------

TEST(BudgetPassRegistry, PassesAndCheckersRegistered)
{
    EXPECT_TRUE(isRegisteredPass("plan"));
    EXPECT_TRUE(isRegisteredPass("recompute_budget"));
    EXPECT_NE(findChecker("memory-plan"), nullptr);
    EXPECT_NE(findChecker("plan-feasible"), nullptr);
}

TEST(BudgetPassRegistry, ConfigureRejectsMalformedArguments)
{
    const struct
    {
        const char *spec;
        const char *expect;
    } cases[] = {
        {"recompute_budget", "needs bytes="},
        {"recompute_budget(bytes=64KiB:fraction=0.5)",
         "exactly one of bytes= and fraction="},
        {"recompute_budget(fraction=1.5)", "fraction must be in"},
        // The removed solver selector is an unknown key like any other.
        {"recompute_budget(bytes=1MiB:solver=simplex)",
         "unknown argument 'solver'"},
        {"recompute_budget(bytes=zero)", "bad byte size"},
        {"recompute_budget(pool=2GiB)", "unknown argument"},
        {"recompute_budget(bytes)", "malformed argument"},
    };
    for (const auto &c : cases) {
        std::string error;
        EXPECT_EQ(makePass(c.spec, &error), nullptr) << c.spec;
        EXPECT_NE(error.find(c.expect), std::string::npos)
            << c.spec << " -> " << error;
    }

    std::string error;
    const auto pass =
        makePass("recompute_budget(fraction=0.5)", &error);
    ASSERT_NE(pass, nullptr) << error;
    EXPECT_STREQ(pass->name(), "recompute_budget(fraction=0.5)");
}

TEST(PipelineLegality, BudgetBeforePlanRejectedStatically)
{
    const PassManager pm = buildPipeline(
        "autodiff,recompute_budget(bytes=64KiB),plan");
    const std::vector<ContractViolation> violations =
        pm.validate(freshGraphInvariants());
    ASSERT_EQ(violations.size(), 1u);
    EXPECT_EQ(violations[0].pass, "recompute_budget(bytes=64KiB)");
    EXPECT_EQ(violations[0].invariant, Invariant::kMemoryPlanned);
    EXPECT_EQ(violations[0].establisher, "plan");
    EXPECT_NE(violations[0].message.find("order it before"),
              std::string::npos)
        << violations[0].message;
}

TEST(PipelineLegality, BudgetSpecRoundTripsAndValidates)
{
    const std::string spec =
        "autodiff,plan,recompute_budget(bytes=64KiB)";
    const PassManager pm = buildPipeline(spec);
    EXPECT_EQ(pm.size(), 3u);
    EXPECT_EQ(pm.spec(), spec);
    EXPECT_STREQ(pm.at(2).name(),
                 "recompute_budget(bytes=64KiB)");
    EXPECT_TRUE(pm.validate(freshGraphInvariants()).empty());
}

// ---------------------------------------------------------------------
// Postcondition checking
// ---------------------------------------------------------------------

/** Deliberately invariant-breaking pass: records a fetch output shape
 *  that disagrees with the op signature, which the graph verifier's
 *  shape-inference replay must catch. */
class BadShapePass : public Pass
{
  public:
    const char *name() const override { return "bad-shape"; }
    void
    run(PipelineContext &ctx) override
    {
        const std::vector<graph::Val> eff = ctx.effectiveFetches();
        ASSERT_FALSE(eff.empty());
        graph::Node *node = eff[0].node;
        node->out_shapes[eff[0].index] =
            Shape({node->out_shapes[eff[0].index].numel() + 1});
    }
};

TEST(Postconditions, BuggyPassCaughtByGraphVerifier)
{
    models::WordLmModel model(tinyLmConfig(), "none");
    PipelineContext ctx(model.graph());
    ctx.loss = model.loss();
    for (const auto &[name, val] : model.weights())
        ctx.wrt.push_back(val);

    PassManager pm = buildPipeline("autodiff");
    pm.add(std::make_unique<BadShapePass>());

    // Statically legal — the bug is behavioral, not an ordering issue.
    EXPECT_TRUE(pm.validate(ctx.initialInvariants()).empty());

    const PipelineReport report = pm.run(ctx);
    EXPECT_TRUE(report.aborted);
    EXPECT_FALSE(report.ok());
    ASSERT_EQ(report.stages.size(), 2u);
    EXPECT_EQ(report.stages[1].pass, "bad-shape");
    EXPECT_GT(report.stages[1].post.errorCount(), 0);
    EXPECT_NE(report.toString().find("shape-mismatch"),
              std::string::npos)
        << report.toString();
}

TEST(PostconditionsDeathTest, RunOrDiePanicsOnBuggyPass)
{
    models::WordLmModel model(tinyLmConfig(), "none");
    PipelineContext ctx(model.graph());
    ctx.loss = model.loss();
    for (const auto &[name, val] : model.weights())
        ctx.wrt.push_back(val);

    PassManager pm = buildPipeline("autodiff");
    pm.add(std::make_unique<BadShapePass>());
    EXPECT_DEATH(pm.runOrDie(ctx, "test pipeline"), "postcondition");
}

TEST(PostconditionsDeathTest, RunPanicsOnStaticallyIllegalPipeline)
{
    models::WordLmModel model(tinyLmConfig(), "none");
    PipelineContext ctx(model.graph());
    ctx.loss = model.loss();
    for (const auto &[name, val] : model.weights())
        ctx.wrt.push_back(val);

    const PassManager pm = buildPipeline("recompute,autodiff");
    EXPECT_DEATH(pm.run(ctx), "contract violation");
}

TEST(Postconditions, CleanPipelineReportsCheckersRun)
{
    models::WordLmModel model(tinyLmConfig(), "autodiff,fusion");
    const PipelineReport &report = model.pipelineReport();
    EXPECT_TRUE(report.ok());
    ASSERT_EQ(report.stages.size(), 2u);
    // autodiff runs its default graph-verify postcondition; fusion
    // declares graph-verify + fusion-audit.
    EXPECT_EQ(report.stages[0].checkers_run,
              (std::vector<std::string>{"graph-verify"}));
    EXPECT_EQ(report.stages[1].checkers_run,
              (std::vector<std::string>{"graph-verify",
                                        "fusion-audit"}));
    EXPECT_EQ(report.stages[1].post.errorCount(), 0);
}

// ---------------------------------------------------------------------
// IR snapshot diffs
// ---------------------------------------------------------------------

TEST(StageDiffs, AutodiffGrowsGraphFusionShrinksReachableSet)
{
    models::WordLmModel model(tinyLmConfig(), "autodiff,fusion");
    const PipelineReport &report = model.pipelineReport();
    ASSERT_EQ(report.stages.size(), 2u);

    const StageReport &ad = report.stages[0];
    EXPECT_EQ(ad.pass, "autodiff");
    EXPECT_GT(ad.nodes_after, ad.nodes_before);
    EXPECT_GT(ad.reachable_after, ad.reachable_before);
    EXPECT_GT(ad.bytes_after, ad.bytes_before);

    const StageReport &fu = report.stages[1];
    EXPECT_EQ(fu.pass, "fusion");
    // Fusion only retypes/redirects; the graph never loses nodes.
    EXPECT_GE(fu.nodes_after, fu.nodes_before);
    if (model.fusionResult().num_groups > 0) {
        // Interior nodes of fused groups drop out of the fetch cone.
        EXPECT_LT(fu.reachable_after, fu.reachable_before);
    }
}

TEST(Postconditions, LateFusionNeverRetypesPinnedReplayTemplates)
{
    // Regression: with the default fused replay, the recompute rewrite
    // leaves FusedRegionOp nodes that re-execute their template nodes'
    // op live.  A later fusion pass used to retype those templates in
    // place (new op, new input arity), so the replay fed stale inputs
    // to the new op and crashed at execution.  Fusion must claim every
    // pinned node up front and leave it alone.
    models::WordLmModel model(tinyLmConfig(),
                              "autodiff,recompute,fusion");
    ASSERT_TRUE(model.pipelineReport().ok());
    int pinned = 0;
    for (const auto &node : model.graph().nodes()) {
        if (node->op == nullptr)
            continue;
        for (const graph::Node *t : node->op->pinnedNodes()) {
            ++pinned;
            ASSERT_NE(t->op, nullptr);
            EXPECT_NE(t->op->name(), "fused_ew")
                << "replay template #" << t->id
                << " was retyped by the late fusion pass";
        }
    }
    // Non-vacuity: the rewrite did compile fused regions over
    // templates, and fusion still found groups elsewhere.
    EXPECT_GT(pinned, 0);
    EXPECT_GT(model.fusionResult().num_groups, 0);
}

// ---------------------------------------------------------------------
// Byte-identity across legal pipeline permutations and thread counts
// ---------------------------------------------------------------------

TEST(PipelinePermutations, ByteIdenticalFetchesAcrossThreads)
{
    const models::WordLmConfig cfg = tinyLmConfig();
    data::Corpus corpus = tinyCorpus();
    data::LmBatcher batcher(corpus, cfg.batch, cfg.seq_len);
    const data::LmBatch batch = batcher.next();

    // Reference: plain autodiff, no graph optimization, one thread.
    models::WordLmModel reference(cfg, "autodiff");
    Rng rng(11);
    models::ParamStore params = reference.initialParams(rng);
    ThreadPool::setGlobalNumThreads(1);
    graph::Executor ref_ex(reference.fetches());
    const std::vector<Tensor> ref_out =
        ref_ex.run(reference.makeFeed(params, batch));

    const char *specs[] = {
        "autodiff",
        "autodiff,fusion",
        "autodiff,recompute",
        "autodiff,fusion,recompute",
        "autodiff,recompute,fusion",
        "autodiff,layout,fusion,gemm_warm",
    };
    for (const char *spec : specs) {
        models::WordLmModel model(cfg, spec);
        ASSERT_TRUE(model.pipelineReport().ok()) << spec;
        for (const int threads : {1, 2, 4}) {
            ThreadPool::setGlobalNumThreads(threads);
            graph::Executor ex(model.fetches());
            const std::vector<Tensor> out =
                ex.run(model.makeFeed(params, batch));
            const analysis::VerifyResult vr =
                analysis::compareFetches(out, ref_out);
            EXPECT_TRUE(vr.identical())
                << "spec '" << spec << "' at " << threads
                << " thread(s): max abs diff " << vr.max_abs_diff;
        }
    }
    ThreadPool::setGlobalNumThreads(ThreadPool::defaultNumThreads());
}

} // namespace
} // namespace echo::pass
