/**
 * @file
 * The built-in pass registry and pipeline-spec resolution.
 *
 * Every transform in the repo registers here under a stable name:
 *
 *   autodiff     graph::backward over ctx.loss / ctx.wrt
 *   fusion       element-wise fusion (graph/fusion.h)
 *   recompute    the Echo recompute rewrite (echo/recompute_pass.h)
 *   layout       TBH-vs-THB layout decision (layout/layout_optimizer.h)
 *   gemm_warm    GEMM-key autotuner warm-up (graph/gemm_keys.h)
 *   audit_fusion re-audit of the fusion journal (no transform)
 *   verify       no transform; runs every registered checker
 *   plan         memory plan of the current graph (memory/planner.h)
 *   recompute_budget(bytes=256MiB) | (fraction=0.5)
 *                budget-targeted recomputation (budget/planner.h)
 *
 * Pipelines are comma-separated spec strings ("autodiff,fusion").  A
 * spec element may carry arguments in parentheses — ':'-separated
 * key=value pairs, since ',' separates passes — which makePass feeds
 * through Pass::configure before the pass joins the pipeline.  The
 * spec call sites should actually run comes from resolveSpec(), which
 * honours ECHO_PASSES verbatim and otherwise returns the default spec.
 */
#ifndef ECHO_PASS_BUILTIN_PASSES_H
#define ECHO_PASS_BUILTIN_PASSES_H

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "pass/pass_manager.h"

namespace echo::pass {

// ---------------------------------------------------------------------
// Pass registry
// ---------------------------------------------------------------------

using PassFactory = std::function<std::unique_ptr<Pass>()>;

/** Register a pass factory under @p name (panics on duplicates). */
void registerPass(const std::string &name, PassFactory factory);

/** Whether @p name is a registered pass. */
bool isRegisteredPass(const std::string &name);

/** All registered pass names, sorted. */
std::vector<std::string> registeredPassNames();

/** A fresh instance of the registered pass, or nullptr when unknown.
 *  @p name may be a spec element with arguments ("name(args)"); the
 *  argument text is handed to Pass::configure. */
std::unique_ptr<Pass> makePass(const std::string &name);

/** makePass that reports *why* construction failed (unknown pass,
 *  malformed element, Pass::configure rejection) into @p error. */
std::unique_ptr<Pass> makePass(const std::string &name,
                               std::string *error);

// ---------------------------------------------------------------------
// Pipeline specs
// ---------------------------------------------------------------------

/** Split a spec on commas, trimming blanks, and expand preset names
 *  (see presetSpec) into their pass lists.  The spec "none" (or "")
 *  yields an empty pipeline. */
std::vector<std::string> parseSpec(const std::string &spec);

/**
 * The pass list a named preset stands for, or "" when @p name is not a
 * preset.  Presets name whole per-workload pipelines usable anywhere a
 * spec is ("serve-wordlm" in ECHO_PASSES, echo-lint --pipeline, ...):
 *
 *   serve-wordlm   "fusion,gemm_warm"               (LM step graphs)
 *   serve-nmt      "fusion,audit_fusion,gemm_warm"  (NMT enc/dec graphs)
 */
std::string presetSpec(const std::string &name);

/** Which default a call site wants when no spec is given. */
enum class PipelineKind {
    kTraining,   ///< default "autodiff,fusion"
    kInference,  ///< default "fusion" (forward-only step graphs)
    kServeWordLm, ///< default preset "serve-wordlm"
    kServeNmt,    ///< default preset "serve-nmt"
};

/** The hard-coded default spec for @p kind (no env consulted). */
std::string defaultSpec(PipelineKind kind);

/**
 * The spec a call site should run: @p requested when non-empty (a
 * constructor argument wins over everything), else ECHO_PASSES
 * verbatim, else defaultSpec(kind).
 */
std::string resolveSpec(PipelineKind kind,
                        const std::string &requested = "");

/**
 * Build a PassManager from @p spec.  Unknown pass names are a user
 * error (ECHO_FATAL) naming the registered passes.
 */
PassManager buildPipeline(const std::string &spec);

} // namespace echo::pass

#endif // ECHO_PASS_BUILTIN_PASSES_H
