/**
 * @file
 * Word-level language model (paper §2.1, Fig. 2): Embedding -> LSTM
 * stack -> Output layer -> perplexity loss.  The LSTM backend is
 * selectable (Default / CuDNN / Eco) or can be chosen automatically by
 * the layout autotuner, exactly as §5.4 describes.
 */
#ifndef ECHO_MODELS_WORD_LM_H
#define ECHO_MODELS_WORD_LM_H

#include "data/batcher.h"
#include "graph/fusion.h"
#include "models/params.h"
#include "pass/builtin_passes.h"
#include "rnn/stack.h"

namespace echo::models {

/** Hyperparameters of the word-level LM. */
struct WordLmConfig
{
    int64_t vocab = 10000;
    int64_t hidden = 512; ///< embedding size == hidden size
    int64_t layers = 2;
    int64_t batch = 32;
    int64_t seq_len = 35;
    rnn::RnnBackend backend = rnn::RnnBackend::kDefault;
};

/** The built training graph of the word-level LM.
 *
 *  The constructor builds the forward graph, then runs the training
 *  pass pipeline over it (default "autodiff,fusion"; override with
 *  @p pipeline_spec or ECHO_PASSES — "none" keeps the forward graph
 *  untouched, e.g.\ for echo-lint --pipeline replays). */
class WordLmModel
{
  public:
    explicit WordLmModel(const WordLmConfig &config,
                         const std::string &pipeline_spec = "");

    const WordLmConfig &config() const { return config_; }
    graph::Graph &graph() { return *graph_; }

    /** Training-iteration outputs: loss followed by weight grads. */
    const std::vector<graph::Val> &fetches() const { return fetches_; }
    const std::vector<graph::Val> &weightGrads() const
    {
        return weight_grads_;
    }
    const graph::Val &loss() const { return loss_; }
    const NamedWeights &weights() const { return weights_; }

    /** What the element-wise fusion pass did to this graph (empty when
     *  the pipeline has no fusion pass); echo-lint feeds this to
     *  analysis::auditFusion. */
    const fusion::FusionResult &fusionResult() const
    {
        return fusion_;
    }

    /** The pipeline spec the constructor ran and its per-stage report
     *  (IR snapshot diffs + postcondition checker findings). */
    const std::string &pipelineSpec() const { return pipeline_spec_; }
    const pass::PipelineReport &pipelineReport() const
    {
        return pipeline_report_;
    }

    /** The stack's representative projection, for the layout pass. */
    const rnn::LstmSpec &layoutSpec() const { return layout_spec_; }

    /** Initialize a fresh parameter store. */
    ParamStore initialParams(Rng &rng) const;

    /** Assemble the feed for one batch. */
    graph::FeedDict makeFeed(const ParamStore &params,
                             const data::LmBatch &batch) const;

  private:
    WordLmConfig config_;
    std::unique_ptr<graph::Graph> graph_;
    graph::Val tokens_, labels_, loss_;
    NamedWeights weights_;
    std::vector<graph::Val> weight_grads_;
    std::vector<graph::Val> fetches_;
    fusion::FusionResult fusion_;
    rnn::LstmSpec layout_spec_;
    std::string pipeline_spec_;
    pass::PipelineReport pipeline_report_;
};

/**
 * One-token step decoder over the word LM's weights: embedding -> one
 * LSTM cell per layer -> logits, with the per-layer (h, c) state
 * carried explicitly by the caller.
 *
 * The step graph is built once per (config, batch) and reuses the
 * training model's weight names, so a checkpoint saved from training
 * feeds it directly.  Every op is row-wise along the batch axis, so a
 * row's logits and state depend only on that row's token history —
 * the serving layer's batch-composition determinism contract.
 */
class WordLmStepper
{
  public:
    WordLmStepper(const WordLmConfig &config, int64_t batch,
                  graph::ExecMode mode = graph::ExecMode::kAuto,
                  const std::string &pipeline_spec = "");
    ~WordLmStepper();

    WordLmStepper(const WordLmStepper &) = delete;
    WordLmStepper &operator=(const WordLmStepper &) = delete;

    int64_t batch() const { return batch_; }
    const WordLmConfig &config() const { return config_; }

    /** Per-layer hidden and cell states, each [B x H]. */
    struct State
    {
        std::vector<Tensor> h;
        std::vector<Tensor> c;
    };

    /** All-zero initial state. */
    State initialState() const;

    /**
     * Advance every row by one token ([B], float-encoded ids) and
     * return the next-token logits [B x V].  @p state is replaced
     * with the post-step state.
     */
    Tensor step(const ParamStore &params, const Tensor &token,
                State &state) const;

  private:
    struct Graphs;
    WordLmConfig config_;
    int64_t batch_;
    std::unique_ptr<Graphs> graphs_;
};

} // namespace echo::models

#endif // ECHO_MODELS_WORD_LM_H
