#include "train/trainer.h"

#include <cmath>

#include "core/logging.h"
#include "obs/counters.h"
#include "obs/trace.h"

namespace echo::train {

std::vector<CurvePoint>
runTrainingLoop(const graph::Executor &executor,
                const TrainLoopConfig &config,
                const std::function<graph::FeedDict(int64_t)> &make_feed,
                const std::function<void(
                    double loss, const std::vector<Tensor> &grads)>
                    &apply_grads,
                const std::function<double()> &validate)
{
    // Verification happens inside the pass pipeline that built the
    // training graph: appending the "verify" pass to ECHO_PASSES runs
    // the checkers between passes (not just once here, after the
    // fact).  See pass::resolveSpec.

    std::vector<CurvePoint> curve;
    curve.reserve(static_cast<size_t>(config.iterations));

    static obs::Counter &c_iters = obs::counter("train.iterations");
    for (int64_t it = 0; it < config.iterations; ++it) {
        obs::Span iter_span;
        if (obs::traceEnabled())
            iter_span.begin("train", "train.iteration", {{"step", it}});
        c_iters.add(1);
        const graph::FeedDict feed = make_feed(it);
        const std::vector<Tensor> out = executor.run(feed);
        ECHO_CHECK(!out.empty(), "training executor fetched nothing");
        const double loss = out[0].at(0);
        ECHO_CHECK(std::isfinite(loss), "loss diverged at step ", it);

        std::vector<Tensor> grads(out.begin() + 1, out.end());
        apply_grads(loss, grads);
        if (obs::traceEnabled())
            obs::emitEvent('i', "train", "train.loss",
                           {{"step", it}, {"loss", loss}});

        CurvePoint p;
        p.step = it + 1;
        p.wall_seconds =
            static_cast<double>(it + 1) * config.seconds_per_iteration;
        p.loss = loss;
        p.perplexity = perplexity(loss);
        if (validate && config.validate_every > 0 &&
            (it + 1) % config.validate_every == 0) {
            obs::Span val_span;
            if (obs::traceEnabled())
                val_span.begin("train", "train.validate",
                               {{"step", it}});
            p.validation = validate();
        }
        curve.push_back(p);
    }
    return curve;
}

double
speedometer(int64_t batch, double seconds_per_iteration)
{
    ECHO_REQUIRE(seconds_per_iteration > 0.0,
                 "speedometer needs positive iteration time");
    return static_cast<double>(batch) / seconds_per_iteration;
}

} // namespace echo::train
