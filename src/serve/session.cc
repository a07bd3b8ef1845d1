#include "serve/session.h"

#include "obs/trace.h"
#include "util/logging.h"
#include "util/stats.h"

namespace patdnn {

namespace {

const MemoryPlan&
modelPlan(const std::shared_ptr<const CompiledModel>& model)
{
    PATDNN_CHECK(model != nullptr, "session needs a model");
    return model->memoryPlan();
}

}  // namespace

InferenceSession::InferenceSession(std::shared_ptr<const CompiledModel> model)
    : model_(std::move(model)), workspace_(modelPlan(model_))
{
}

Tensor
InferenceSession::run(const Tensor& input)
{
    TraceSpan span("session.run", "serve", "batch", input.shape().dim(0));
    if (profiling_)
        profile_.reset();  // lastRunProfile() == the most recent run.
    Timer t;
    Tensor out =
        model_->run(input, workspace_, profiling_ ? &profile_ : nullptr);
    stats_.total_ms += t.elapsedMs();
    ++stats_.requests;
    stats_.samples += input.shape().dim(0);
    return out;
}

}  // namespace patdnn
