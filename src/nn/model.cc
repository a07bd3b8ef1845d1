#include "nn/model.h"

#include "util/logging.h"

namespace patdnn {

std::string
opKindName(OpKind kind)
{
    switch (kind) {
      case OpKind::kConv: return "conv";
      case OpKind::kFullyConnected: return "fc";
      case OpKind::kReLU: return "relu";
      case OpKind::kMaxPool: return "maxpool";
      case OpKind::kAvgPool: return "avgpool";
      case OpKind::kBatchNorm: return "batchnorm";
      case OpKind::kAdd: return "add";
      case OpKind::kFlatten: return "flatten";
    }
    return "unknown";
}

int
Model::addLayer(Layer layer)
{
    if (layer.kind == OpKind::kConv)
        layer.conv.check();
    layers_.push_back(std::move(layer));
    return static_cast<int>(layers_.size()) - 1;
}

int64_t
Model::countKind(OpKind kind) const
{
    int64_t n = 0;
    for (const auto& l : layers_)
        if (l.kind == kind)
            ++n;
    return n;
}

int64_t
Model::paramCount() const
{
    int64_t n = 0;
    for (const auto& l : layers_) {
        if (l.kind == OpKind::kConv)
            n += l.conv.weightCount() + l.conv.cout;
        else if (l.kind == OpKind::kFullyConnected)
            n += l.in_features * l.out_features + l.out_features;
    }
    return n;
}

double
Model::sizeMB() const
{
    return static_cast<double>(paramCount()) * 4.0 / (1024.0 * 1024.0);
}

void
Model::randomizeWeights(uint64_t seed)
{
    Rng rng(seed);
    for (auto& l : layers_) {
        if (l.kind == OpKind::kConv) {
            l.weight = Tensor(Shape{l.conv.cout, l.conv.cinPerGroup(), l.conv.kh, l.conv.kw});
            l.weight.fillHe(rng, l.conv.cinPerGroup() * l.conv.kh * l.conv.kw);
            l.bias = Tensor(Shape{l.conv.cout});
        } else if (l.kind == OpKind::kFullyConnected) {
            l.weight = Tensor(Shape{l.out_features, l.in_features});
            l.weight.fillHe(rng, l.in_features);
            l.bias = Tensor(Shape{l.out_features});
        }
    }
}

}  // namespace patdnn
