/**
 * @file
 * Whole-model description: an ordered list of layer descriptors with
 * enough metadata to drive the graph builder, the pruners and the
 * per-layer executors. Weights live alongside the descriptors so a
 * Model is a complete, runnable artifact.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nn/conv_desc.h"
#include "tensor/tensor.h"

namespace patdnn {

/** Layer operator kinds understood by the graph and runtimes. */
enum class OpKind
{
    kConv,
    kFullyConnected,
    kReLU,
    kMaxPool,
    kAvgPool,
    kBatchNorm,
    kAdd,       ///< Residual add (ResNet / MobileNet shortcuts).
    kFlatten,
};

/** Human-readable operator name. */
std::string opKindName(OpKind kind);

/**
 * One layer of a model.
 *
 * Only the fields relevant to `kind` are meaningful: conv uses `conv`
 * and `weight`/`bias`; fc uses in/out features and `weight`/`bias`;
 * pools use pool_k/pool_stride; add uses `residual_from` (index of the
 * earlier layer whose output is added).
 *
 * Layers normally consume the previous layer's output; `input_from`
 * overrides that with an explicit earlier producer, which is how a
 * branch off the main chain (e.g. a ResNet projection shortcut) is
 * expressed.
 */
struct Layer
{
    OpKind kind = OpKind::kConv;
    std::string name;
    ConvDesc conv;           ///< For kConv.
    int64_t in_features = 0; ///< For kFullyConnected.
    int64_t out_features = 0;
    int64_t pool_k = 2;      ///< For pools.
    int64_t pool_stride = 2;
    int input_from = -2;     ///< Producer layer index; -2 = previous layer.
    int residual_from = -1;  ///< For kAdd: producer layer index.
    Tensor weight;           ///< OIHW conv weight or [out,in] fc weight.
    Tensor bias;             ///< Optional; empty if absent.
    Tensor bn_scale;         ///< For kBatchNorm: per-channel gamma/sqrt(var).
    Tensor bn_shift;         ///< For kBatchNorm: per-channel beta-mean*scale.
};

/** An ordered DNN model plus dataset bookkeeping. */
class Model
{
  public:
    Model() = default;
    Model(std::string name, std::string dataset)
        : name_(std::move(name)), dataset_(std::move(dataset))
    {
    }

    const std::string& name() const { return name_; }
    const std::string& dataset() const { return dataset_; }

    std::vector<Layer>& layers() { return layers_; }
    const std::vector<Layer>& layers() const { return layers_; }

    /** Append a layer and return its index. */
    int addLayer(Layer layer);

    /** Number of layers of the given kind. */
    int64_t countKind(OpKind kind) const;

    /** Total parameter count across conv + fc layers. */
    int64_t paramCount() const;

    /** Model size in MB at 32-bit floats (paper's Table 5 reports MB). */
    double sizeMB() const;

    /** Randomize all conv/fc weights with He init (deterministic seed). */
    void randomizeWeights(uint64_t seed);

  private:
    std::string name_;
    std::string dataset_;
    std::vector<Layer> layers_;
};

}  // namespace patdnn
