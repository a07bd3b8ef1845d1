/**
 * @file
 * Model zoo: the three networks the paper evaluates (VGG-16, ResNet-50,
 * MobileNet-V2) instantiated with their exact layer geometry for both
 * ImageNet (224x224x3 inputs) and CIFAR-10 (32x32x3 inputs), plus the
 * nine unique VGG CONV layer shapes of Table 6.
 *
 * Weights are randomly initialized (deterministic seed): execution-speed
 * experiments depend only on geometry and sparsity structure, never on
 * weight values. Accuracy experiments use the trainable nets in
 * src/train instead.
 */
#pragma once

#include <string>
#include <vector>

#include "nn/model.h"

namespace patdnn {

/** Datasets the zoo knows how to shape models for. */
enum class Dataset { kImageNet, kCifar10 };

/** Dataset display name ("ImageNet" / "CIFAR-10"). */
std::string datasetName(Dataset ds);

/** Input spatial resolution for a dataset (224 or 32). */
int64_t datasetInputSize(Dataset ds);

/** Number of classes (1000 or 10). */
int64_t datasetClasses(Dataset ds);

/**
 * Weight handling when instantiating a zoo model. Structure-only
 * consumers (layer counts, sizeMB, shape chaining) should skip the He
 * fill: on ImageNet-scale models the ~138M random draws dominate build
 * time while the geometry-derived metrics never read a weight value.
 */
enum class ZooWeights
{
    kRandomized,  ///< He-initialized from the model's fixed seed.
    kStructureOnly,  ///< Weight tensors left unallocated (empty).
};

/** Build VGG-16 (13 conv + 3 fc) for the dataset. */
Model buildVGG16(Dataset ds, ZooWeights weights = ZooWeights::kRandomized);

/** Build ResNet-50 (49 main-path convs + projections + fc). */
Model buildResNet50(Dataset ds, ZooWeights weights = ZooWeights::kRandomized);

/** Build MobileNet-V2 (inverted residual bottlenecks). */
Model buildMobileNetV2(Dataset ds, ZooWeights weights = ZooWeights::kRandomized);

/** Build by the paper's short name: "VGG", "RNT" or "MBNT". */
Model buildByShortName(const std::string& short_name, Dataset ds,
                       ZooWeights weights = ZooWeights::kRandomized);

/**
 * The nine unique VGG-16 CONV layers of Table 6 (L1..L9) with their
 * ImageNet input resolutions, optionally spatially scaled down by
 * `spatial_divisor` (used by benches to keep host runtimes bounded;
 * divisor 1 reproduces the paper's exact shapes).
 */
std::vector<ConvDesc> vggUniqueLayers(int64_t spatial_divisor = 1);

/**
 * A model holding the one conv layer `desc` and nothing else: how a
 * single layer is compiled, timed and profiled through CompiledModel.
 * Weights are He-initialized from Rng(seed + cout * 131 + cin); the
 * bias is zero.
 */
Model singleConvModel(const ConvDesc& desc, uint64_t seed);

/** The one-conv model over the caller's `weight`, with no bias. `desc`
 * must be well-formed (Model::addLayer checks it); Compiler::compile
 * rejects a weight whose shape does not fit it. */
Model singleConvModel(const ConvDesc& desc, Tensor weight);

/** Count of conv layers excluding ResNet projection shortcuts. */
int64_t mainPathConvCount(const Model& m);

}  // namespace patdnn
