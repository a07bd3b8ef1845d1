#include "core/compiler.h"

#include <utility>

#include "util/rng.h"

namespace patdnn {

namespace {

/** Connectivity rate in the TuneCache key of `kind`: the tuner measures
 * a concrete FKW / CSR density on the sparse kinds; the dense kinds
 * prune nothing, so any rate is the same workload. */
double
tuneKeyRate(FrameworkKind kind, const CompileOptions& opts)
{
    return isSparseKind(kind) ? opts.connectivity_rate : 0.0;
}

}  // namespace

Compiler::Compiler(DeviceSpec device, CompileOptions opts)
    : device_(std::move(device)), opts_(std::move(opts))
{
}

Status
Compiler::validateOptions() const
{
    if (opts_.pattern_count < 1)
        return Status(ErrorCode::kInvalidArgument,
                      "compile options: pattern_count must be >= 1 (got " +
                          std::to_string(opts_.pattern_count) + ")");
    if (!(opts_.connectivity_rate >= 1.0))
        return Status(ErrorCode::kInvalidArgument,
                      "compile options: connectivity_rate must be >= 1");
    if (!(opts_.first_layer_rate >= 1.0))
        return Status(ErrorCode::kInvalidArgument,
                      "compile options: first_layer_rate must be >= 1");
    if (opts_.calibration.samples < 1)
        return Status(ErrorCode::kInvalidArgument,
                      "compile options: calibration.samples must be >= 1 (got " +
                          std::to_string(opts_.calibration.samples) + ")");
    if (!(opts_.calibration.percentile > 0.0 &&
          opts_.calibration.percentile <= 100.0))
        return Status(ErrorCode::kInvalidArgument,
                      "compile options: calibration.percentile must be in "
                      "(0, 100]");
    return Status::OK();
}

Result<CompressResult>
Compiler::compress(Net& net, const SyntheticShapes& data,
                   const AdmmConfig& cfg) const
{
    PATDNN_RETURN_IF_ERROR(validateOptions());
    std::vector<const Tensor*> weights;
    for (Tensor* w : net.convWeights())
        weights.push_back(w);
    if (weights.empty())
        return Status(ErrorCode::kInvalidArgument,
                      "compress: net has no conv layers to prune");

    CompressResult result;
    result.pattern_set = designPatternSet(weights, opts_.pattern_count);
    AdmmConfig run_cfg = cfg;
    run_cfg.connectivity_rate = opts_.connectivity_rate;
    result.admm = admmPrune(net, data, result.pattern_set, run_cfg);
    return result;
}

Result<std::shared_ptr<CompiledModel>>
Compiler::compile(const Model& model, FrameworkKind kind) const
{
    PATDNN_RETURN_IF_ERROR(validateOptions());
    if (model.layers().empty())
        return Status(ErrorCode::kInvalidArgument,
                      "compile: model '" + model.name() + "' has no layers");
    for (const Layer& layer : model.layers()) {
        auto bad = [&](const std::string& what) {
            return Status(ErrorCode::kInvalidArgument,
                          "compile: model '" + model.name() + "', layer '" +
                              layer.name + "': " + what);
        };
        Shape weight, bias;  // What the engines will read.
        if (layer.kind == OpKind::kConv) {
            const ConvDesc& c = layer.conv;
            Status st = c.validate();
            if (!st.ok())
                return bad(st.message());
            weight = Shape{c.cout, c.cinPerGroup(), c.kh, c.kw};
            bias = Shape{c.cout};
        } else if (layer.kind == OpKind::kFullyConnected) {
            weight = Shape{layer.out_features, layer.in_features};
            bias = Shape{layer.out_features};
        } else {
            continue;
        }
        if (layer.weight.shape() != weight)
            return bad("weight shape " + layer.weight.shape().str() +
                       " (expected " + weight.str() + ")");
        if (layer.bias.shape().rank() != 0 && layer.bias.shape() != bias)
            return bad("bias shape " + layer.bias.shape().str() + " (expected " +
                       bias.str() + " or none)");
    }

    // Reuse the tunings tuneLayer measured on this kind's engines;
    // misses keep the options' default tuning.
    CompileOptions opts = opts_;
    opts.tune_lookup = [device = device_, kind, rate = tuneKeyRate(kind, opts_)](
                           const ConvDesc& desc, TuneParams* params) {
        return TuneCache::instance().lookup(desc, device, kind, rate, params);
    };
    auto compiled = std::make_shared<CompiledModel>(model, kind, device_, opts);
    // The per-layer checks above cannot see a graph whose shapes do not
    // chain (or a non-conv op reading the model input); the compiled
    // model has no memory plan exactly then.
    if (!compiled->hasMemoryPlan())
        return Status(ErrorCode::kInvalidArgument,
                      "compile: model '" + model.name() + "': " +
                          CompiledModel::checkGraph(compiled->exportState(),
                                                    compiled->outputNode())
                              .message());
    return compiled;
}

Result<TuneParams>
Compiler::tuneLayer(const ConvDesc& desc, FrameworkKind kind) const
{
    PATDNN_RETURN_IF_ERROR(validateOptions());
    PATDNN_RETURN_IF_ERROR(desc.validate());
    double rate = tuneKeyRate(kind, opts_);
    TuneParams cached;
    if (TuneCache::instance().lookup(desc, device_, kind, rate, &cached))
        return cached;

    // The layer stands for an inner one: prune it at the connectivity
    // rate, not the first-layer rate. Its engine is built at the
    // default tuning, which heads its candidate list.
    CompileOptions opts = opts_;
    opts.first_layer_rate = opts.connectivity_rate;
    opts.tune_lookup = nullptr;
    const CompiledModel base(singleConvModel(desc, opts.seed), kind, device_, opts);
    const auto conv = static_cast<size_t>(base.outputNode());  // The lone conv.
    Tensor in(Shape{1, desc.cin, desc.h, desc.w});
    Rng rng(17);
    in.fillUniform(rng, -1.0f, 1.0f);
    // Each candidate rebuilds the model from the base state with its
    // TuneParams, then reads the median of 3 warm runs.
    auto measure = [&](const TuneParams& params) {
        std::vector<CompiledLayerState> states = base.exportState();
        states[conv].tuning = params;
        CompiledModel candidate(kind, device_, std::move(states), base.outputNode(),
                                base.tunedIsa(), base.compileOptions());
        return candidate.convOnlyTimeMs(in, /*warmup=*/1, /*reps=*/3);
    };
    TuneParams best = patdnn::tuneLayer(base.tuneCandidates(conv), measure,
                                        base.layerState(conv)->tuning);
    TuneCache::instance().insert(desc, device_, kind, rate, best);
    return best;
}

}  // namespace patdnn
