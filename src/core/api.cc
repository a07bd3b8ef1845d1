#include "core/patdnn.h"

#include "util/logging.h"

namespace patdnn {

CompressResult
compress(Net& net, const SyntheticShapes& data, int pattern_count,
         double connectivity_rate, const AdmmConfig& cfg)
{
    CompileOptions opts;
    opts.pattern_count = pattern_count;
    opts.connectivity_rate = connectivity_rate;
    Result<CompressResult> result =
        Compiler(DeviceSpec{}, opts).compress(net, data, cfg);
    PATDNN_CHECK(result.ok(), result.status().toString());
    return std::move(result).value();
}

CompiledLayer
compileLayer(const ConvDesc& desc, Tensor weight, const PatternSet& set,
             double connectivity_rate, const DeviceSpec& device, bool auto_tune)
{
    CompileOptions opts;
    opts.connectivity_rate = connectivity_rate;
    Result<CompiledLayer> result =
        Compiler(device, opts).compileLayer(desc, std::move(weight), set,
                                            auto_tune);
    PATDNN_CHECK(result.ok(), result.status().toString());
    return std::move(result).value();
}

std::unique_ptr<InferenceServer>
serve(std::shared_ptr<const CompiledModel> model, const ServerOptions& opts)
{
    return std::make_unique<InferenceServer>(std::move(model), opts);
}

std::unique_ptr<ModelRegistry>
serveRegistry(const RegistryOptions& opts)
{
    return std::make_unique<ModelRegistry>(opts);
}

}  // namespace patdnn
