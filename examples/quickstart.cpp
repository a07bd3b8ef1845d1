/**
 * @file
 * Quickstart: compile one conv layer with pattern + connectivity
 * pruning for the simulated mobile CPU (pattern set mined from the
 * weights, FKR + FKW + LR, tuning over the engine's candidates) and
 * run it, verifying against the reference convolution. Exits nonzero
 * when the pattern engine disagrees with the reference by more than
 * 1e-3.
 *
 * Build & run:   cmake -B build -G Ninja && cmake --build build
 *                ./build/examples/quickstart
 */
#include <cstdio>
#include <string>

#include "core/patdnn.h"

using namespace patdnn;

int
main()
{
    // A VGG-class layer: 128 filters over 64 channels at 56x56.
    ConvDesc desc{"conv3_1", 64, 128, 3, 3, 56, 56, 1, 1, 1, 1};
    Rng rng(7);
    Tensor weight(Shape{desc.cout, desc.cin, desc.kh, desc.kw});
    weight.fillHe(rng, desc.cin * 9);

    // The layer is compiled as a one-conv model, pruned at the
    // connectivity rate like the inner layer it stands for. The
    // Compiler returns Result<T>: a malformed descriptor or a weight
    // that does not fit it comes back as kInvalidArgument.
    CompileOptions copts;
    copts.connectivity_rate = 3.6;
    copts.first_layer_rate = copts.connectivity_rate;
    Compiler compiler(makeCpuDevice(8), copts);

    // Section 5.5: time every row tile and loop order the pattern
    // engine lists for this geometry and keep the fastest; compile()
    // then picks the result up from the TuneCache.
    Result<TuneParams> tuned = compiler.tuneLayer(desc, FrameworkKind::kPatDnn);
    if (!tuned.ok()) {
        std::printf("tune failed: %s\n", tuned.status().toString().c_str());
        return 1;
    }
    Result<std::shared_ptr<CompiledModel>> compiled =
        compiler.compile(singleConvModel(desc, weight), FrameworkKind::kPatDnn);
    if (!compiled.ok()) {
        std::printf("compile failed: %s\n", compiled.status().toString().c_str());
        return 1;
    }
    const CompiledModel& model = *compiled.value();
    std::vector<CompiledLayerState> state = model.exportState();
    const FkwLayer& fkw = *state[0].fkw;
    const TuneParams& t = state[0].tuning;

    std::printf("pattern set mined from the weights:\n");
    for (size_t i = 0; i < fkw.patterns.size(); ++i)
        std::printf("-- pattern %zu --\n%s\n", i, fkw.patterns[i].str().c_str());
    const std::string tile =
        t.tile_oh > 0 ? std::to_string(t.tile_oh) + "-row tile" : "whole-plane rows";
    std::printf("tuned parameters: permute %s, %s\n", permutationName(t.permute).c_str(),
                tile.c_str());
    std::printf("FKW storage: %lld non-empty kernels, %.1f KB weights, %.1f KB "
                "index structures\n",
                static_cast<long long>(fkw.kernelCount()),
                fkw.weights.size() * 4.0 / 1024.0, fkw.indexBytes() / 1024.0);

    // Execute and verify against the dense reference on the same
    // pruned weights.
    Tensor in(Shape{1, desc.cin, desc.h, desc.w});
    in.fillUniform(rng, -1.0f, 1.0f);
    double ms = model.convOnlyTimeMs(in, 1, 3);
    Tensor out = model.run(in);
    Tensor expect = makeConvOutput(desc, 1);
    convReference(desc, fkwToDense(fkw), in, expect);
    double err = Tensor::maxAbsDiff(out, expect);
    std::printf("pattern engine: %.2f ms, max |err| vs reference = %.2e\n", ms, err);
    return err > 1e-3 ? 1 : 0;
}
