/**
 * @file
 * Shared helpers for the per-table/per-figure benchmark harnesses.
 *
 * Spatial scaling: the paper runs full 224x224 ImageNet layers on a
 * Snapdragon 855. On a shared host, every bench scales the spatial
 * dimensions down by PATDNN_BENCH_SCALE (default 4, i.e. 1/16 of the
 * MACs) so the whole suite completes in minutes. Set
 * PATDNN_BENCH_SCALE=1 to run the paper's exact shapes. Relative
 * orderings — the reproduction target — are unaffected by the scale.
 */
#pragma once

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/patdnn.h"
#include "util/table.h"

namespace patdnn::bench {

/** Spatial divisor from PATDNN_BENCH_SCALE (default 4). */
inline int64_t
spatialScale()
{
    const char* env = std::getenv("PATDNN_BENCH_SCALE");
    if (env == nullptr)
        return 4;
    int64_t v = std::atoll(env);
    return v >= 1 ? v : 1;
}

/** Timed repetitions from PATDNN_BENCH_REPS (default 3). */
inline int
reps()
{
    const char* env = std::getenv("PATDNN_BENCH_REPS");
    if (env == nullptr)
        return 3;
    int v = std::atoi(env);
    return v >= 1 ? v : 1;
}

/** Print a bench banner with the experiment id and scaling info. */
inline void
banner(const std::string& experiment, const std::string& what)
{
    std::printf("\n=== %s — %s ===\n", experiment.c_str(), what.c_str());
    std::printf("(spatial scale 1/%lld; set PATDNN_BENCH_SCALE=1 for paper-exact "
                "shapes)\n\n",
                static_cast<long long>(spatialScale()));
}

/** Conv descriptors of a zoo model with spatial dims scaled down. */
inline std::vector<ConvDesc>
scaledConvDescs(const Model& m, int64_t divisor)
{
    std::vector<ConvDesc> out;
    for (const auto& l : m.layers()) {
        if (l.kind != OpKind::kConv)
            continue;
        ConvDesc d = l.conv;
        d.h = std::max<int64_t>(4, d.h / divisor);
        d.w = std::max<int64_t>(4, d.w / divisor);
        // Keep geometry valid for strided layers.
        if (d.outH() < 1 || d.outW() < 1) {
            d.h = d.kh * d.stride + 2;
            d.w = d.kw * d.stride + 2;
        }
        out.push_back(d);
    }
    return out;
}

/**
 * One conv layer compiled as its own model (singleConvModel), on the
 * same CompiledModel path InferenceSession runs, so a per-layer figure
 * times the engine selectConvEngine() picks for it. A lone conv is the
 * model's first conv; first_layer_rate is pinned to connectivity_rate
 * so it is pruned like the inner layer it stands for.
 */
struct ConvLayerModel
{
    ConvLayerModel(const ConvDesc& d, FrameworkKind kind, const DeviceSpec& dev,
                   CompileOptions opts = {})
        : desc(d), model(singleConvModel(d, opts.seed), kind, dev, innerLayer(opts)),
          input(Shape{1, d.cin, d.h, d.w})
    {
        Rng rng(opts.seed);
        input.fillUniform(rng, -1.0f, 1.0f);
    }

    /** Median conv-engine time (ms) over reps() after one warmup. */
    double timeMs() const { return model.convOnlyTimeMs(input, 1, reps()); }

    /** One conv time (ms) in the layer's own workspace: an untimed run
     * warms the caches with this layer, then a profiled run is timed. */
    double sampleMs()
    {
        model.run(input, workspace);
        RunProfile profile;
        model.run(input, workspace, &profile);
        return static_cast<double>(profile.totalNs()) / 1e6;
    }

    /** Effective (non-zero) MACs per run. */
    int64_t effectiveMacs() const
    {
        return model.convNonZeros() * desc.outH() * desc.outW();
    }

    /** Achieved GFLOPS counting effective MACs only. */
    double gflops(double time_ms) const
    {
        return time_ms > 0.0 ? 2.0 * static_cast<double>(effectiveMacs()) / (time_ms * 1e6)
                             : 0.0;
    }

    ConvDesc desc;
    CompiledModel model;
    Tensor input;
    Workspace workspace{model.memoryPlan()};

  private:
    static CompileOptions innerLayer(CompileOptions opts)
    {
        opts.first_layer_rate = opts.connectivity_rate;
        return opts;
    }
};

/**
 * Conv-stack time (ms) of each of `kinds` on a device: the sum over
 * layers of that kind's median layer time. Every kind's model of a
 * layer is built first, then reps() samples (each a warm run of the
 * same layer, as timeMs() takes back to back) are taken round-robin
 * across the kinds, so a burst of host load lands on every column
 * instead of flipping one ordering.
 */
inline std::vector<double>
convStackTimesMs(const std::vector<ConvDesc>& descs,
                 const std::vector<FrameworkKind>& kinds, const DeviceSpec& dev,
                 const CompileOptions& opts = {})
{
    std::vector<double> totals(kinds.size(), 0.0);
    for (const auto& d : descs) {
        std::vector<std::unique_ptr<ConvLayerModel>> layers;
        for (FrameworkKind kind : kinds)
            layers.push_back(std::make_unique<ConvLayerModel>(d, kind, dev, opts));
        std::vector<std::vector<double>> samples(kinds.size());
        for (int r = 0; r < reps(); ++r)
            for (size_t k = 0; k < layers.size(); ++k)
                samples[k].push_back(layers[k]->sampleMs());
        for (size_t k = 0; k < kinds.size(); ++k)
            totals[k] += summarize(samples[k]).median;
    }
    return totals;
}

}  // namespace patdnn::bench
