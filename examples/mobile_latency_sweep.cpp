/**
 * @file
 * Latency sweep: the motivating experiment of the paper's intro — run
 * the VGG-16 conv stack across engines and simulated platforms and
 * see where "real-time" (33 ms/frame at paper scale) becomes feasible.
 * Spatial dimensions are scaled by PATDNN_BENCH_SCALE (default 4) so
 * the sweep finishes quickly on a host machine.
 */
#include <cstdio>
#include <cstdlib>

#include "core/patdnn.h"
#include "util/table.h"

using namespace patdnn;

namespace {

int64_t
scale()
{
    const char* env = std::getenv("PATDNN_BENCH_SCALE");
    int64_t v = env != nullptr ? std::atoll(env) : 4;
    return v >= 1 ? v : 1;
}

double
stackMs(const std::vector<ConvDesc>& descs, FrameworkKind kind,
        const DeviceSpec& dev)
{
    // Each layer runs alone as a one-conv model, pruned like the inner
    // layer it stands for (a lone conv would otherwise count as first).
    CompileOptions opts;
    opts.first_layer_rate = opts.connectivity_rate;
    Rng rng(1);
    double total = 0.0;
    for (const auto& d : descs) {
        CompiledModel layer(singleConvModel(d, opts.seed), kind, dev, opts);
        Tensor in(Shape{1, d.cin, d.h, d.w});
        in.fillUniform(rng, -1.0f, 1.0f);
        total += layer.convOnlyTimeMs(in, 1, 2);
    }
    return total;
}

}  // namespace

int
main()
{
    std::printf("VGG-16 conv-stack latency sweep (spatial scale 1/%lld)\n\n",
                static_cast<long long>(scale()));
    Model vgg = buildVGG16(Dataset::kImageNet);
    std::vector<ConvDesc> descs;
    for (const auto& l : vgg.layers()) {
        if (l.kind != OpKind::kConv)
            continue;
        ConvDesc d = l.conv;
        d.h = std::max<int64_t>(4, d.h / scale());
        d.w = std::max<int64_t>(4, d.w / scale());
        descs.push_back(d);
    }

    struct Platform { const char* label; DeviceSpec dev; };
    Platform platforms[] = {
        {"mobile-cpu-sim (8 threads)", makeCpuDevice(8)},
        {"mobile-gpu-sim (block sched)", makeGpuDevice()},
        {"kirin-980-sim (4 threads)", makeKirin980()},
    };
    Table t({"Platform", "Dense naive", "Dense tuned", "PatDNN sparse",
             "Speedup vs naive"});
    for (auto& p : platforms) {
        double naive = stackMs(descs, FrameworkKind::kTfliteLike, p.dev);
        double tuned = stackMs(descs, FrameworkKind::kPatDnnDense, p.dev);
        double pat = stackMs(descs, FrameworkKind::kPatDnn, p.dev);
        t.addRow({p.label, Table::num(naive, 1), Table::num(tuned, 1),
                  Table::num(pat, 1), Table::num(naive / pat, 1) + "x"});
    }
    t.print();
    std::printf("\nThe paper's bar: 33 ms/frame for real-time VGG-16 inference; "
                "PatDNN reports 18.9 ms on an Adreno 640.\n");
    return 0;
}
