/**
 * @file
 * Fig. 13 reproduction: speedup of each optimization level over the
 * un-optimized pattern execution on every unique VGG CONV layer, for
 * the CPU and the GPU-like device:
 *
 *   No-opt          — loose format, per-kernel dispatch, no LRE,
 *                     default untuned parameters;
 *   +Reorder        — FKR (tight FKW, branch-free segments, balance);
 *   +Reorder+LRE    — adds register-level load redundancy elimination:
 *                     the padded flat-row kernel with per-filter
 *                     register accumulators;
 *   +Reorder+LRE+Tune — adds the tuned row tile and loop order:
 *                     Compiler::tuneLayer times every candidate the
 *                     pattern engine lists and keeps the fastest.
 *
 * Every level splits the filters across threads the same way: the
 * engine cuts them at equal kernel counts (PatternConv::plan()), which
 * nothing tunes. The Tuned column names each layer's winning loop
 * order and row tile.
 */
#include "bench_common.h"

using namespace patdnn;

namespace {

/** "cohwci/16" or "cocihw/whole". */
std::string
tuningName(const TuneParams& t)
{
    return permutationName(t.permute) + "/" +
           (t.tile_oh > 0 ? std::to_string(t.tile_oh) : std::string("whole"));
}

/** Conv time (ms) of `d` at one optimization level; with `tuning`
 * set, at that tuning instead of the bland defaults. */
double
timeConfig(const ConvDesc& d, const DeviceSpec& dev, bool reorder, bool lre,
           const TuneParams* tuning = nullptr)
{
    CompileOptions opts;
    opts.opts.reorder = reorder;
    opts.opts.lre = lre;
    if (tuning != nullptr) {
        opts.default_tuning = *tuning;
    } else {
        // Deliberately bland defaults: whole-plane, weight-stationary
        // loop order; LRE alone keeps each filter's accumulators in
        // registers across its kernels.
        opts.default_tuning.tile_oh = 0;
        opts.default_tuning.permute = lre ? LoopPermutation::kCoHWCi
                                          : LoopPermutation::kCoCiHW;
    }
    return bench::ConvLayerModel(d, FrameworkKind::kPatDnn, dev, opts).timeMs();
}

void
runDevice(const char* label, const DeviceSpec& dev)
{
    std::printf("--- %s ---\n", label);
    Table t({"Layer", "No-opt (ms)", "+Reorder", "+Reorder+LRE", "+Reorder+LRE+Tune",
             "Tuned"});
    auto layers = vggUniqueLayers(bench::spatialScale());
    for (const auto& d : layers) {
        double base = timeConfig(d, dev, false, false);
        double reorder = timeConfig(d, dev, true, false);
        double lre = timeConfig(d, dev, true, true);
        // Section 5.5 on top of reorder+LRE: the one tuner, on the same
        // one-conv model (seed, inner-layer rate) the level times.
        Result<TuneParams> tuning = Compiler(dev).tuneLayer(d, FrameworkKind::kPatDnn);
        PATDNN_CHECK(tuning.ok(), tuning.status().toString());
        double tuned = timeConfig(d, dev, true, true, &tuning.value());
        auto speedup = [&](double ms) { return Table::num(base / ms, 2) + "x"; };
        t.addRow({d.name, Table::num(base, 2), speedup(reorder), speedup(lre),
                  speedup(tuned), tuningName(tuning.value())});
    }
    t.print();
    std::printf("\n");
}

}  // namespace

int
main()
{
    bench::banner("Fig. 13", "speedup of opt levels over No-opt per VGG layer");
    runDevice("CPU", makeCpuDevice(8));
    runDevice("GPU-like", makeGpuDevice());
    std::printf("Paper: reorder 1.6-3.0x (CPU) / 2.7-6.1x (GPU), LRE adds 1.6-2.8x "
                "/ 1.5-3.3x, tuning adds 1.2-1.9x / 1.4-3.8x.\n");
    return 0;
}
