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
 *   +Reorder+LRE+Tune — adds the GA-tuned row tile / blocking /
 *                     permutation.
 *
 * Every level splits the filters across threads the same way: the
 * engine cuts them at equal kernel counts (PatternConv::plan()), which
 * nothing tunes.
 */
#include "bench_common.h"

using namespace patdnn;

namespace {

double
timeConfig(const ConvDesc& d, const DeviceSpec& dev, bool reorder, bool lre,
           bool tune)
{
    CompileOptions opts;
    opts.opts.reorder = reorder;
    opts.opts.lre = lre;
    if (!tune) {
        // Deliberately bland defaults: whole-plane, no spatial
        // blocking, weight-stationary loop order; LRE alone keeps each
        // filter's accumulators in registers across its kernels.
        opts.default_tuning.blocked = false;
        opts.default_tuning.permute = lre ? LoopPermutation::kCoHWCi
                                          : LoopPermutation::kCoCiHW;
    }
    bench::ConvLayerModel layer(d, FrameworkKind::kPatDnn, dev, opts);
    if (!tune)
        return layer.timeMs();
    // GA auto-tuning (Section 5.5) on top of reorder+LRE. A candidate
    // is timed by rebuilding the layer from its exported state with the
    // candidate's tuning: no re-pruning, same weights.
    auto time_with = [&](const TuneParams& p, int reps) {
        std::vector<CompiledLayerState> states = layer.model.exportState();
        for (CompiledLayerState& st : states)
            st.tuning = p;
        CompiledModel tuned(FrameworkKind::kPatDnn, dev, std::move(states),
                            layer.model.outputNode(), layer.model.tunedIsa(),
                            layer.model.compileOptions());
        return tuned.convOnlyTimeMs(layer.input, 1, reps);
    };
    TunerConfig tc;
    tc.population = 8;
    tc.generations = 2;
    tc.measure_reps = 1;
    std::function<double(const TuneParams&)> measure =
        [&](const TuneParams& p) { return time_with(p, 1); };
    TuneResult r = tuneLayer(measure, TuneSpace{}, tc);
    return time_with(r.best, bench::reps());
}

void
runDevice(const char* label, const DeviceSpec& dev)
{
    std::printf("--- %s ---\n", label);
    Table t({"Layer", "No-opt (ms)", "+Reorder", "+Reorder+LRE",
             "+Reorder+LRE+Tune"});
    auto layers = vggUniqueLayers(bench::spatialScale());
    for (const auto& d : layers) {
        double base = timeConfig(d, dev, false, false, false);
        double reorder = timeConfig(d, dev, true, false, false);
        double lre = timeConfig(d, dev, true, true, false);
        double tuned = timeConfig(d, dev, true, true, true);
        auto speedup = [&](double ms) { return Table::num(base / ms, 2) + "x"; };
        t.addRow({d.name, Table::num(base, 2), speedup(reorder), speedup(lre),
                  speedup(tuned)});
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
