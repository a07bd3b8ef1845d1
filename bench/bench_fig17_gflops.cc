/**
 * @file
 * Fig. 17 reproduction.
 *
 * (a) Dense backend without Winograd, whole VGG conv stack on CPU and
 *     GPU-like: the packed tiled f32 GEMM (rt/gemm_packed.h, the run
 *     path) vs its int8 quantized form.
 * (b) Per-layer GFLOPS of the pattern engine (counting only the MACs
 *     it actually executes) vs the packed dense baseline (no
 *     Winograd) — the paper's claim: comparable on CPU, better on
 *     GPU, now measured against a competitive dense GEMM.
 */
#include "bench_common.h"
#include "util/stats.h"

using namespace patdnn;

namespace {

/** Dense im2col time (the no-Winograd dense baseline): the packed
 * tiled f32 GEMM run path, or the int8 quantized GEMM (activation
 * scale taken from the input absmax, as the calibrator would on this
 * one-tensor "batch"). */
double
denseNoWinoMs(const ConvDesc& d, const DeviceSpec& dev, bool int8)
{
    Rng rng(3);
    Tensor w(Shape{d.cout, d.cin, d.kh, d.kw});
    w.fillHe(rng, d.cin * d.kh * d.kw);
    Tensor in(Shape{1, d.cin, d.h, d.w});
    in.fillUniform(rng, -1.0f, 1.0f);
    Tensor out = makeConvOutput(d, 1);
    if (int8) {
        ActivationCalibrator cal(CalibrationMethod::kAbsMax);
        cal.observe(in);
        Im2colConv engine(d, &w, dev, TuneParams{}, cal.scale());
        return medianTimeMs([&] { engine.run(in, out); }, 1, bench::reps());
    }
    Im2colConv engine(d, &w, dev);
    return medianTimeMs([&] { engine.run(in, out); }, 1, bench::reps());
}

}  // namespace

int
main()
{
    bench::banner("Fig. 17", "GFLOPS: PatDNN pattern vs optimized dense");
    auto layers = vggUniqueLayers(bench::spatialScale());

    // --- (a) whole-stack dense w/o Winograd: packed f32 vs int8 ---
    std::printf("--- (a) dense VGG conv stack, Winograd off (ms) ---\n");
    {
        Table t({"Device", "packed GEMM", "packed i8", "f32/i8"});
        for (bool gpu : {false, true}) {
            DeviceSpec dev = gpu ? makeGpuDevice() : makeCpuDevice(8);
            double packed = 0.0, packed_i8 = 0.0;
            for (const auto& d : layers) {
                packed += denseNoWinoMs(d, dev, false);
                packed_i8 += denseNoWinoMs(d, dev, true);
            }
            t.addRow({gpu ? "GPU-like" : "CPU", Table::num(packed, 1),
                      Table::num(packed_i8, 1),
                      Table::num(packed / packed_i8, 2) + "x"});
        }
        t.print();
        std::printf("(packed i8 is the quantized path: same im2col, i8 panels "
                    "+ SimdOps::gemm_tile_i8, f32 requant epilogue)\n\n");
    }

    // --- (b) per-layer GFLOPS, pattern vs dense ---
    std::printf("--- (b) per-layer GFLOPS (effective MACs / time) ---\n");
    for (bool gpu : {false, true}) {
        DeviceSpec dev = gpu ? makeGpuDevice() : makeCpuDevice(8);
        Table t({"Layer", "Dense (no Wino)", "Pattern", "Pattern/Dense"});
        for (const auto& d : layers) {
            bench::ConvLayerModel dense(d, FrameworkKind::kTvmLike, dev);
            bench::ConvLayerModel pattern(d, FrameworkKind::kPatDnn, dev);
            double dms = dense.timeMs();
            double pms = pattern.timeMs();
            double dg = dense.gflops(dms);
            double pg = pattern.gflops(pms);
            t.addRow({d.name, Table::num(dg, 2), Table::num(pg, 2),
                      Table::num(pg / dg, 2) + "x"});
        }
        std::printf("[%s]\n", gpu ? "GPU-like" : "CPU");
        t.print();
        std::printf("\n");
    }
    std::printf("Paper shape to check: pattern GFLOPS comparable to dense on CPU "
                "and ahead on GPU (memory-pressure relief from compression); and "
                "note the pattern engine needs ~3.6x fewer MACs for the same "
                "layer, so equal GFLOPS means ~3.6x less wall-clock.\n");
    return 0;
}
