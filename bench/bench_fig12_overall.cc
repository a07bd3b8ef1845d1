/**
 * @file
 * Fig. 12 reproduction: overall CONV-stack execution time of PatDNN vs
 * the three dense baselines (TFLite-like, TVM-like, MNN-like) plus the
 * CSR sparse baseline, for {VGG, RNT, MBNT} x {ImageNet, CIFAR-10} x
 * {CPU, GPU-like}. The paper reports average inference time for the
 * CONV layers, which dominate (>90-95%) end-to-end time.
 */
#include "bench_common.h"

using namespace patdnn;

namespace {

void
runDevice(const char* label, const DeviceSpec& dev)
{
    const std::vector<FrameworkKind> kinds = {
        FrameworkKind::kTfliteLike, FrameworkKind::kTvmLike,
        FrameworkKind::kPatDnnDense, FrameworkKind::kCsrSparse, FrameworkKind::kPatDnn};
    for (Dataset ds : {Dataset::kImageNet, Dataset::kCifar10}) {
        std::printf("--- %s, %d threads / %s (CONV-stack ms, lower is better) ---\n",
                    label, dev.threads, datasetName(ds).c_str());
        Table t({"Model", "TFLite-like", "TVM-like", "MNN-like", "CSR-sparse",
                 "PatDNN", "best dense / PatDNN"});
        for (const char* name : {"VGG", "RNT", "MBNT"}) {
            Model m = buildByShortName(name, ds);
            int64_t divisor = ds == Dataset::kImageNet ? bench::spatialScale() : 1;
            auto descs = bench::scaledConvDescs(m, divisor);
            std::vector<std::string> row = {name};
            double best_dense = 1e30, patdnn = 0.0;
            const std::vector<double> times = bench::convStackTimesMs(descs, kinds, dev);
            for (size_t k = 0; k < kinds.size(); ++k) {
                const FrameworkKind kind = kinds[k];
                const double ms = times[k];
                row.push_back(Table::num(ms, 1));
                if (kind == FrameworkKind::kPatDnn)
                    patdnn = ms;
                else if (kind != FrameworkKind::kCsrSparse)
                    best_dense = std::min(best_dense, ms);
            }
            row.push_back(Table::num(best_dense / patdnn, 2) + "x");
            t.addRow(row);
        }
        t.print();
        std::printf("\n");
    }
}

}  // namespace

int
main()
{
    bench::banner("Fig. 12", "overall performance vs baseline frameworks");
    runDevice("CPU", makeCpuDevice(8));
    runDevice("GPU-like", makeGpuDevice());
    std::printf(
        "Paper shape to check: PatDNN fastest everywhere; CSR-sparse roughly at\n"
        "dense speed despite ~8x fewer FLOPs; TFLite-like slowest of the dense\n"
        "engines. Paper speedups: 12.3-44.5x over TFLite, 2.4-5.1x over TVM,\n"
        "1.9-7.1x over MNN on CPU.\n");
    return 0;
}
