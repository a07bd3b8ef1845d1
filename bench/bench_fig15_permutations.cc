/**
 * @file
 * Fig. 15 reproduction: achieved GFLOPS of each unique VGG CONV layer
 * under four of the loop configurations the tuner chooses between —
 * the register pixel block inside the kernel loop (CoCiHW: accumulators
 * round-trip memory per kernel) or outside it (CoHWCi: they stay in
 * registers across the filter's kernels), each over the whole plane
 * (tile_oh 0) and in 8-row tiles. Different layers prefer different configurations,
 * which is why per-layer tuning pays.
 */
#include "bench_common.h"

using namespace patdnn;

namespace {

double
gflopsFor(const ConvDesc& d, const DeviceSpec& dev, LoopPermutation perm,
          int64_t tile_oh)
{
    CompileOptions opts;
    opts.default_tuning.permute = perm;
    opts.default_tuning.tile_oh = tile_oh;
    bench::ConvLayerModel layer(d, FrameworkKind::kPatDnn, dev, opts);
    return layer.gflops(layer.timeMs());
}

}  // namespace

int
main()
{
    bench::banner("Fig. 15", "GFLOPS across loop permutations and blocking");
    DeviceSpec dev = makeCpuDevice(8);
    Table t({"Layer", "BlockIn", "BlockOut", "BlockIn-Rows", "BlockOut-Rows"});
    for (const auto& d : vggUniqueLayers(bench::spatialScale())) {
        t.addRow({d.name,
                  Table::num(gflopsFor(d, dev, LoopPermutation::kCoCiHW, 0), 2),
                  Table::num(gflopsFor(d, dev, LoopPermutation::kCoHWCi, 0), 2),
                  Table::num(gflopsFor(d, dev, LoopPermutation::kCoCiHW, 8), 2),
                  Table::num(gflopsFor(d, dev, LoopPermutation::kCoHWCi, 8), 2)});
    }
    t.print();
    std::printf("\nPaper shape to check: no single configuration wins every layer; "
                "blocking helps the large early layers most.\n");
    return 0;
}
