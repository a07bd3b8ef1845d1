/**
 * @file
 * Fig. 15 reproduction: achieved GFLOPS of each unique VGG CONV layer
 * under the four loop configurations the auto-tuner chooses between —
 * {CoCiHW, CoHWCi} x {no-block, block}. Different layers prefer
 * different configurations, which is why per-layer tuning pays.
 */
#include "bench_common.h"

using namespace patdnn;

namespace {

double
gflopsFor(const ConvDesc& d, const DeviceSpec& dev, LoopPermutation perm,
          bool blocked)
{
    CompileOptions opts;
    opts.default_tuning.permute = perm;
    opts.default_tuning.blocked = blocked;
    opts.default_tuning.tile_oh = 8;
    bench::ConvLayerModel layer(d, FrameworkKind::kPatDnn, dev, opts);
    return layer.gflops(layer.timeMs());
}

}  // namespace

int
main()
{
    bench::banner("Fig. 15", "GFLOPS across loop permutations and blocking");
    DeviceSpec dev = makeCpuDevice(8);
    Table t({"Layer", "CoCiHW", "CoHWCi", "CoCiHW-Block", "CoHWCi-Block"});
    for (const auto& d : vggUniqueLayers(bench::spatialScale())) {
        t.addRow({d.name,
                  Table::num(gflopsFor(d, dev, LoopPermutation::kCoCiHW, false), 2),
                  Table::num(gflopsFor(d, dev, LoopPermutation::kCoHWCi, false), 2),
                  Table::num(gflopsFor(d, dev, LoopPermutation::kCoCiHW, true), 2),
                  Table::num(gflopsFor(d, dev, LoopPermutation::kCoHWCi, true), 2)});
    }
    t.print();
    std::printf("\nPaper shape to check: no single configuration wins every layer; "
                "blocking helps the large early layers most.\n");
    return 0;
}
