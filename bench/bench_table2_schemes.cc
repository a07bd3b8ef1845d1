/**
 * @file
 * Table 2 reproduction: qualitative comparison of the pruning schemes
 * on accuracy and hardware speedup at the same pruning rate. We train
 * one small CNN per scheme on SyntheticShapes (the ImageNet stand-in,
 * see docs/ARCHITECTURE.md), prune to ~2.25x, fine-tune, and measure
 * speedup on a representative layer with the engine each scheme maps
 * to (CSR for non-structured, shrunken dense for filter/channel, the
 * pattern engine for pattern/connectivity).
 */
#include "bench_common.h"

using namespace patdnn;

namespace {

/** Execution time of a representative VGG-class layer per scheme. */
double
schemeLayerMs(PruneScheme scheme, const DeviceSpec& dev)
{
    auto layers = vggUniqueLayers(bench::spatialScale());
    const ConvDesc& d = layers[4];  // L5 = [256,128,3,3].
    switch (scheme) {
      case PruneScheme::kNonStructured:
        return bench::ConvLayerModel(d, FrameworkKind::kCsrSparse, dev).timeMs();
      case PruneScheme::kFilter:
      case PruneScheme::kChannel: {
        // Structured pruning shrinks the dense layer by the rate.
        ConvDesc shrunk = d;
        shrunk.cout = static_cast<int64_t>(d.cout / 2.25);
        return bench::ConvLayerModel(shrunk, FrameworkKind::kPatDnnDense, dev).timeMs();
      }
      case PruneScheme::kPattern:
      case PruneScheme::kConnectivity:
        return bench::ConvLayerModel(d, FrameworkKind::kPatDnn, dev).timeMs();
      default:
        return bench::ConvLayerModel(d, FrameworkKind::kPatDnnDense, dev).timeMs();
    }
}

}  // namespace

int
main()
{
    bench::banner("Table 2", "pruning schemes: accuracy vs hardware speedup");
    SyntheticShapes data(4, 12, 1, 192, 96, 11);
    DeviceSpec dev = makeCpuDevice(8);
    double dense_ms = schemeLayerMs(PruneScheme::kNone, dev);

    Table t({"Scheme", "Accuracy (dense)", "Accuracy (pruned)", "Acc drop",
             "Layer speedup vs dense"});
    const PruneScheme schemes[] = {PruneScheme::kNonStructured, PruneScheme::kFilter,
                                   PruneScheme::kPattern,
                                   PruneScheme::kConnectivity};
    for (PruneScheme scheme : schemes) {
        Net net = buildVggStyleNet(4, 12, 1, 8, 21);
        TrainConfig tc;
        tc.epochs = 5;
        tc.batch_size = 16;
        tc.lr = 2e-3f;
        trainNet(net, data, tc);
        PruneOptions opts;
        opts.target_compression = 2.25;
        opts.retrain_epochs = 3;
        opts.admm.admm_iterations = 2;
        opts.admm.epochs_per_iteration = 2;
        opts.admm.retrain_epochs = 3;
        PruneReport r = pruneWithScheme(net, data, scheme, opts);
        double ms = schemeLayerMs(scheme, dev);
        t.addRow({pruneSchemeName(scheme), Table::num(100 * r.dense_accuracy, 1),
                  Table::num(100 * r.pruned_accuracy, 1),
                  Table::num(100 * (r.dense_accuracy - r.pruned_accuracy), 1),
                  Table::num(dense_ms / ms, 2) + "x"});
    }
    t.print();
    std::printf("\nPaper shape to check: non-structured = highest accuracy but "
                "minor speedup; filter/channel = speedup but accuracy loss; "
                "pattern & connectivity = both high accuracy and high speedup.\n");
    return 0;
}
