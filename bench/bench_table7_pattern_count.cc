/**
 * @file
 * Table 7 reproduction: impact of pattern count (6 / 8 / 12, with 3.6x
 * connectivity pruning) on accuracy AND execution time. Accuracy comes
 * from joint ADMM runs on the trainable stand-in; execution time from
 * the pattern engine over the whole VGG conv stack on CPU and the
 * GPU-like device. The paper's shape: accuracy creeps up with more
 * patterns while execution time jumps past 8 patterns (more kernel
 * code variants -> worse instruction locality / tuning space).
 */
#include "bench_common.h"

using namespace patdnn;

int
main()
{
    bench::banner("Table 7", "pattern-count impact on accuracy and time");
    SyntheticShapes data(4, 12, 1, 224, 96, 71);
    Model vgg = buildVGG16(Dataset::kImageNet);
    auto descs = bench::scaledConvDescs(vgg, bench::spatialScale());

    Table t({"#Patterns", "Accuracy (%)", "Acc drop (%)", "CPU (ms)", "GPU (ms)"});
    double dense_acc = 0.0;
    {
        Net net = buildVggStyleNet(4, 12, 1, 8, 81);
        TrainConfig tc;
        tc.epochs = 5;
        tc.batch_size = 16;
        tc.lr = 2e-3f;
        dense_acc = trainNet(net, data, tc).test_accuracy;
    }
    for (int patterns : {6, 8, 12}) {
        Net net = buildVggStyleNet(4, 12, 1, 8, 81);
        TrainConfig tc;
        tc.epochs = 5;
        tc.batch_size = 16;
        tc.lr = 2e-3f;
        trainNet(net, data, tc);
        PruneOptions opts;
        opts.pattern_count = patterns;
        opts.connectivity_rate = 3.6;
        opts.retrain_epochs = 3;
        opts.admm.admm_iterations = 2;
        opts.admm.epochs_per_iteration = 2;
        opts.admm.retrain_epochs = 3;
        PruneReport r =
            pruneWithScheme(net, data, PruneScheme::kPatternConnectivity, opts);

        CompileOptions copts;
        copts.pattern_count = patterns;
        double cpu = bench::convStackTimesMs(descs, {FrameworkKind::kPatDnn},
                                             makeCpuDevice(8), copts)[0];
        double gpu = bench::convStackTimesMs(descs, {FrameworkKind::kPatDnn},
                                             makeGpuDevice(), copts)[0];
        t.addRow({std::to_string(patterns), Table::num(100 * r.pruned_accuracy, 1),
                  Table::num(100 * (dense_acc - r.pruned_accuracy), 1),
                  Table::num(cpu, 1), Table::num(gpu, 1)});
    }
    t.print();
    std::printf("\nPaper (VGG-16/ImageNet): 6 patterns 91.4%% @ 50.5ms CPU, 8 "
                "patterns 91.6%% @ 51.8ms, 12 patterns 91.7%% @ 92.5ms — "
                "accuracy creeps up, time jumps past 8.\n");
    return 0;
}
