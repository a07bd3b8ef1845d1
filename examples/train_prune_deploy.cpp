/**
 * @file
 * End-to-end PatDNN pipeline (the paper's Fig. 5) on a trainable CNN:
 *
 *   1. train a small CNN on the SyntheticShapes dataset,
 *   2. compress: mine the pattern set + extended-ADMM joint kernel-
 *      pattern / connectivity pruning + masked retraining,
 *   3. compile every conv layer as a one-conv model (FKR + FKW + LR)
 *      and execute the pattern engine, comparing accuracy and speed
 *      against the dense (Winograd) comparator.
 */
#include <cstdio>

#include "core/patdnn.h"

using namespace patdnn;

int
main()
{
    std::printf("[1/3] training a small CNN on SyntheticShapes...\n");
    SyntheticShapes data(4, 12, 1, 224, 96, 2024);
    Net net = buildVggStyleNet(4, 12, 1, 8, 99);
    TrainConfig tc;
    tc.epochs = 5;
    tc.batch_size = 16;
    tc.lr = 2e-3f;
    TrainResult base = trainNet(net, data, tc);
    std::printf("      dense test accuracy: %.1f%%\n", 100 * base.test_accuracy);

    // One Compiler drives the rest of the pipeline: stage 1 compress,
    // then stage 2 compiles each conv as a one-conv model, all with
    // typed Result errors. 8 patterns / 3.6x are the defaults; a lone
    // conv is pruned at the connectivity rate like an inner layer.
    CompileOptions copts;
    copts.first_layer_rate = copts.connectivity_rate;
    Compiler compiler(makeCpuDevice(8), copts);

    std::printf("[2/3] ADMM pattern + connectivity pruning (8 patterns, 3.6x)...\n");
    AdmmConfig admm;
    admm.admm_iterations = 2;
    admm.epochs_per_iteration = 2;
    admm.retrain_epochs = 4;
    Result<CompressResult> compressed = compiler.compress(net, data, admm);
    if (!compressed.ok()) {
        std::printf("compress failed: %s\n",
                    compressed.status().toString().c_str());
        return 1;
    }
    CompressResult& comp = compressed.value();
    std::printf("      pruned accuracy: %.1f%% (dense %.1f%%), CONV compression "
                "%.1fx\n",
                100 * comp.admm.test_accuracy, 100 * comp.admm.dense_accuracy,
                comp.admm.conv_compression);
    for (size_t i = 0; i < comp.admm.trace.pattern_residual.size(); ++i)
        std::printf("      ADMM iter %zu: loss %.3f, |W-Proj(W)|/|W| pattern %.3f "
                    "connectivity %.3f\n",
                    i, comp.admm.trace.loss[i], comp.admm.trace.pattern_residual[i],
                    comp.admm.trace.connectivity_residual[i]);

    std::printf("[3/3] compiling conv layers for the mobile-CPU device...\n");
    auto convs = net.convLayers();
    double dense_ms = 0.0, pattern_ms = 0.0;
    Rng rng(5);
    for (auto* conv : convs) {
        const ConvDesc& d = conv->desc();
        // The trained weights already satisfy the pattern constraints,
        // so mining them recovers the patterns ADMM kept.
        auto pattern = compiler.compile(singleConvModel(d, conv->weight()));
        // Dense comparison on the same geometry.
        auto dense = compiler.compile(singleConvModel(d, /*seed=*/5),
                                      FrameworkKind::kPatDnnDense);
        if (!pattern.ok() || !dense.ok()) {
            const Status& st = pattern.ok() ? dense.status() : pattern.status();
            std::printf("compile failed: %s\n", st.toString().c_str());
            return 1;
        }
        Tensor in(Shape{1, d.cin, d.h, d.w});
        in.fillUniform(rng, 0.0f, 1.0f);
        pattern_ms += pattern.value()->convOnlyTimeMs(in, 1, 3);
        dense_ms += dense.value()->convOnlyTimeMs(in, 1, 3);
        std::printf("      %-8s  %s  kernels kept %lld/%lld\n", d.name.c_str(),
                    d.filterShapeStr().c_str(),
                    static_cast<long long>(
                        pattern.value()->exportState()[0].fkw->kernelCount()),
                    static_cast<long long>(d.cout * d.cin));
    }
    std::printf("\nconv stack: dense %.2f ms -> pattern engine %.2f ms (%.2fx)\n",
                dense_ms, pattern_ms, dense_ms / pattern_ms);
    std::printf("accuracy:   dense %.1f%% -> pruned %.1f%%\n",
                100 * comp.admm.dense_accuracy, 100 * comp.admm.test_accuracy);
    return 0;
}
