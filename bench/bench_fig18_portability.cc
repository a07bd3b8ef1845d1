/**
 * @file
 * Fig. 18 reproduction: portability across SoC presets. The paper runs
 * the same binaries on Snapdragon 855 / Snapdragon 845 / Kirin 980 and
 * observes that the baselines degrade much more on the weaker SoCs
 * than PatDNN does (its compressed models put less pressure on memory
 * bandwidth). Our DeviceSpec presets differ in worker count and tile
 * budget, modelling the same resource narrowing.
 */
#include "bench_common.h"

using namespace patdnn;

int
main()
{
    bench::banner("Fig. 18", "portability across platform presets (VGG conv, ms)");
    Model vgg = buildVGG16(Dataset::kImageNet);
    auto descs = bench::scaledConvDescs(vgg, bench::spatialScale());
    const std::vector<FrameworkKind> kinds = {
        FrameworkKind::kTfliteLike, FrameworkKind::kTvmLike,
        FrameworkKind::kPatDnnDense, FrameworkKind::kPatDnn};
    struct Preset { const char* label; DeviceSpec dev; };
    Preset presets[] = {
        {"Snapdragon-855-sim", makeSnapdragon855()},
        {"Snapdragon-845-sim", makeSnapdragon845()},
        {"Kirin-980-sim", makeKirin980()},
    };
    Table t({"Platform", "TFLite-like", "TVM-like", "MNN-like", "PatDNN",
             "PatDNN slowdown vs 855"});
    double patdnn_855 = 0.0;
    for (auto& p : presets) {
        std::vector<std::string> row = {p.label};
        const std::vector<double> times = bench::convStackTimesMs(descs, kinds, p.dev);
        for (double ms : times)
            row.push_back(Table::num(ms, 1));
        const double pat = times.back();  // kPatDnn is the last column.
        if (patdnn_855 == 0.0)
            patdnn_855 = pat;
        row.push_back(Table::num(pat / patdnn_855, 2) + "x");
        t.addRow(row);
    }
    t.print();
    std::printf("\nPaper shape to check: PatDNN remains fastest on every platform "
                "and degrades more gracefully than the dense baselines as the "
                "platform weakens.\n");
    return 0;
}
