#include "nn/zoo.h"

#include "util/logging.h"
#include "util/rng.h"

namespace patdnn {
namespace {

/** Append conv (+bias) + batchnorm + relu; returns conv layer index. */
int
addConvBnRelu(Model& m, const std::string& name, int64_t cin, int64_t cout,
              int64_t k, int64_t h, int64_t w, int64_t stride, int64_t pad,
              int64_t groups = 1, bool relu = true)
{
    Layer conv;
    conv.kind = OpKind::kConv;
    conv.name = name;
    conv.conv = ConvDesc{name, cin, cout, k, k, h, w, stride, pad, 1, groups};
    int idx = m.addLayer(std::move(conv));

    Layer bn;
    bn.kind = OpKind::kBatchNorm;
    bn.name = name + "_bn";
    bn.bn_scale = Tensor(Shape{cout});
    bn.bn_scale.fill(1.0f);
    bn.bn_shift = Tensor(Shape{cout});
    m.addLayer(std::move(bn));

    if (relu) {
        Layer r;
        r.kind = OpKind::kReLU;
        r.name = name + "_relu";
        m.addLayer(std::move(r));
    }
    return idx;
}

void
addMaxPool(Model& m, const std::string& name, int64_t k = 2, int64_t stride = 2)
{
    Layer p;
    p.kind = OpKind::kMaxPool;
    p.name = name;
    p.pool_k = k;
    p.pool_stride = stride;
    m.addLayer(std::move(p));
}

void
addFc(Model& m, const std::string& name, int64_t in_features, int64_t out_features)
{
    Layer fc;
    fc.kind = OpKind::kFullyConnected;
    fc.name = name;
    fc.in_features = in_features;
    fc.out_features = out_features;
    m.addLayer(std::move(fc));
}

}  // namespace

std::string
datasetName(Dataset ds)
{
    return ds == Dataset::kImageNet ? "ImageNet" : "CIFAR-10";
}

int64_t
datasetInputSize(Dataset ds)
{
    return ds == Dataset::kImageNet ? 224 : 32;
}

int64_t
datasetClasses(Dataset ds)
{
    return ds == Dataset::kImageNet ? 1000 : 10;
}

Model
buildVGG16(Dataset ds, ZooWeights weights)
{
    Model m("VGG-16", datasetName(ds));
    int64_t s = datasetInputSize(ds);
    struct Stage { int64_t cout; int convs; };
    const Stage stages[] = {{64, 2}, {128, 2}, {256, 3}, {512, 3}, {512, 3}};
    int64_t cin = 3;
    int64_t res = s;
    int li = 0;
    for (int si = 0; si < 5; ++si) {
        for (int c = 0; c < stages[si].convs; ++c) {
            ++li;
            addConvBnRelu(m, "conv" + std::to_string(si + 1) + "_" + std::to_string(c + 1),
                          cin, stages[si].cout, 3, res, res, 1, 1);
            cin = stages[si].cout;
        }
        addMaxPool(m, "pool" + std::to_string(si + 1));
        res /= 2;
    }
    Layer fl;
    fl.kind = OpKind::kFlatten;
    fl.name = "flatten";
    m.addLayer(std::move(fl));
    int64_t feat = cin * res * res;
    int64_t hidden = ds == Dataset::kImageNet ? 4096 : 512;
    addFc(m, "fc6", feat, hidden);
    addFc(m, "fc7", hidden, hidden);
    addFc(m, "fc8", hidden, datasetClasses(ds));
    if (weights == ZooWeights::kRandomized)
        m.randomizeWeights(1);
    return m;
}

Model
buildResNet50(Dataset ds, ZooWeights weights)
{
    Model m("ResNet-50", datasetName(ds));
    int64_t res = datasetInputSize(ds);
    int64_t cin;
    if (ds == Dataset::kImageNet) {
        addConvBnRelu(m, "conv1", 3, 64, 7, res, res, 2, 3);
        res /= 2;
        addMaxPool(m, "pool1", 3, 2);
        res /= 2;
        cin = 64;
    } else {
        // CIFAR variant keeps resolution: 3x3 stem, no pool.
        addConvBnRelu(m, "conv1", 3, 64, 3, res, res, 1, 1);
        cin = 64;
    }
    const int blocks[4] = {3, 4, 6, 3};
    const int64_t widths[4] = {64, 128, 256, 512};
    for (int stage = 0; stage < 4; ++stage) {
        int64_t width = widths[stage];
        int64_t out = width * 4;
        for (int b = 0; b < blocks[stage]; ++b) {
            int64_t stride = (b == 0 && stage > 0) ? 2 : 1;
            std::string base =
                "res" + std::to_string(stage + 2) + char('a' + b);
            int last_input = static_cast<int>(m.layers().size()) - 1;
            addConvBnRelu(m, base + "_1x1a", cin, width, 1, res, res, stride, 0);
            int64_t inner_res = stride == 2 ? res / 2 : res;
            addConvBnRelu(m, base + "_3x3", width, width, 3, inner_res, inner_res, 1, 1);
            addConvBnRelu(m, base + "_1x1b", width, out, 1, inner_res, inner_res, 1, 0,
                          1, /*relu=*/false);
            int main_end = static_cast<int>(m.layers().size()) - 1;
            int shortcut = last_input;
            if (b == 0) {
                // Projection shortcut (tagged _proj, excluded from the
                // paper's main-path conv count). It branches off the
                // block input via input_from — not the main chain —
                // and the add then combines main path and projection.
                size_t proj_conv = m.layers().size();
                addConvBnRelu(m, base + "_proj", cin, out, 1, res, res, stride, 0,
                              1, /*relu=*/false);
                m.layers()[proj_conv].input_from = last_input;
                shortcut = static_cast<int>(m.layers().size()) - 1;
            }
            Layer add;
            add.kind = OpKind::kAdd;
            add.name = base + "_add";
            add.input_from = main_end;
            add.residual_from = shortcut;
            m.addLayer(std::move(add));
            Layer relu;
            relu.kind = OpKind::kReLU;
            relu.name = base + "_relu";
            m.addLayer(std::move(relu));
            cin = out;
            res = inner_res;
        }
    }
    Layer gp;
    gp.kind = OpKind::kAvgPool;
    gp.name = "global_pool";
    gp.pool_k = res;
    gp.pool_stride = res;
    m.addLayer(std::move(gp));
    Layer fl;
    fl.kind = OpKind::kFlatten;
    fl.name = "flatten";
    m.addLayer(std::move(fl));
    addFc(m, "fc", cin, datasetClasses(ds));
    if (weights == ZooWeights::kRandomized)
        m.randomizeWeights(2);
    return m;
}

Model
buildMobileNetV2(Dataset ds, ZooWeights weights)
{
    Model m("MobileNet-V2", datasetName(ds));
    int64_t res = datasetInputSize(ds);
    bool imagenet = ds == Dataset::kImageNet;
    int64_t stem_stride = imagenet ? 2 : 1;
    addConvBnRelu(m, "conv_stem", 3, 32, 3, res, res, stem_stride, 1);
    if (stem_stride == 2)
        res /= 2;
    int64_t cin = 32;
    struct BlockCfg { int64_t t, c, n, s; };
    // The paper's MobileNet-V2 configuration table.
    const BlockCfg cfg[] = {
        {1, 16, 1, 1},  {6, 24, 2, 2},  {6, 32, 3, 2}, {6, 64, 4, 2},
        {6, 96, 3, 1},  {6, 160, 3, 2}, {6, 320, 1, 1},
    };
    int block_id = 0;
    for (const auto& bc : cfg) {
        for (int64_t i = 0; i < bc.n; ++i) {
            ++block_id;
            // CIFAR variant: keep the first two downsamples at stride 1.
            int64_t s = (i == 0) ? bc.s : 1;
            if (!imagenet && block_id <= 3 && s == 2)
                s = 1;
            std::string base = "bneck" + std::to_string(block_id);
            int last_input = static_cast<int>(m.layers().size()) - 1;
            int64_t mid = cin * bc.t;
            if (bc.t != 1)
                addConvBnRelu(m, base + "_expand", cin, mid, 1, res, res, 1, 0);
            addConvBnRelu(m, base + "_dw", mid, mid, 3, res, res, s, 1, mid);
            int64_t inner_res = s == 2 ? res / 2 : res;
            addConvBnRelu(m, base + "_project", mid, bc.c, 1, inner_res, inner_res,
                          1, 0, 1, /*relu=*/false);
            if (s == 1 && cin == bc.c) {
                Layer add;
                add.kind = OpKind::kAdd;
                add.name = base + "_add";
                add.residual_from = last_input;
                m.addLayer(std::move(add));
            }
            cin = bc.c;
            res = inner_res;
        }
    }
    addConvBnRelu(m, "conv_head", cin, 1280, 1, res, res, 1, 0);
    Layer gp;
    gp.kind = OpKind::kAvgPool;
    gp.name = "global_pool";
    gp.pool_k = res;
    gp.pool_stride = res;
    m.addLayer(std::move(gp));
    Layer fl;
    fl.kind = OpKind::kFlatten;
    fl.name = "flatten";
    m.addLayer(std::move(fl));
    addFc(m, "fc", 1280, datasetClasses(ds));
    if (weights == ZooWeights::kRandomized)
        m.randomizeWeights(3);
    return m;
}

Model
buildByShortName(const std::string& short_name, Dataset ds, ZooWeights weights)
{
    if (short_name == "VGG")
        return buildVGG16(ds, weights);
    if (short_name == "RNT")
        return buildResNet50(ds, weights);
    if (short_name == "MBNT")
        return buildMobileNetV2(ds, weights);
    PATDNN_CHECK(false, "unknown model short name: " << short_name);
}

std::vector<ConvDesc>
vggUniqueLayers(int64_t spatial_divisor)
{
    PATDNN_CHECK_GE(spatial_divisor, 1, "spatial divisor");
    auto d = [&](int64_t v) {
        int64_t r = v / spatial_divisor;
        return r < 4 ? 4 : r;
    };
    std::vector<ConvDesc> layers = {
        {"L1", 3, 64, 3, 3, d(224), d(224), 1, 1, 1, 1},
        {"L2", 64, 64, 3, 3, d(224), d(224), 1, 1, 1, 1},
        {"L3", 64, 128, 3, 3, d(112), d(112), 1, 1, 1, 1},
        {"L4", 128, 128, 3, 3, d(112), d(112), 1, 1, 1, 1},
        {"L5", 128, 256, 3, 3, d(56), d(56), 1, 1, 1, 1},
        {"L6", 256, 256, 3, 3, d(56), d(56), 1, 1, 1, 1},
        {"L7", 256, 512, 3, 3, d(28), d(28), 1, 1, 1, 1},
        {"L8", 512, 512, 3, 3, d(28), d(28), 1, 1, 1, 1},
        {"L9", 512, 512, 3, 3, d(14), d(14), 1, 1, 1, 1},
    };
    for (auto& l : layers)
        l.check();
    return layers;
}

Model
singleConvModel(const ConvDesc& desc, uint64_t seed)
{
    desc.check();
    int64_t fan_in = desc.cinPerGroup() * desc.kh * desc.kw;
    Rng rng(seed + static_cast<uint64_t>(desc.cout * 131 + desc.cin));
    Tensor weight(Shape{desc.cout, desc.cinPerGroup(), desc.kh, desc.kw});
    weight.fillHe(rng, fan_in);
    Model m = singleConvModel(desc, std::move(weight));
    m.layers()[0].bias = Tensor(Shape{desc.cout});
    return m;
}

Model
singleConvModel(const ConvDesc& desc, Tensor weight)
{
    Model m("conv-" + desc.name, "synthetic");
    Layer conv;
    conv.kind = OpKind::kConv;
    conv.name = desc.name;
    conv.conv = desc;
    conv.weight = std::move(weight);
    m.addLayer(std::move(conv));
    return m;
}

int64_t
mainPathConvCount(const Model& m)
{
    int64_t n = 0;
    for (const auto& l : m.layers()) {
        if (l.kind != OpKind::kConv)
            continue;
        if (l.name.size() >= 5 && l.name.substr(l.name.size() - 5) == "_proj")
            continue;
        ++n;
    }
    return n;
}

}  // namespace patdnn
