/** @file Computational-graph and pass tests. */
#include <gtest/gtest.h>

#include "graph/builder.h"
#include "graph/passes.h"
#include "nn/zoo.h"
#include "rt/framework.h"

namespace patdnn {
namespace {

TEST(GraphBuilder, VggGraphShape)
{
    Model m = buildVGG16(Dataset::kCifar10);
    Graph g = buildGraph(m);
    EXPECT_EQ(static_cast<size_t>(g.nodes().size()), m.layers().size());
    EXPECT_EQ(g.outputNode(), static_cast<int>(m.layers().size()) - 1);
    g.check();
}

TEST(GraphBuilder, ResidualAddHasTwoInputs)
{
    Model m = buildResNet50(Dataset::kCifar10);
    Graph g = buildGraph(m);
    bool found = false;
    for (const auto& n : g.nodes())
        if (n.kind == OpKind::kAdd) {
            EXPECT_EQ(n.inputs.size(), 2u);
            found = true;
        }
    EXPECT_TRUE(found);
}

TEST(GraphPasses, BnFoldingRemovesBnNodes)
{
    Model m = buildVGG16(Dataset::kCifar10);
    Graph g = buildGraph(m);
    int64_t bn_before = 0;
    for (const auto& n : g.nodes())
        if (!n.dead && n.kind == OpKind::kBatchNorm)
            ++bn_before;
    EXPECT_GT(bn_before, 0);
    PassStats s = foldBatchNorm(g);
    EXPECT_EQ(s.nodes_affected, bn_before);
    for (const auto& n : g.nodes()) {
        if (!n.dead) {
            EXPECT_NE(n.kind, OpKind::kBatchNorm);
        }
    }
}

TEST(GraphPasses, BnFoldingScalesWeights)
{
    Model m("tiny", "test");
    Layer conv;
    conv.kind = OpKind::kConv;
    conv.name = "c";
    conv.conv = ConvDesc{"c", 1, 2, 3, 3, 4, 4, 1, 1, 1, 1};
    conv.weight = Tensor(Shape{2, 1, 3, 3});
    conv.weight.fill(1.0f);
    conv.bias = Tensor(Shape{2});
    conv.bias.fill(1.0f);
    m.addLayer(std::move(conv));
    Layer bn;
    bn.kind = OpKind::kBatchNorm;
    bn.name = "bn";
    bn.bn_scale = Tensor(Shape{2}, {2.0f, 3.0f});
    bn.bn_shift = Tensor(Shape{2}, {0.5f, -0.5f});
    m.addLayer(std::move(bn));
    Graph g = buildGraph(m);
    foldBatchNorm(g);
    const GraphNode& c = g.nodes()[0];
    EXPECT_TRUE(c.fused_bn);
    EXPECT_EQ(c.weight[0], 2.0f);
    EXPECT_EQ(c.weight[9], 3.0f);
    EXPECT_FLOAT_EQ(c.bias[0], 2.5f);
    EXPECT_FLOAT_EQ(c.bias[1], 2.5f);
}

TEST(GraphPasses, ConvReluFusion)
{
    Model m = buildVGG16(Dataset::kCifar10);
    Graph g = buildGraph(m);
    foldBatchNorm(g);
    PassStats s = fuseConvRelu(g);
    EXPECT_GT(s.nodes_affected, 0);
    for (const auto& n : g.nodes()) {
        if (!n.dead && n.kind == OpKind::kConv) {
            EXPECT_TRUE(n.fused_relu) << n.name;
        }
    }
}

TEST(GraphPasses, FlattenFolded)
{
    Model m = buildVGG16(Dataset::kCifar10);
    Graph g = buildGraph(m);
    PassStats s = foldConstants(g);
    EXPECT_EQ(s.nodes_affected, 1);
}

TEST(GraphPasses, DeadNodeElimination)
{
    Model m = buildVGG16(Dataset::kCifar10);
    Graph g = buildGraph(m);
    // Orphan a node by rewiring output past it: mark the last FC's
    // input chain live only.
    foldBatchNorm(g);
    fuseConvRelu(g);
    foldConstants(g);
    PassStats s = eliminateDeadNodes(g);
    EXPECT_EQ(s.nodes_affected, 0);  // Chain graphs have no dead nodes.
    g.check();
}

/** The model's graph with no pass applied, as node records the
 * state-restoring CompiledModel constructor runs as they are. */
std::vector<CompiledLayerState>
unoptimizedState(const Graph& g)
{
    std::vector<CompiledLayerState> states(g.nodes().size());
    for (const GraphNode& n : g.nodes()) {
        CompiledLayerState& st = states[static_cast<size_t>(n.id)];
        st.live = true;
        st.kind = n.kind;
        st.conv = n.conv;
        st.inputs = n.inputs;
        st.pool_k = n.pool_k;
        st.pool_stride = n.pool_stride;
        st.in_features = n.in_features;
        st.out_features = n.out_features;
        const bool bn = n.kind == OpKind::kBatchNorm;
        st.weight = bn ? n.bn_scale : n.weight;
        st.bias = bn ? n.bn_shift : n.bias;
    }
    return states;
}

TEST(GraphPasses, OptimizedGraphPreservesModelOutput)
{
    // Numerical equivalence: the same model with and without graph
    // passes (BN folding, fusion, constant folding) must produce the
    // same logits through the dense framework. Compilation always runs
    // the passes; the unoptimized graph is restored node for node.
    Model m = buildVGG16(Dataset::kCifar10);
    // Give batchnorms non-trivial parameters so folding is exercised.
    Rng rng(3);
    for (auto& l : m.layers()) {
        if (l.kind == OpKind::kBatchNorm) {
            l.bn_scale.fillUniform(rng, 0.5f, 1.5f);
            l.bn_shift.fillUniform(rng, -0.2f, 0.2f);
        }
    }
    DeviceSpec dev = makeCpuDevice(4);
    CompiledModel a(m, FrameworkKind::kPatDnnDense, dev);
    Graph g = buildGraph(m);
    std::vector<CompiledLayerState> raw = unoptimizedState(g);
    ASSERT_TRUE(CompiledModel::checkGraph(raw, g.outputNode()).ok());
    CompiledModel b(FrameworkKind::kPatDnnDense, dev, std::move(raw), g.outputNode());
    Tensor in(Shape{1, 3, 32, 32});
    in.fillUniform(rng, 0.0f, 1.0f);
    Tensor ya = a.run(in);
    Tensor yb = b.run(in);
    EXPECT_LT(Tensor::maxAbsDiff(ya, yb), 5e-2);
}

}  // namespace
}  // namespace patdnn
