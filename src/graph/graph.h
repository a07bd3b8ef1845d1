/**
 * @file
 * Computational graph: PatDNN converts DNN models into computational
 * graphs and applies graph-level optimizations before the layerwise
 * stage (paper Section 5, "enhanced TVM-like approach"). Nodes are ops,
 * edges are tensors identified by producer node id.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nn/model.h"

namespace patdnn {

/** A node in the computational graph. */
struct GraphNode
{
    int id = -1;
    OpKind kind = OpKind::kConv;
    std::string name;
    std::vector<int> inputs;   ///< Producer node ids.
    ConvDesc conv;             ///< For kConv.
    int64_t pool_k = 2, pool_stride = 2;
    int64_t in_features = 0, out_features = 0;
    Tensor weight, bias;       ///< Owned constants (conv/fc).
    Tensor bn_scale, bn_shift; ///< For kBatchNorm.
    bool fused_relu = false;   ///< Conv+ReLU fusion flag.
    bool fused_bn = false;     ///< BN folded into the conv weights.
    bool dead = false;         ///< Marked by DCE.
};

/** A DAG of operators with one designated output node. */
class Graph
{
  public:
    /** Add a node; fills node.id and returns it. */
    int addNode(GraphNode node);

    std::vector<GraphNode>& nodes() { return nodes_; }
    const std::vector<GraphNode>& nodes() const { return nodes_; }

    int outputNode() const { return output_; }
    void setOutputNode(int id) { output_ = id; }

    /** Number of consumers of each node among live nodes. */
    std::vector<int> consumerCounts() const;

    /** Validate edges reference earlier live nodes. */
    void check() const;

  private:
    std::vector<GraphNode> nodes_;
    int output_ = -1;
};

}  // namespace patdnn
