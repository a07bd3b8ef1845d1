#include "graph/graph.h"

#include "util/logging.h"

namespace patdnn {

int
Graph::addNode(GraphNode node)
{
    node.id = static_cast<int>(nodes_.size());
    nodes_.push_back(std::move(node));
    return nodes_.back().id;
}

std::vector<int>
Graph::consumerCounts() const
{
    std::vector<int> counts(nodes_.size(), 0);
    for (const auto& n : nodes_) {
        if (n.dead)
            continue;
        for (int in : n.inputs)
            if (in >= 0)
                ++counts[static_cast<size_t>(in)];
    }
    return counts;
}

void
Graph::check() const
{
    for (const auto& n : nodes_) {
        if (n.dead)
            continue;
        for (int in : n.inputs) {
            PATDNN_CHECK(in >= -1 && in < n.id,
                         "node " << n.name << " references invalid input " << in);
            if (in >= 0)
                PATDNN_CHECK(!nodes_[static_cast<size_t>(in)].dead,
                             "node " << n.name << " consumes dead node");
        }
    }
    PATDNN_CHECK(output_ >= 0 && output_ < static_cast<int>(nodes_.size()),
                 "graph output unset");
}

}  // namespace patdnn
