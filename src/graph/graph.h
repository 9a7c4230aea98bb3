// Undirected weighted graph with node weights, stored CSR-style.
// Built once via GraphBuilder (which merges parallel edges), then immutable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace jecb {

using NodeId = uint32_t;

/// Immutable undirected graph; parallel edges have been merged by summing
/// their weights. Self-loops are dropped at build time.
class Graph {
 public:
  struct Neighbor {
    NodeId node;
    uint64_t weight;
  };

  size_t num_nodes() const { return node_weight_.size(); }
  uint64_t node_weight(NodeId n) const { return node_weight_[n]; }
  uint64_t total_node_weight() const { return total_node_weight_; }

  /// Neighbors of `n` as a contiguous span.
  const Neighbor* neighbors_begin(NodeId n) const {
    return adjacency_.data() + offsets_[n];
  }
  const Neighbor* neighbors_end(NodeId n) const {
    return adjacency_.data() + offsets_[n + 1];
  }
  size_t degree(NodeId n) const { return offsets_[n + 1] - offsets_[n]; }
  size_t num_edges() const { return adjacency_.size() / 2; }

 private:
  friend class GraphBuilder;
  std::vector<uint64_t> node_weight_;
  std::vector<size_t> offsets_;       // size num_nodes + 1
  std::vector<Neighbor> adjacency_;   // both directions
  uint64_t total_node_weight_ = 0;
};

/// Accumulates nodes and (possibly duplicate) edges, then builds a Graph.
class GraphBuilder {
 public:
  explicit GraphBuilder(size_t num_nodes, uint64_t default_node_weight = 1);

  void SetNodeWeight(NodeId n, uint64_t w) { node_weight_[n] = w; }
  void AddNodeWeight(NodeId n, uint64_t w) { node_weight_[n] += w; }

  /// Adds an undirected edge; duplicates accumulate, self-loops are ignored.
  /// Heavily duplicated streams (the statistics co-access graph adds one
  /// edge per co-accessed value pair per transaction) are coalesced
  /// periodically, so the pending buffer stays near the distinct-edge
  /// count instead of the raw insertion count. Weight summation is
  /// commutative, so Build() output is unchanged.
  void AddEdge(NodeId a, NodeId b, uint64_t weight = 1);

  /// Builds the immutable graph; the builder is left empty.
  Graph Build();

  /// Buffered edges right now; a periodic coalesce may have merged
  /// duplicates already, so this is an upper bound on distinct edges and a
  /// lower bound on insertions.
  size_t num_pending_edges() const { return edges_.size(); }

 private:
  struct RawEdge {
    NodeId a;
    NodeId b;
    uint64_t w;
  };

  /// Sorts by (a, b) and merges equal pairs in place, summing weights.
  void Coalesce();

  std::vector<uint64_t> node_weight_;
  std::vector<RawEdge> edges_;
  /// Buffer size that triggers the next coalesce; adapts so a
  /// mostly-distinct stream is not repeatedly re-sorted.
  size_t coalesce_threshold_;
};

/// Total weight of edges whose endpoints land in different parts.
uint64_t CutWeight(const Graph& g, const std::vector<int32_t>& assignment);

}  // namespace jecb
