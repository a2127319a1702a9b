// Asynchronous, per-event GNN inference (paper §IV, AEGNN [70] / HUGNet
// [72] mechanisms).
//
// Two update disciplines over a trained EventGnn:
//
//  * Causal ("hemispherical", HUGNet-style): edges point only from earlier
//    events to the new one, so inserting a node can never change any
//    existing node's in-neighbourhood — only the new node's features must
//    be computed, exactly once per layer. O(degree) work per event.
//
//  * Bidirectional (AEGNN-style undirected graphs): the new node also
//    becomes an in-neighbour of its neighbours, whose features must be
//    recomputed; changes then propagate one hop per layer. Still far
//    cheaper than full recomputation, but strictly more work than causal.
//
// Both keep the running class logits available after every event — the
// event-driven decision stream the comparison harness measures for latency.
//
// Message passing is two-step (arXiv:2411.04269; DESIGN.md "Two-step graph
// convolution"). A neighbour j enters node v's layer-l update through
// W_nbr[:, :in] · h_j, which depends on j alone, so the engine caches that
// projection per (layer, node) and each later neighbour reference reads it
// instead of recomputing it. The cache follows one rule in both modes: a
// slot's projections are reset with its zeroed features on insertion, and
// whenever a recompute stores changed layer-l features of v, the layer-l+1
// projection of v is refreshed from the stored vector. Layer-0 inputs are
// polarity one-hots, so the layer-0 projections are a two-row table. The
// result is bitwise-equal to one-step GraphConv::apply_node evaluation
// (oracle gnn.two_step_vs_direct) for finite weights.
#pragma once

#include <span>
#include <vector>

#include "fault/checkpoint.hpp"
#include "gnn/gnn_model.hpp"

namespace evd::gnn {

struct AsyncGnnStats {
  /// MACs of the (node, layer) evaluations performed, counted with the
  /// paper's one-step model (GraphConv::node_macs: in + degree·(in + 3)
  /// per output). It is the paradigm-comparison figure behind Table I and
  /// the sparsity goldens, not the executed count: the two-step path runs
  /// in + degree·3 per output plus one projection of in per output for
  /// each changed non-final layer.
  std::int64_t macs = 0;
  Index node_layer_recomputes = 0;  ///< (node, layer) evaluations performed.
};

class AsyncEventGnn {
 public:
  /// The model must outlive this object and must not be retrained while an
  /// async session is active.
  AsyncEventGnn(EventGnn& model, bool bidirectional);

  /// Insert a node with its (earlier) neighbour ids, update features.
  AsyncGnnStats insert(const GraphNode& node, std::span<const Index> neighbors);

  /// Current logits from the running pooled representation.
  nn::Tensor logits();

  /// Zero-allocation logits: writes into caller-owned `out` (shape
  /// [num_classes]). Bitwise identical to logits().
  void logits_into(nn::Tensor& out);

  /// Pre-size every per-node buffer for up to `max_nodes` nodes of in-degree
  /// <= `max_degree`, so causal-mode insert() performs no heap allocation
  /// until the graph exceeds that size. (Bidirectional mode grows neighbour
  /// lists of *earlier* nodes and cannot be pre-sized this way.)
  void reserve(Index max_nodes, Index max_degree);

  /// Logical clear that keeps all storage: with reserve(), a session
  /// recycles its graph allocation-free when it hits its node cap.
  void reset();

  /// Checkpoint the live per-node state (nodes, adjacency, inputs, layer
  /// features, running pools) into `w` / restore it from `r`. Causal mode
  /// only: bidirectional graphs grow earlier nodes' neighbour lists, whose
  /// stale pooled-max envelope makes a restored stream diverge, so save()
  /// throws evd::Error(CheckpointUnsupported) there. The restoring engine
  /// must wrap the same model (layer shapes are validated). The projection
  /// cache is derived state: it is not written, and load() rebuilds it from
  /// the restored features, so the byte format predates the cache.
  void save(fault::CheckpointWriter& w) const;
  void load(fault::CheckpointReader& r);

  Index node_count() const noexcept { return count_; }

  /// Stored output of conv layer `layer` for live node `v` (read-only view
  /// into the engine's storage; invalidated by the next insert).
  std::span<const float> features(Index layer, Index v) const;

  /// MACs a from-scratch forward over the current graph would cost —
  /// the baseline against which per-event updates are compared.
  std::int64_t full_recompute_macs() const;

  void clear();

 private:
  friend struct AsyncEventGnnTestPeer;  // stale-cache fault injection

  /// Recompute features of node v at conv layer l; returns true if changed.
  bool recompute(Index layer, Index v, AsyncGnnStats& stats);

  /// Grow the node stores to `n` slots (never shrinks).
  void ensure_slots(size_t n);
  /// Rebuild the layer-0 polarity projection table from the current
  /// weights (at every graph start and on load()).
  void refresh_projection_table();

  float* feature_row(Index layer, Index v) {
    return features_[static_cast<size_t>(layer)].data() +
           static_cast<size_t>(v) * static_cast<size_t>(width_[layer]);
  }
  const float* feature_row(Index layer, Index v) const {
    return features_[static_cast<size_t>(layer)].data() +
           static_cast<size_t>(v) * static_cast<size_t>(width_[layer]);
  }
  static size_t polarity_row(const GraphNode& node) {
    return node.polarity_sign > 0 ? 0 : 1;
  }
  /// Layer-l input of node v: its polarity one-hot at l = 0, else the
  /// stored layer-(l-1) features.
  const float* layer_input(Index layer, Index v) const;
  /// Cached conv(l) projection of v's layer-l input.
  float* projection_row(Index layer, Index v);

  static constexpr float kEps = 1e-6f;
  /// Layer-0 inputs: row 0 is positive polarity, row 1 negative.
  static constexpr float kPolarityOneHot[2][2] = {{1.0f, 0.0f},
                                                  {0.0f, 1.0f}};

  EventGnn& model_;
  bool bidirectional_;
  Index count_ = 0;  ///< Live nodes; storage below may be larger (reserve()).
  std::vector<Index> width_;  ///< out_features of each conv layer.
  std::vector<GraphNode> nodes_;
  std::vector<std::vector<Index>> adj_;      ///< In-neighbours per node.
  std::vector<std::vector<Index>> out_adj_;  ///< Nodes that list v as neighbour
                                             ///< (maintained only when
                                             ///< bidirectional — causal
                                             ///< propagation never reads it).
  /// features_[l] = output of conv layer l, flat [node][width_[l]].
  std::vector<std::vector<float>> features_;
  /// Projection cache: proj_[0] is the [2][width_[0]] polarity table,
  /// proj_[l >= 1] = conv(l).project(features_[l-1]) flat [node][width_[l]].
  std::vector<std::vector<float>> proj_;
  std::vector<double> pooled_sum_;
  /// Running max per feature. Exact under causal insertion (node features
  /// are immutable once computed, and ReLU outputs are >= 0, the pool's
  /// identity); in bidirectional mode a feature that *decreases* leaves a
  /// stale envelope, so this is a monotone upper bound there.
  std::vector<float> pooled_max_;
  // Scratch reused across recompute()/logits_into() calls (one thread owns
  // an AsyncEventGnn, so plain members are safe).
  std::vector<GraphConv::NeighborRef> refs_;
  std::vector<float> fresh_;  ///< Sized to the widest layer at construction.
  nn::Tensor pooled_scratch_;
};

}  // namespace evd::gnn
