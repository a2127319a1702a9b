// Spatiotemporal graph convolution with manual backprop (paper §IV).
//
// A continuous-kernel convolution in the spirit of SplineCNN/EdgeConv
// ([68],[69]), simplified to a linear kernel on the concatenation of the
// neighbour feature and the spatiotemporal offset:
//
//   h'_i = ReLU( W_s h_i + (1/|N(i)|) sum_{j in N(i)} W_n [h_j ; p_j - p_i]
//                + b )
//
// Because the offset (dx, dy, dt) enters the kernel, relative event timing
// is available to every layer — the property the paper credits for
// event-graphs exploiting "precise timing information deep into the
// network".
#pragma once

#include <span>
#include <vector>

#include "common/derived_cache.hpp"
#include "common/rng.hpp"
#include "gnn/graph.hpp"
#include "nn/layer.hpp"

namespace evd::gnn {

enum class Aggregation { Mean, Max };

class GraphConv {
 public:
  GraphConv(Index in_features, Index out_features, Rng& rng,
            Aggregation aggregation = Aggregation::Max);

  /// Batch forward over all nodes. `h` is [N, in_features]; returns
  /// [N, out_features]. Caches for backward when train=true. The graph must
  /// outlive the backward call.
  nn::Tensor forward(const EventGraph& graph, const nn::Tensor& h, bool train);

  /// Returns dL/dh given dL/dh'. Accumulates parameter gradients.
  nn::Tensor backward(const nn::Tensor& grad_output);

  /// Single-node evaluation for asynchronous (per-event) inference: the
  /// neighbour list carries pointers into layer-(l-1) feature storage plus
  /// the offset to the centre node.
  struct NeighborRef {
    const float* features = nullptr;
    float dx = 0.0f, dy = 0.0f, dz = 0.0f;
  };
  void apply_node(const float* h_self, std::span<const NeighborRef> neighbors,
                  float* out) const;

  /// Two-step evaluation (arXiv:2411.04269), bitwise-equal to apply_node.
  /// Step one: the neighbour-side projection W_nbr[:, :in] · h of one
  /// node's layer input, written to `proj` [out_features]. It depends on
  /// that node alone, so a caller whose node inputs are immutable computes
  /// it once per node instead of once per later neighbour.
  void project(const float* h, float* proj) const;
  /// Step two: apply_node with each neighbour's `features` pointing at its
  /// project() output instead of its raw layer input. Per neighbour this
  /// costs the 3 offset MACs per output plus the aggregation, not in + 3.
  void apply_node_projected(const float* h_self,
                            std::span<const NeighborRef> neighbors,
                            float* out) const;

  /// Mutable handles; bumps each parameter's version, so the next call
  /// re-derives the transposed weights once (see DerivedCache).
  std::vector<nn::Param*> params() {
    for (nn::Param* p : {&w_self_, &w_nbr_, &bias_}) ++p->version;
    return {&w_self_, &w_nbr_, &bias_};
  }
  /// How many times the transposed weights have been derived.
  std::uint64_t transposed_builds() const noexcept {
    return transposed_.builds();
  }
  /// Weight and bias count; unlike params(), leaves the versions alone.
  Index param_count() const noexcept {
    return w_self_.value.numel() + w_nbr_.value.numel() + bias_.value.numel();
  }
  Index in_features() const noexcept { return in_; }
  Index out_features() const noexcept { return out_; }

  /// MACs for evaluating one node with `degree` in-neighbours — the
  /// paper's one-step count (apply_node), also for the two-step path.
  std::int64_t node_macs(Index degree) const noexcept {
    return out_ * (in_ + degree * (in_ + 3));
  }

  Aggregation aggregation() const noexcept { return aggregation_; }

 private:
  Index in_, out_;
  Aggregation aggregation_;
  nn::Param w_self_;  ///< [out, in]
  nn::Param w_nbr_;   ///< [out, in + 3]
  nn::Param bias_;    ///< [out]

  struct TransposedWeights {
    std::vector<float> self;  ///< [in][out]
    std::vector<float> nbr;   ///< [in+3][out]
  };

  /// Build/refresh and return the transposed weight copies.
  const TransposedWeights& ensure_transposed() const;

  // Transposed weight copies feeding the per-event kernels' contiguous path
  // (the w_*_t of simd::gnn_apply_node and its two-step pair): per-feature
  // weight columns become sequential row reads instead of strided gathers.
  // mutable because apply_node() and friends are const and may run from
  // concurrent sessions; see DerivedCache for the versioned rebuild
  // protocol.
  mutable DerivedCache<TransposedWeights> transposed_;

  const EventGraph* cached_graph_ = nullptr;
  nn::Tensor cached_input_;
  nn::Tensor cached_pre_;  ///< Pre-ReLU activations [N, out].
  std::vector<Index> cached_argmax_;  ///< Winning neighbour per (i, o) (Max).
};

}  // namespace evd::gnn
