#include "gnn/async_update.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_set>

namespace evd::gnn {

AsyncEventGnn::AsyncEventGnn(EventGnn& model, bool bidirectional)
    : model_(model), bidirectional_(bidirectional) {
  const auto layers = static_cast<size_t>(model_.conv_count());
  features_.resize(layers);
  proj_.resize(layers);
  Index widest = 0;
  for (Index l = 0; l < model_.conv_count(); ++l) {
    width_.push_back(model_.conv(l).out_features());
    widest = std::max(widest, width_.back());
  }
  if (layers > 0) proj_[0].resize(2 * static_cast<size_t>(width_[0]));
  fresh_.resize(static_cast<size_t>(widest));
  pooled_sum_.assign(static_cast<size_t>(model_.config().hidden), 0.0);
  pooled_max_.assign(static_cast<size_t>(model_.config().hidden), 0.0f);
  pooled_scratch_ = nn::Tensor({2 * model_.config().hidden});
}

void AsyncEventGnn::clear() {
  count_ = 0;
  nodes_.clear();
  adj_.clear();
  out_adj_.clear();
  for (auto& layer : features_) layer.clear();
  for (size_t l = 1; l < proj_.size(); ++l) proj_[l].clear();
  std::fill(pooled_sum_.begin(), pooled_sum_.end(), 0.0);
  std::fill(pooled_max_.begin(), pooled_max_.end(), 0.0f);
}

void AsyncEventGnn::reset() {
  // Slots keep their storage; stale feature values are zeroed lazily as
  // slots are reused by insert().
  count_ = 0;
  std::fill(pooled_sum_.begin(), pooled_sum_.end(), 0.0);
  std::fill(pooled_max_.begin(), pooled_max_.end(), 0.0f);
}

void AsyncEventGnn::ensure_slots(size_t n) {
  if (nodes_.size() < n) nodes_.resize(n);
  if (adj_.size() < n) adj_.resize(n);
  if (out_adj_.size() < n) out_adj_.resize(n);
  for (size_t l = 0; l < features_.size(); ++l) {
    const size_t size = n * static_cast<size_t>(width_[l]);
    if (features_[l].size() < size) features_[l].resize(size);
    if (l > 0 && proj_[l].size() < size) proj_[l].resize(size);
  }
}

void AsyncEventGnn::reserve(Index max_nodes, Index max_degree) {
  ensure_slots(static_cast<size_t>(max_nodes < 0 ? 0 : max_nodes));
  for (auto& a : adj_) a.reserve(static_cast<size_t>(max_degree));
  refs_.reserve(static_cast<size_t>(max_degree));
}

void AsyncEventGnn::refresh_projection_table() {
  if (proj_.empty()) return;
  const GraphConv& conv = model_.conv(0);
  for (size_t row = 0; row < 2; ++row) {
    conv.project(kPolarityOneHot[row],
                 proj_[0].data() + row * static_cast<size_t>(width_[0]));
  }
}

const float* AsyncEventGnn::layer_input(Index layer, Index v) const {
  return layer == 0
             ? kPolarityOneHot[polarity_row(nodes_[static_cast<size_t>(v)])]
             : feature_row(layer - 1, v);
}

float* AsyncEventGnn::projection_row(Index layer, Index v) {
  const size_t row = layer == 0
                         ? polarity_row(nodes_[static_cast<size_t>(v)])
                         : static_cast<size_t>(v);
  return proj_[static_cast<size_t>(layer)].data() +
         row * static_cast<size_t>(width_[layer]);
}

std::span<const float> AsyncEventGnn::features(Index layer, Index v) const {
  if (layer < 0 || layer >= model_.conv_count() || v < 0 || v >= count_) {
    throw std::out_of_range("AsyncEventGnn::features: bad layer or node");
  }
  return {feature_row(layer, v), static_cast<size_t>(width_[layer])};
}

void AsyncEventGnn::save(fault::CheckpointWriter& w) const {
  if (bidirectional_) {
    throw Error(ErrorCode::CheckpointUnsupported,
                "AsyncEventGnn: bidirectional graphs cannot checkpoint "
                "(stale pooled-max envelope would diverge on restore)");
  }
  w.i64(count_);
  w.i64(model_.conv_count());
  // Live prefixes only: slots beyond count_ are reserve()/reset() residue
  // that insert() re-zeroes before use.
  const auto n = static_cast<size_t>(count_);
  w.pod_span(std::span<const GraphNode>(nodes_.data(), n));
  for (size_t v = 0; v < n; ++v) w.pod_vector(adj_[v]);
  for (size_t v = 0; v < n; ++v) {
    const float* input = kPolarityOneHot[polarity_row(nodes_[v])];
    w.pod_span(std::span<const float>(input, 2));
  }
  for (Index l = 0; l < model_.conv_count(); ++l) {
    for (Index v = 0; v < count_; ++v) {
      w.pod_span(std::span<const float>(feature_row(l, v),
                                        static_cast<size_t>(width_[l])));
    }
  }
  w.pod_vector(pooled_sum_);
  w.pod_vector(pooled_max_);
}

void AsyncEventGnn::load(fault::CheckpointReader& r) {
  if (bidirectional_) {
    throw Error(ErrorCode::CheckpointUnsupported,
                "AsyncEventGnn: bidirectional graphs cannot checkpoint");
  }
  const Index count = r.i64();
  if (const Index convs = r.i64(); convs != model_.conv_count()) {
    throw Error(ErrorCode::CheckpointMismatch,
                "AsyncEventGnn: checkpointed " + std::to_string(convs) +
                    " conv layers, model has " +
                    std::to_string(model_.conv_count()));
  }
  // Every node needs its stored GraphNode, so a count the remaining bytes
  // cannot hold is corrupt — checked before it sizes any allocation.
  if (count < 0 ||
      static_cast<std::uint64_t>(count) > r.remaining() / sizeof(GraphNode)) {
    throw Error(ErrorCode::CheckpointCorrupt,
                "AsyncEventGnn: node count out of range");
  }
  const auto n = static_cast<size_t>(count);
  ensure_slots(n);
  if (r.pod_span_into(std::span<GraphNode>(nodes_.data(), n)) !=
      static_cast<Index>(n)) {
    throw Error(ErrorCode::CheckpointCorrupt,
                "AsyncEventGnn: node store truncated");
  }
  // Causal graphs only list earlier nodes; anything else would index
  // outside the live prefix on the next recompute.
  for (size_t v = 0; v < n; ++v) {
    r.pod_vector(adj_[v]);
    for (const Index j : adj_[v]) {
      if (j < 0 || static_cast<size_t>(j) >= v) {
        throw Error(ErrorCode::CheckpointCorrupt,
                    "AsyncEventGnn: neighbour id out of causal range");
      }
    }
  }
  // The input rows are stored for format compatibility; they must be the
  // polarity one-hots the engine derives from the nodes.
  for (size_t v = 0; v < n; ++v) {
    float input[2] = {0.0f, 0.0f};
    const float* expect = kPolarityOneHot[polarity_row(nodes_[v])];
    if (r.pod_span_into(std::span<float>(input)) != 2 ||
        input[0] != expect[0] || input[1] != expect[1]) {
      throw Error(ErrorCode::CheckpointCorrupt,
                  "AsyncEventGnn: input row is not the node's polarity "
                  "one-hot");
    }
  }
  for (Index l = 0; l < model_.conv_count(); ++l) {
    for (Index v = 0; v < count; ++v) {
      if (r.pod_span_into(std::span<float>(
              feature_row(l, v), static_cast<size_t>(width_[l]))) !=
          width_[l]) {
        throw Error(ErrorCode::CheckpointCorrupt,
                    "AsyncEventGnn: feature row width mismatch");
      }
    }
  }
  r.pod_vector(pooled_sum_);
  r.pod_vector(pooled_max_);
  if (static_cast<Index>(pooled_sum_.size()) != model_.config().hidden ||
      pooled_max_.size() != pooled_sum_.size()) {
    throw Error(ErrorCode::CheckpointMismatch,
                "AsyncEventGnn: pooled width " +
                    std::to_string(pooled_sum_.size()) + " vs model hidden " +
                    std::to_string(model_.config().hidden));
  }
  count_ = count;
  // Rebuild the derived projection cache from the restored features.
  refresh_projection_table();
  for (Index l = 1; l < model_.conv_count(); ++l) {
    const GraphConv& conv = model_.conv(l);
    for (Index v = 0; v < count_; ++v) {
      conv.project(feature_row(l - 1, v), projection_row(l, v));
    }
  }
}

bool AsyncEventGnn::recompute(Index layer, Index v, AsyncGnnStats& stats) {
  const GraphConv& conv = model_.conv(layer);
  const auto& neighbors = adj_[static_cast<size_t>(v)];
  const auto& pv = nodes_[static_cast<size_t>(v)].position;

  // Neighbour references point at the cached projections of the layer's
  // inputs (member scratch: no allocation once capacity has warmed up).
  refs_.clear();
  for (const Index j : neighbors) {
    const auto& pj = nodes_[static_cast<size_t>(j)].position;
    refs_.push_back(
        {projection_row(layer, j), pj.x - pv.x, pj.y - pv.y, pj.z - pv.z});
  }
  conv.apply_node_projected(layer_input(layer, v), refs_, fresh_.data());
  stats.macs += conv.node_macs(static_cast<Index>(neighbors.size()));
  ++stats.node_layer_recomputes;

  const auto width = static_cast<size_t>(width_[layer]);
  float* stored = feature_row(layer, v);
  bool changed = false;
  const bool last_layer = (layer + 1 == model_.conv_count());
  for (size_t f = 0; f < width; ++f) {
    if (std::fabs(fresh_[f] - stored[f]) > kEps) changed = true;
  }
  if (!changed) return false;
  if (last_layer) {
    for (size_t f = 0; f < width; ++f) {
      pooled_sum_[f] += static_cast<double>(fresh_[f]) - stored[f];
      pooled_max_[f] = std::max(pooled_max_[f], fresh_[f]);
    }
  }
  std::copy(fresh_.begin(), fresh_.begin() + static_cast<std::ptrdiff_t>(width),
            stored);
  // Cache rule: a stored change refreshes the next layer's projection of v.
  if (!last_layer) {
    model_.conv(layer + 1).project(stored, projection_row(layer + 1, v));
  }
  return true;
}

AsyncGnnStats AsyncEventGnn::insert(const GraphNode& node,
                                    std::span<const Index> neighbors) {
  AsyncGnnStats stats;
  const Index id = count_;
  const auto sid = static_cast<size_t>(id);
  if (sid < nodes_.size()) {
    // Reuse a slot prepared by reserve() (or left behind by reset()):
    // assignment into retained storage, no allocation while the neighbour
    // list fits the slot's warmed-up capacity.
    nodes_[sid] = node;
    adj_[sid].assign(neighbors.begin(), neighbors.end());
    out_adj_[sid].clear();
  } else {
    nodes_.push_back(node);
    adj_.emplace_back(neighbors.begin(), neighbors.end());
    out_adj_.emplace_back();
    ensure_slots(nodes_.size());
  }
  // Zeroed features, and their projections: w * 0 is +-0 for finite w and
  // +0 + -0 = +0, so the projection of a zero row is exactly +0.0f.
  for (Index l = 0; l < model_.conv_count(); ++l) {
    std::fill_n(feature_row(l, id), width_[l], 0.0f);
    if (l > 0) std::fill_n(projection_row(l, id), width_[l], 0.0f);
  }
  if (id == 0) refresh_projection_table();
  ++count_;

  for (const Index j : neighbors) {
    if (j < 0 || j >= id) {
      throw std::invalid_argument("AsyncEventGnn::insert: bad neighbour id");
    }
    if (bidirectional_) {
      out_adj_[static_cast<size_t>(j)].push_back(id);
      adj_[static_cast<size_t>(j)].push_back(id);
      out_adj_[sid].push_back(j);
    }
  }

  if (!bidirectional_) {
    // Causal fast path, equivalent to the generic propagation below: edges
    // only point from earlier events to the new node, so no existing node's
    // in-neighbourhood changed and the dirty set is always exactly {id} —
    // the set machinery degenerates to recomputing the new node layer by
    // layer until a layer reports no change.
    for (Index l = 0; l < model_.conv_count(); ++l) {
      if (!recompute(l, id, stats)) break;
    }
    return stats;
  }

  // Seed of changed nodes per layer: the new node always needs computing;
  // in bidirectional mode its neighbours' in-sets changed too.
  std::unordered_set<Index> dirty;
  dirty.insert(id);
  for (const Index j : neighbors) dirty.insert(j);

  for (Index l = 0; l < model_.conv_count(); ++l) {
    std::unordered_set<Index> changed;
    for (const Index v : dirty) {
      if (recompute(l, v, stats)) changed.insert(v);
    }
    if (l + 1 == model_.conv_count()) break;
    // A change at node v at layer l affects, at layer l+1, v itself and
    // every node whose in-neighbourhood contains v.
    std::unordered_set<Index> next;
    for (const Index v : changed) {
      next.insert(v);
      for (const Index w : out_adj_[static_cast<size_t>(v)]) next.insert(w);
    }
    if (next.empty()) break;
    dirty = std::move(next);
  }
  return stats;
}

nn::Tensor AsyncEventGnn::logits() {
  nn::Tensor out({model_.config().num_classes});
  logits_into(out);
  return out;
}

void AsyncEventGnn::logits_into(nn::Tensor& out) {
  const Index f = static_cast<Index>(pooled_sum_.size());
  const Index n = node_count();
  if (n > 0) {
    for (Index c = 0; c < f; ++c) {
      pooled_scratch_[c] =
          static_cast<float>(pooled_sum_[static_cast<size_t>(c)] /
                             static_cast<double>(n));
      pooled_scratch_[f + c] = pooled_max_[static_cast<size_t>(c)];
    }
  } else {
    pooled_scratch_.zero();
  }
  model_.head().forward_into(pooled_scratch_, out);
}

std::int64_t AsyncEventGnn::full_recompute_macs() const {
  std::int64_t macs = 0;
  for (Index l = 0; l < model_.conv_count(); ++l) {
    const auto& conv = const_cast<EventGnn&>(model_).conv(l);
    for (Index v = 0; v < count_; ++v) {
      macs += conv.node_macs(
          static_cast<Index>(adj_[static_cast<size_t>(v)].size()));
    }
  }
  return macs;
}

}  // namespace evd::gnn
