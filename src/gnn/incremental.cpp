#include "gnn/incremental.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "gnn/graph_builder.hpp"

namespace evd::gnn {

IncrementalGraphBuilder::IncrementalGraphBuilder(Index width, Index height,
                                                 IncrementalConfig config)
    : config_(config), cell_size_(std::max(config.radius, 1.0f)) {
  if (width <= 0 || height <= 0) {
    throw std::invalid_argument("IncrementalGraphBuilder: bad geometry");
  }
  grid_w_ = static_cast<Index>(std::ceil(static_cast<double>(width) /
                                         static_cast<double>(cell_size_)));
  grid_h_ = static_cast<Index>(std::ceil(static_cast<double>(height) /
                                         static_cast<double>(cell_size_)));
  cells_.resize(static_cast<size_t>(grid_w_ * grid_h_));
  for (auto& cell : cells_) {
    cell.ids.assign(static_cast<size_t>(config_.cell_capacity), -1);
  }
  // A neighbour at distance <= radius in embedded space can be at most
  // radius/time_scale microseconds in the past.
  horizon_us_ = static_cast<TimeUs>(
      static_cast<double>(config_.radius) / config_.time_scale) + 1;
  within_.resize(static_cast<size_t>(9 * config_.cell_capacity));
}

void IncrementalGraphBuilder::clear() {
  for (auto& cell : cells_) {
    std::fill(cell.ids.begin(), cell.ids.end(), -1);
    cell.cursor = 0;
    cell.count = 0;
  }
  nodes_.clear();
}

void IncrementalGraphBuilder::save(fault::CheckpointWriter& w) const {
  w.i64(grid_w_);
  w.i64(grid_h_);
  w.i64(config_.cell_capacity);
  w.pod_vector(nodes_);
  for (const Cell& cell : cells_) {
    w.pod_vector(cell.ids);
    w.i64(cell.cursor);
    w.i64(cell.count);
  }
}

void IncrementalGraphBuilder::load(fault::CheckpointReader& r) {
  const Index gw = r.i64();
  const Index gh = r.i64();
  const Index cap = r.i64();
  if (gw != grid_w_ || gh != grid_h_ || cap != config_.cell_capacity) {
    throw Error(ErrorCode::CheckpointMismatch,
                "IncrementalGraphBuilder: checkpointed grid " +
                    std::to_string(gw) + "x" + std::to_string(gh) + "/" +
                    std::to_string(cap) + " vs configured " +
                    std::to_string(grid_w_) + "x" + std::to_string(grid_h_) +
                    "/" + std::to_string(config_.cell_capacity));
  }
  r.pod_vector(nodes_);
  // The ring walk in insert_into indexes by these fields unchecked.
  const auto node_count = static_cast<Index>(nodes_.size());
  for (Cell& cell : cells_) {
    r.pod_vector(cell.ids);
    cell.cursor = r.i64();
    cell.count = r.i64();
    const bool ring_ok =
        static_cast<Index>(cell.ids.size()) == cap && cell.cursor >= 0 &&
        cell.cursor < cap && cell.count >= 0 && cell.count <= cap &&
        std::all_of(cell.ids.begin(), cell.ids.end(), [&](Index id) {
          return id >= -1 && id < node_count;
        });
    if (!ring_ok) {
      throw Error(ErrorCode::CheckpointCorrupt,
                  "IncrementalGraphBuilder: malformed cell ring");
    }
  }
}

Index IncrementalGraphBuilder::state_bytes() const noexcept {
  return static_cast<Index>(cells_.size() *
                            (static_cast<size_t>(config_.cell_capacity) *
                                 sizeof(Index) +
                             2 * sizeof(Index)) +
                            nodes_.size() * sizeof(GraphNode));
}

IncrementalGraphBuilder::InsertResult IncrementalGraphBuilder::insert(
    const events::Event& event) {
  InsertResult result;
  result.neighbors.reserve(static_cast<size_t>(config_.max_neighbors));
  result.node_id =
      insert_into(event, result.neighbors, &result.candidates_scanned);
  return result;
}

Index IncrementalGraphBuilder::insert_into(const events::Event& event,
                                           std::vector<Index>& out_neighbors,
                                           Index* candidates_scanned) {
  out_neighbors.clear();
  size_t in_radius = 0;
  Index scanned = 0;
  const Point3 p = embed(event, config_.time_scale);
  const float r2 = config_.radius * config_.radius;
  const auto keep =
      static_cast<size_t>(std::max<Index>(config_.max_neighbors, 0));

  const Index cx = static_cast<Index>(static_cast<float>(event.x) / cell_size_);
  const Index cy = static_cast<Index>(static_cast<float>(event.y) / cell_size_);

  // Gather candidates from the 3x3 cell neighbourhood (cell_size >= radius
  // guarantees coverage).
  for (Index dy = -1; dy <= 1; ++dy) {
    const Index ny = cy + dy;
    if (ny < 0 || ny >= grid_h_) continue;
    for (Index dx = -1; dx <= 1; ++dx) {
      const Index nx = cx + dx;
      if (nx < 0 || nx >= grid_w_) continue;
      const Cell& cell = cell_at(nx, ny);
      // Newest-first ring walk: slot cursor-1, cursor-2, ..., wrapping
      // from 0 to cell_capacity-1.
      Index slot = cell.cursor;
      for (Index k = 0; k < cell.count; ++k) {
        slot = (slot == 0 ? config_.cell_capacity : slot) - 1;
        const Index id = cell.ids[static_cast<size_t>(slot)];
        if (id < 0) continue;
        const auto& candidate = nodes_[static_cast<size_t>(id)];
        ++scanned;
        // Candidates are scanned newest-first; once one is beyond the time
        // horizon, everything older in this cell is too.
        if (event.t - candidate.t > horizon_us_) break;
        const float d2 = squared_distance(candidate.position, p);
        // Branch-free append: the slot is always written and kept only
        // when in radius (at most 9 * cell_capacity slots are ever used).
        within_[in_radius] = {d2, id};
        in_radius += (d2 <= r2) ? 1 : 0;
      }
    }
  }
  // Only the max_neighbors nearest survive, so order just that prefix.
  // Ids are unique, so (d2, id) is a total order and the prefix is exactly
  // that of a full sort.
  const size_t kept = std::min(in_radius, keep);
  const auto begin = within_.begin();
  std::partial_sort(begin, begin + static_cast<std::ptrdiff_t>(kept),
                    begin + static_cast<std::ptrdiff_t>(in_radius));
  for (size_t i = 0; i < kept; ++i) out_neighbors.push_back(within_[i].second);

  // Append the node and register it in its cell's ring buffer.
  GraphNode node;
  node.position = p;
  node.polarity_sign =
      static_cast<std::int8_t>(polarity_sign(event.polarity));
  node.t = event.t;
  const Index node_id = static_cast<Index>(nodes_.size());
  nodes_.push_back(node);

  Cell& home = cell_at(std::min(cx, grid_w_ - 1), std::min(cy, grid_h_ - 1));
  home.ids[static_cast<size_t>(home.cursor)] = node_id;
  home.cursor = (home.cursor + 1) % config_.cell_capacity;
  home.count = std::min(home.count + 1, config_.cell_capacity);
  if (candidates_scanned != nullptr) *candidates_scanned = scanned;
  return node_id;
}

EventGraph build_graph_incremental(const events::EventStream& stream,
                                   const IncrementalConfig& config,
                                   Index max_nodes) {
  const std::vector<events::Event> sampled =
      subsample_events(stream.events, max_nodes);
  IncrementalGraphBuilder builder(std::max<Index>(stream.width, 1),
                                  std::max<Index>(stream.height, 1), config);
  EventGraph graph;
  for (const auto& e : sampled) {
    auto result = builder.insert(e);
    GraphNode node;
    node.position = embed(e, config.time_scale);
    node.polarity_sign = static_cast<std::int8_t>(polarity_sign(e.polarity));
    node.t = e.t;
    graph.add_node(node, std::move(result.neighbors));
  }
  return graph;
}

}  // namespace evd::gnn
