#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>

#include "gnn/graph_builder.hpp"
#include "gnn/incremental.hpp"
#include "test_util.hpp"

namespace evd::gnn {
namespace {

TEST(IncrementalBuilder, MatchesBatchBuilderWithAmpleCapacity) {
  const auto stream = test::make_stream(24, 24, 400, 1);
  GraphBuildConfig batch_config;
  batch_config.radius = 3.0f;
  batch_config.max_neighbors = 8;
  batch_config.max_nodes = 400;
  IncrementalConfig inc_config;
  inc_config.radius = 3.0f;
  inc_config.max_neighbors = 8;
  inc_config.cell_capacity = 256;  // never evicts within this test

  const EventGraph batch = build_graph(stream, batch_config);
  const EventGraph incremental =
      build_graph_incremental(stream, inc_config, 400);

  ASSERT_EQ(batch.node_count(), incremental.node_count());
  for (Index i = 0; i < batch.node_count(); ++i) {
    std::vector<Index> a(batch.neighbors(i).begin(),
                         batch.neighbors(i).end());
    std::vector<Index> b(incremental.neighbors(i).begin(),
                         incremental.neighbors(i).end());
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b) << "node " << i;
  }
}

TEST(IncrementalBuilder, InsertReturnsSortedNearestNeighbors) {
  IncrementalConfig config;
  config.radius = 5.0f;
  config.max_neighbors = 2;
  IncrementalGraphBuilder builder(16, 16, config);
  builder.insert({5, 5, Polarity::On, 0});
  builder.insert({6, 5, Polarity::On, 10});
  builder.insert({8, 5, Polarity::On, 20});
  const auto result = builder.insert({5, 6, Polarity::On, 30});
  // Nearest two of the three earlier nodes: (5,5) then (6,5).
  ASSERT_EQ(result.neighbors.size(), 2u);
  EXPECT_EQ(result.neighbors[0], 0);
  EXPECT_EQ(result.neighbors[1], 1);
}

TEST(IncrementalBuilder, TimeHorizonExcludesStaleNodes) {
  IncrementalConfig config;
  config.radius = 3.0f;
  config.time_scale = 1e-4;  // horizon = 30 ms
  IncrementalGraphBuilder builder(16, 16, config);
  builder.insert({5, 5, Polarity::On, 0});
  const auto result = builder.insert({5, 5, Polarity::On, 500000});  // 0.5 s
  EXPECT_TRUE(result.neighbors.empty());
}

TEST(IncrementalBuilder, RingBufferEvictsOldest) {
  IncrementalConfig config;
  config.radius = 4.0f;
  config.cell_capacity = 2;
  config.max_neighbors = 8;
  IncrementalGraphBuilder builder(8, 8, config);
  builder.insert({1, 1, Polarity::On, 0});   // id 0, evicted later
  builder.insert({1, 1, Polarity::On, 10});  // id 1
  builder.insert({1, 1, Polarity::On, 20});  // id 2 -> cell holds {1, 2}
  const auto result = builder.insert({1, 1, Polarity::On, 30});
  ASSERT_EQ(result.neighbors.size(), 2u);
  EXPECT_TRUE(std::find(result.neighbors.begin(), result.neighbors.end(), 0) ==
              result.neighbors.end());
}

TEST(IncrementalBuilder, CandidateScanIsBounded) {
  IncrementalConfig config;
  config.cell_capacity = 16;
  IncrementalGraphBuilder builder(64, 64, config);
  const auto stream = test::make_stream(64, 64, 2000, 2);
  Index max_scanned = 0;
  for (const auto& e : stream.events) {
    max_scanned = std::max(max_scanned, builder.insert(e).candidates_scanned);
  }
  // 3x3 cells x 16 slots = 144 worst case, regardless of node count.
  EXPECT_LE(max_scanned, 144);
  EXPECT_EQ(builder.node_count(), 2000);
}

// Full-sort reference for insert_into's neighbour selection: mirror the
// grid rings with per-cell deques (newest first, capped at cell_capacity),
// collect every in-radius candidate with the same newest-first horizon
// break, sort all of them by (d2, id) and keep the first max_neighbors.
class FullSortReference {
 public:
  FullSortReference(Index width, Index height, const IncrementalConfig& c)
      : config_(c),
        cell_size_(std::max(c.radius, 1.0f)),
        grid_w_(static_cast<Index>(std::ceil(static_cast<double>(width) /
                                             cell_size_))),
        grid_h_(static_cast<Index>(std::ceil(static_cast<double>(height) /
                                             cell_size_))),
        horizon_(static_cast<TimeUs>(static_cast<double>(c.radius) /
                                     c.time_scale) +
                 1),
        cells_(static_cast<size_t>(grid_w_ * grid_h_)) {}

  /// Returns the expected neighbours; `tied` is set when the cut at
  /// max_neighbors falls between two candidates of equal d2.
  std::vector<Index> insert(const events::Event& e, bool& tied) {
    const Point3 p = embed(e, config_.time_scale);
    const Index cx = static_cast<Index>(static_cast<float>(e.x) / cell_size_);
    const Index cy = static_cast<Index>(static_cast<float>(e.y) / cell_size_);
    std::vector<std::pair<float, Index>> within;
    for (Index ny = cy - 1; ny <= cy + 1; ++ny) {
      for (Index nx = cx - 1; nx <= cx + 1; ++nx) {
        if (nx < 0 || ny < 0 || nx >= grid_w_ || ny >= grid_h_) continue;
        for (const Index id : cells_[static_cast<size_t>(ny * grid_w_ + nx)]) {
          const auto& [q, t] = nodes_[static_cast<size_t>(id)];
          if (e.t - t > horizon_) break;
          const float d2 = squared_distance(q, p);
          if (d2 <= config_.radius * config_.radius) {
            within.emplace_back(d2, id);
          }
        }
      }
    }
    std::sort(within.begin(), within.end());
    const auto keep = static_cast<size_t>(config_.max_neighbors);
    tied = within.size() > keep && keep > 0 &&
           within[keep - 1].first == within[keep].first;
    if (within.size() > keep) within.resize(keep);
    std::vector<Index> ids;
    for (const auto& entry : within) ids.push_back(entry.second);

    const Index id = static_cast<Index>(nodes_.size());
    nodes_.emplace_back(p, e.t);
    auto& home = cells_[static_cast<size_t>(
        std::min(cy, grid_h_ - 1) * grid_w_ + std::min(cx, grid_w_ - 1))];
    home.push_front(id);
    if (static_cast<Index>(home.size()) > config_.cell_capacity) {
      home.pop_back();
    }
    return ids;
  }

 private:
  IncrementalConfig config_;
  float cell_size_;
  Index grid_w_, grid_h_;
  TimeUs horizon_;
  std::vector<std::deque<Index>> cells_;
  std::vector<std::pair<Point3, TimeUs>> nodes_;
};

TEST(IncrementalBuilder, NeighbourSelectionMatchesFullSortWithTies) {
  // Integer pixels make many candidates equidistant. At time_scale 1e-6 the
  // temporal offset vanishes in float rounding next to any pixel offset,
  // so exact d2 ties are common; at 1e-3 the 3 ms horizon cuts scans short.
  // Small rings (capacity 3 and 5) wrap constantly.
  Index tied_cuts = 0;
  Index checked = 0;
  for (const double time_scale : {1e-6, 1e-3}) {
    for (const Index capacity : {Index{3}, Index{5}, Index{16}}) {
      for (const Index max_neighbors : {Index{1}, Index{3}, Index{8}}) {
        IncrementalConfig config;
        config.radius = 3.0f;
        config.time_scale = time_scale;
        config.cell_capacity = capacity;
        config.max_neighbors = max_neighbors;
        IncrementalGraphBuilder builder(12, 12, config);
        FullSortReference reference(12, 12, config);
        Rng rng(static_cast<std::uint64_t>(capacity * 100 + max_neighbors));
        std::vector<Index> got;
        TimeUs t = 0;
        for (Index i = 0; i < 600; ++i) {
          t += static_cast<TimeUs>(rng.uniform_int(3)) * 50;  // repeats too
          const events::Event e{
              static_cast<std::int16_t>(rng.uniform_int(12)),
              static_cast<std::int16_t>(rng.uniform_int(12)),
              rng.bernoulli(0.5) ? Polarity::On : Polarity::Off, t};
          bool tied = false;
          const std::vector<Index> want = reference.insert(e, tied);
          builder.insert_into(e, got);
          ASSERT_EQ(got, want) << "event " << i << " capacity " << capacity
                               << " k " << max_neighbors;
          tied_cuts += tied ? 1 : 0;
          ++checked;
        }
      }
    }
  }
  EXPECT_EQ(checked, 2 * 3 * 3 * 600);
  // The property is only interesting if the cut often splits a tie.
  EXPECT_GT(tied_cuts, 100);
}

TEST(IncrementalBuilder, LoadRejectsAMalformedCellRing) {
  IncrementalConfig config;
  config.cell_capacity = 4;
  IncrementalGraphBuilder builder(8, 8, config);
  for (int i = 0; i < 10; ++i) {
    builder.insert({static_cast<std::int16_t>(i % 8), 1, Polarity::On,
                    static_cast<TimeUs>(i)});
  }
  std::vector<std::uint8_t> bytes;
  fault::CheckpointWriter w(bytes, std::size_t{1} << 20);
  builder.save(w);
  // Layout: grid w, h, capacity, node span, then the first cell's ring
  // (length-prefixed ids) and its cursor.
  const size_t cursor_at = 4 * sizeof(std::int64_t) +
                           10 * sizeof(GraphNode) + sizeof(std::int64_t) +
                           4 * sizeof(Index);
  const std::int64_t past_end = 4;  // cursor must be < cell_capacity
  std::memcpy(bytes.data() + cursor_at, &past_end, sizeof(past_end));
  IncrementalGraphBuilder restored(8, 8, config);
  fault::CheckpointReader r(bytes);
  try {
    restored.load(r);
    FAIL() << "malformed ring accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::CheckpointCorrupt);
  }
}

TEST(IncrementalBuilder, ClearResets) {
  IncrementalGraphBuilder builder(8, 8, IncrementalConfig{});
  builder.insert({1, 1, Polarity::On, 0});
  builder.clear();
  EXPECT_EQ(builder.node_count(), 0);
  const auto result = builder.insert({1, 1, Polarity::On, 10});
  EXPECT_TRUE(result.neighbors.empty());
}

TEST(IncrementalBuilder, StateBytesTracked) {
  IncrementalGraphBuilder builder(32, 32, IncrementalConfig{});
  const Index before = builder.state_bytes();
  for (int i = 0; i < 100; ++i) {
    builder.insert({5, 5, Polarity::On, static_cast<TimeUs>(i)});
  }
  EXPECT_GT(builder.state_bytes(), before);
}

TEST(IncrementalBuilder, BadGeometryThrows) {
  EXPECT_THROW(IncrementalGraphBuilder(0, 8, IncrementalConfig{}),
               std::invalid_argument);
}

}  // namespace
}  // namespace evd::gnn
