// Steady-state allocation audit for the streaming sessions and the pump.
//
// This TU replaces the global allocation functions with counting versions
// (which is why it builds into its own test binary, evd_alloc_tests): the
// zero-allocation claim in src/runtime/arena.hpp is enforced here, not just
// documented. Scope of the claim, per paradigm:
//   * GNN  — the ENTIRE per-event path (graph insert, incremental inference,
//            softmax, decision emit, and the graph-recycle restart) is
//            allocation-free after session construction;
//   * CNN  — per-event ingest is allocation-free; the dense forward at a
//            frame close may allocate (bounded by the frame clock);
//   * SNN  — the ENTIRE streaming path (per-event binning, and the timestep
//            itself on both the clocked and the event-driven route, readout
//            and decision included) is allocation-free after warm-up.
// And for the runtime: a SessionManager::pump() round with nothing queued
// allocates nothing, neither does a round that serves SNN sessions, and
// neither does the re-plan window close when the hook keeps the plan.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <span>

#include "cnn/cnn_pipeline.hpp"
#include "gnn/gnn_pipeline.hpp"
#include "route/route.hpp"
#include "runtime/session_manager.hpp"
#include "snn/snn_pipeline.hpp"

namespace {
std::atomic<std::int64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace evd::runtime {
namespace {

events::Event event_at(Index i, TimeUs t) {
  events::Event e;
  e.x = static_cast<std::int16_t>(i % 16);
  e.y = static_cast<std::int16_t>((i / 16) % 16);
  e.polarity = (i % 2 == 0) ? Polarity::On : Polarity::Off;
  e.t = t;
  return e;
}

template <typename Fn>
std::int64_t allocations_during(Fn&& fn) {
  const std::int64_t before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(ZeroAlloc, GnnFullPerEventPathIsAllocationFree) {
  gnn::GnnPipelineConfig config;
  config.width = 16;
  config.height = 16;
  config.num_classes = 2;
  config.model.hidden = 8;
  config.model.layers = 2;
  config.stream_stride = 1;     // insert (and classify on) every event
  config.stream_max_nodes = 64; // recycle happens inside the measured window
  config.decision_retain = 32;  // sink compaction happens inside it too
  gnn::GnnPipeline pipeline(config);
  auto session = pipeline.open_session(16, 16);

  // Warm-up: cross a recycle boundary once so any first-touch growth
  // (e.g. layer scratch sized on first recompute) is behind us.
  TimeUs t = 0;
  for (Index i = 0; i < 200; ++i) session->feed(event_at(i, t += 100));

  const std::int64_t allocs = allocations_during([&] {
    for (Index i = 0; i < 300; ++i) session->feed(event_at(i * 3, t += 100));
  });
  EXPECT_EQ(allocs, 0) << "GNN steady-state feed() must not touch the heap";
  EXPECT_EQ(session->stats().decisions_emitted, 500);
}

TEST(ZeroAlloc, CnnIntraFrameFeedIsAllocationFree) {
  cnn::CnnPipelineConfig config;
  config.width = 16;
  config.height = 16;
  config.num_classes = 2;
  config.base_filters = 2;
  config.frame_period_us = 1000000;  // the window never closes mid-test
  cnn::CnnPipeline pipeline(config);
  auto session = pipeline.open_session(16, 16);

  session->feed(event_at(0, 10));  // touch the path once

  TimeUs t = 10;
  const std::int64_t allocs = allocations_during([&] {
    for (Index i = 0; i < 500; ++i) session->feed(event_at(i, t += 100));
    session->advance_to(t + 100);  // below the frame boundary: ingest only
  });
  EXPECT_EQ(allocs, 0) << "CNN event ingest must not touch the heap";
  EXPECT_EQ(session->stats().events_fed, 501);
}

TEST(ZeroAlloc, SnnIntraStepFeedIsAllocationFree) {
  snn::SnnPipelineConfig config;
  config.width = 16;
  config.height = 16;
  config.num_classes = 2;
  config.hidden = 16;
  config.encoder.spatial_factor = 2;
  config.timestep_us = 1000000;  // no step boundary inside the test
  snn::SnnPipeline pipeline(config);
  auto session = pipeline.open_session(16, 16);

  session->feed(event_at(0, 10));

  TimeUs t = 10;
  const std::int64_t allocs = allocations_during([&] {
    for (Index i = 0; i < 500; ++i) session->feed(event_at(i, t += 100));
  });
  EXPECT_EQ(allocs, 0) << "SNN event binning must not touch the heap";
}

snn::SnnPipelineConfig stepping_snn_config() {
  snn::SnnPipelineConfig config;
  config.width = 16;
  config.height = 16;
  config.num_classes = 3;
  // Two neuron chunks on the clocked route, so its fork-join and chunk
  // concatenation both run inside the measured window.
  config.hidden = 200;
  config.encoder.spatial_factor = 2;
  config.timestep_us = 1000;
  return config;
}

TEST(ZeroAlloc, SnnTimestepIsAllocationFreeOnBothRoutes) {
  snn::SnnPipeline pipeline(stepping_snn_config());
  for (const route::PathId path :
       {route::PathId::Default, route::PathId::SnnEventDriven}) {
    auto session = pipeline.open_session(16, 16);
    ASSERT_TRUE(session->set_execution_path(path));

    // Warm-up: a few steps, so the pool's threads, the thread-local obs
    // shards and the transposed weights are all behind us.
    TimeUs t = 0;
    for (Index i = 0; i < 50; ++i) session->feed(event_at(i * 7, t += 300));

    const std::int64_t before = session->stats().decisions_emitted;
    const std::int64_t allocs = allocations_during([&] {
      for (Index i = 0; i < 2000; ++i) {
        session->feed(event_at(i * 5, t += 250));  // a step every 4 events
      }
      session->advance_to(t + 20000);  // 20 silent steps
    });
    EXPECT_EQ(allocs, 0) << "SNN timesteps on route "
                         << route::path_name(path)
                         << " must not touch the heap";
    EXPECT_GE(session->stats().decisions_emitted - before, 500);
  }
}

TEST(ZeroAlloc, IdleSessionManagerPumpIsAllocationFree) {
  snn::SnnPipelineConfig config = stepping_snn_config();
  config.hidden = 16;
  snn::SnnPipeline pipeline(config);
  SessionManager manager(/*burst=*/8);
  constexpr Index kSessions = 200;  // a four-word ready set
  for (Index s = 0; s < kSessions; ++s) {
    manager.add(pipeline.open_session(16, 16));
  }
  // Warm-up: serve every session once, then drain to idle.
  TimeUs t = 0;
  for (Index s = 0; s < kSessions; ++s) {
    manager.submit(s, event_at(s, t += 10));
  }
  manager.pump_all();

  const std::int64_t idle = allocations_during([&] {
    for (Index round = 0; round < 1000; ++round) {
      EXPECT_EQ(manager.pump(), 0);
    }
  });
  EXPECT_EQ(idle, 0) << "an idle pump() round must not touch the heap";

  // A working round on a few sessions, SNN timesteps included.
  const std::int64_t working = allocations_during([&] {
    for (Index round = 0; round < 100; ++round) {
      for (Index s = round % 10; s < kSessions; s += 37) {
        manager.submit(s, event_at(s + round, t += 400));
      }
      manager.pump_all();
    }
  });
  EXPECT_EQ(working, 0) << "serving SNN sessions must not touch the heap";
}

TEST(ZeroAlloc, ReplanWindowIsAllocationFreeWhenTheHookKeepsThePlan) {
  snn::SnnPipelineConfig config = stepping_snn_config();
  config.hidden = 16;
  snn::SnnPipeline pipeline(config);
  SessionManager manager(/*burst=*/8);
  constexpr Index kSessions = 12;
  for (Index s = 0; s < kSessions; ++s) {
    manager.add(pipeline.open_session(16, 16));
  }
  Index calls = 0;
  manager.set_replan(
      [&calls](std::span<const Index>,
               std::span<const double>) -> std::optional<sched::Plan> {
        ++calls;
        return std::nullopt;
      },
      /*window=*/4);
  // Backlog that swings by powers of two every few windows, so the
  // workload fingerprint drifts and the hook is really invoked.
  TimeUs t = 0;
  const auto serve = [&](Index round) {
    const Index burst = (round / 8) % 2 == 0 ? 1 : 24;
    for (Index s = 0; s < kSessions; ++s) {
      for (Index k = 0; k < burst; ++k) {
        manager.submit(s, event_at(s + k, t += 50));
      }
    }
    manager.pump_all();
  };
  for (Index round = 0; round < 32; ++round) serve(round);  // warm-up

  const Index calls_before = calls;
  const std::int64_t allocs = allocations_during([&] {
    for (Index round = 0; round < 64; ++round) serve(round);
  });
  EXPECT_EQ(allocs, 0) << "closing a re-plan window must not touch the heap";
  EXPECT_GT(calls - calls_before, 2) << "the hook never ran in the window";
  EXPECT_FALSE(manager.has_plan());
}

}  // namespace
}  // namespace evd::runtime
