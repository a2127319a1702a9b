// Plan-driven pumping in the SessionManager: installation rules, FIFO
// preservation under arbitrary plans, the EVD_SCHED kill-switch, plan
// carriage through checkpoint bytes, and fault interaction (quarantine
// under a single-region plan leaves neighbours bitwise unchanged).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/error.hpp"
#include "fault/checkpoint.hpp"
#include "fault/injector.hpp"
#include "runtime/session_manager.hpp"
#include "sched/plan.hpp"

namespace evd::runtime {
namespace {

events::Event event_at(TimeUs t) {
  events::Event e;
  e.x = static_cast<std::int16_t>(t % 7);
  e.y = 3;
  e.polarity = Polarity::On;
  e.t = t;
  return e;
}

/// Deterministic recording session (the decision stream is the op stream).
class RecordingSession final : public SessionBase {
 public:
  RecordingSession() : SessionBase(SessionBaseConfig{64, 64, "test"}) {}

  std::vector<TimeUs> seen;

 private:
  void on_event(const events::Event& event) override {
    seen.push_back(event.t);
  }
  void on_advance(TimeUs t) override {
    core::Decision d;
    d.t = t;
    d.label = static_cast<int>(seen.size());
    d.confidence = 1.0;
    emit(d);
  }
};

/// RecordingSession that can checkpoint: the event-time log is the state.
class CheckpointedRecordingSession final : public SessionBase {
 public:
  CheckpointedRecordingSession() : SessionBase(SessionBaseConfig{0, 64, "test"}) {}

  std::vector<TimeUs> seen;

 private:
  void on_event(const events::Event& event) override {
    seen.push_back(event.t);
  }
  void on_advance(TimeUs t) override {
    core::Decision d;
    d.t = t;
    d.label = static_cast<int>(seen.size());
    d.confidence = 1.0;
    emit(d);
  }
  bool checkpoint_supported() const override { return true; }
  void on_save(fault::CheckpointWriter& w) const override {
    w.pod_vector(seen);
  }
  void on_load(fault::CheckpointReader& r) override { r.pod_vector(seen); }
};

/// RAII guard: force the kill-switch for a scope, restore on exit.
struct ScopedSched {
  bool previous = sched::enabled();
  explicit ScopedSched(bool on) { sched::set_enabled(on); }
  ~ScopedSched() { sched::set_enabled(previous); }
};

/// A deliberately twisted plan for `n` sessions: one region visiting them
/// in reverse id order with staggered bursts — nothing like the legacy
/// deal, which is the point.
sched::Plan reversed_plan(Index n, Index burst_cap = 3) {
  sched::Plan plan;
  plan.session_count = n;
  plan.burst_cap = burst_cap;
  plan.regions.resize(1);
  for (Index s = n - 1; s >= 0; --s) {
    plan.regions[0].entries.push_back({s, 1 + (s % burst_cap)});
  }
  plan.refresh_labels();
  return plan;
}

std::vector<std::vector<TimeUs>> run_schedule(SessionManager& manager,
                                              std::vector<RecordingSession*>&
                                                  raw,
                                              std::vector<SessionId>& ids,
                                              Index sessions) {
  for (Index s = 0; s < sessions; ++s) {
    auto session = std::make_unique<RecordingSession>();
    raw.push_back(session.get());
    ids.push_back(manager.add(std::move(session)));
  }
  for (TimeUs t = 0; t < 24; ++t) {
    for (size_t s = 0; s < ids.size(); ++s) {
      manager.submit(ids[s], event_at(t * 10 + static_cast<TimeUs>(s)));
      if (t % 6 == 5) manager.submit_advance(ids[s], t * 10 + 9);
    }
    if (t % 3 == 0) manager.pump();
  }
  manager.pump_all();
  std::vector<std::vector<TimeUs>> streams;
  for (auto* session : raw) streams.push_back(session->seen);
  return streams;
}

TEST(SchedRuntime, SetPlanRejectsMismatchedOrInvalidPlans) {
  SessionManager manager;
  manager.add(std::make_unique<RecordingSession>());
  manager.add(std::make_unique<RecordingSession>());

  // Valid plan for the wrong population size.
  try {
    manager.set_plan(sched::Plan::round_robin(3, 2, 2));
    FAIL() << "expected InvalidArgument";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::InvalidArgument);
  }

  // Structurally broken plan.
  sched::Plan broken = sched::Plan::round_robin(2, 2, 2);
  broken.regions[0].entries[0].session = 5;
  EXPECT_THROW(manager.set_plan(broken), Error);
  EXPECT_FALSE(manager.has_plan());

  manager.set_plan(sched::Plan::round_robin(2, 2, 2));
  EXPECT_TRUE(manager.has_plan());
  EXPECT_FALSE(manager.plan_bytes().empty());
  manager.clear_plan();
  EXPECT_FALSE(manager.has_plan());
  EXPECT_TRUE(manager.plan_bytes().empty());
  EXPECT_THROW(manager.plan(), Error);
}

TEST(SchedRuntime, PlannedPumpPreservesEverySessionsFifoOrder) {
  ScopedSched on(true);
  SessionManager manager(/*burst=*/2);
  std::vector<RecordingSession*> raw;
  std::vector<SessionId> ids;
  // Install before any traffic: the whole run is plan-driven.
  for (Index s = 0; s < 4; ++s) {
    auto session = std::make_unique<RecordingSession>();
    raw.push_back(session.get());
    ids.push_back(manager.add(std::move(session)));
  }
  manager.set_plan(reversed_plan(4));
  for (TimeUs t = 0; t < 12; ++t) {
    for (size_t s = 0; s < ids.size(); ++s) {
      manager.submit(ids[s], event_at(t * 100 + static_cast<TimeUs>(s)));
    }
  }
  manager.pump_all();
  for (size_t s = 0; s < raw.size(); ++s) {
    ASSERT_EQ(raw[s]->seen.size(), 12u);
    for (TimeUs t = 0; t < 12; ++t) {
      EXPECT_EQ(raw[s]->seen[static_cast<size_t>(t)],
                t * 100 + static_cast<TimeUs>(s));
    }
  }
}

TEST(SchedRuntime, AnyPlanYieldsTheSameStreamsAsNoPlan) {
  ScopedSched on(true);
  std::vector<std::vector<TimeUs>> unplanned, planned;
  {
    SessionManager manager(/*burst=*/2);
    std::vector<RecordingSession*> raw;
    std::vector<SessionId> ids;
    unplanned = run_schedule(manager, raw, ids, 4);
  }
  {
    SessionManager manager(/*burst=*/2);
    std::vector<RecordingSession*> raw;
    std::vector<SessionId> ids;
    for (Index s = 0; s < 4; ++s) {
      auto session = std::make_unique<RecordingSession>();
      raw.push_back(session.get());
      ids.push_back(manager.add(std::move(session)));
    }
    manager.set_plan(reversed_plan(4));
    // Re-run the identical submit schedule against the planned manager.
    for (TimeUs t = 0; t < 24; ++t) {
      for (size_t s = 0; s < ids.size(); ++s) {
        manager.submit(ids[s], event_at(t * 10 + static_cast<TimeUs>(s)));
        if (t % 6 == 5) manager.submit_advance(ids[s], t * 10 + 9);
      }
      if (t % 3 == 0) manager.pump();
    }
    manager.pump_all();
    for (auto* session : raw) planned.push_back(session->seen);
  }
  EXPECT_EQ(planned, unplanned);
}

TEST(SchedRuntime, KillSwitchFallsBackToTheLegacyPump) {
  // With EVD_SCHED off an installed plan must be inert: the pump behaves
  // exactly as if the subsystem did not exist (the CI leg proves the
  // byte-level version of this across the whole tier-1 suite).
  ScopedSched off(false);
  SessionManager manager(/*burst=*/2);
  std::vector<RecordingSession*> raw;
  std::vector<SessionId> ids;
  for (Index s = 0; s < 3; ++s) {
    auto session = std::make_unique<RecordingSession>();
    raw.push_back(session.get());
    ids.push_back(manager.add(std::move(session)));
  }
  manager.set_plan(reversed_plan(3));
  for (TimeUs t = 0; t < 6; ++t) {
    for (size_t s = 0; s < ids.size(); ++s) {
      manager.submit(ids[s], event_at(t + static_cast<TimeUs>(100 * s)));
    }
  }
  manager.pump_all();
  for (auto* session : raw) EXPECT_EQ(session->seen.size(), 6u);
  // The plan stays installed (flipping the switch back re-engages it).
  EXPECT_TRUE(manager.has_plan());
}

TEST(SchedRuntime, PlanBytesRestoreIntoAFreshManager) {
  SessionManager source;
  source.add(std::make_unique<RecordingSession>());
  source.add(std::make_unique<RecordingSession>());
  sched::Plan plan = sched::Plan::round_robin(2, 2, 4);
  plan.regions[0].entries[0].burst = 2;  // make it distinguishable
  plan.refresh_labels();
  source.set_plan(plan);

  // The checkpoint-framed bytes are the transport: a restored manager
  // resumes under the very same plan.
  const std::vector<std::uint8_t> bytes = source.plan_bytes();
  SessionManager restored;
  restored.add(std::make_unique<RecordingSession>());
  restored.add(std::make_unique<RecordingSession>());
  restored.install_plan_bytes(bytes);
  ASSERT_TRUE(restored.has_plan());
  EXPECT_TRUE(restored.plan() == plan);
  EXPECT_EQ(restored.plan().fingerprint(), plan.fingerprint());
  EXPECT_EQ(restored.plan_bytes(), bytes);

  // Bytes for the wrong population are refused at install time.
  SessionManager wrong_size;
  wrong_size.add(std::make_unique<RecordingSession>());
  EXPECT_THROW(wrong_size.install_plan_bytes(bytes), Error);
}

class SchedFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::Injector::instance().reset(); }
  void TearDown() override {
    fault::Injector::instance().reset();
    fault::set_enabled(false);
  }
};

TEST_F(SchedFaultTest, QuarantineUnderAPlanLeavesNeighboursBitwiseUnchanged) {
  ScopedSched on(true);
  // One region visiting all sessions: the faulted session shares
  // its worker with every neighbour, the worst case for blast radius.
  const auto run = [&](bool inject) {
    SessionManager manager(/*burst=*/2);
    std::vector<RecordingSession*> raw;
    std::vector<SessionId> ids;
    for (Index s = 0; s < 3; ++s) {
      auto session = std::make_unique<RecordingSession>();
      raw.push_back(session.get());
      ids.push_back(manager.add(std::move(session)));
    }
    manager.set_plan(reversed_plan(3));
    for (TimeUs t = 0; t < 10; ++t) {
      for (size_t s = 0; s < ids.size(); ++s) {
        manager.submit(ids[s], event_at(t * 10 + static_cast<TimeUs>(s)));
      }
    }
    if (inject) {
      fault::FaultPlan fp;
      fp.kind = fault::FaultKind::SessionThrow;
      fp.target = ids[1];
      fp.after = 3;
      fp.max_fires = 1;
      fault::ScopedInjection injection("runtime.pump.op_fault", fp);
      manager.pump_all();
      EXPECT_EQ(manager.state(ids[1]), SessionState::Faulted);
    } else {
      manager.pump_all();
    }
    std::vector<std::vector<TimeUs>> streams;
    for (size_t s = 0; s < raw.size(); ++s) {
      if (s != 1) streams.push_back(raw[s]->seen);
    }
    return streams;
  };
  const auto clean = run(false);
  const auto faulted = run(true);
  EXPECT_EQ(faulted, clean);  // neighbours 0 and 2, element-exact
}

TEST_F(SchedFaultTest, CheckpointRestoreReplaysUnderThePlannedPump) {
  ScopedSched on(true);
  const auto run = [&](bool inject) {
    SessionManager manager(/*burst=*/2);
    std::vector<CheckpointedRecordingSession*> raw;
    std::vector<SessionId> ids;
    ManagedSessionConfig config;
    config.checkpoint_every = 4;
    for (Index s = 0; s < 2; ++s) {
      auto session = std::make_unique<CheckpointedRecordingSession>();
      raw.push_back(session.get());
      ids.push_back(manager.add(std::move(session), config));
    }
    manager.set_plan(reversed_plan(2));
    for (TimeUs t = 0; t < 12; ++t) {
      for (size_t s = 0; s < ids.size(); ++s) {
        manager.submit(ids[s], event_at(t * 10 + static_cast<TimeUs>(s)));
      }
    }
    if (inject) {
      fault::FaultPlan fp;
      fp.kind = fault::FaultKind::SessionThrow;
      fp.target = ids[0];
      fp.after = 6;
      fp.max_fires = 1;
      fault::ScopedInjection injection("runtime.pump.op_fault", fp);
      manager.pump_all();
      // The session restores from its checkpoint, replays and retries —
      // mid-round, under the planned pump.
      EXPECT_EQ(manager.state(ids[0]), SessionState::Active);
      EXPECT_EQ(manager.stats().faults.restores, 1);
    } else {
      manager.pump_all();
    }
    EXPECT_TRUE(manager.has_plan());
    std::vector<std::vector<TimeUs>> streams;
    for (auto* session : raw) streams.push_back(session->seen);
    return streams;
  };
  const auto clean = run(false);
  const auto faulted = run(true);
  EXPECT_EQ(faulted, clean);  // recovery is invisible in the op streams
}

}  // namespace
}  // namespace evd::runtime
