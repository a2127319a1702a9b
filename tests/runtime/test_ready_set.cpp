// The unplanned pump's ready set, as a property over generated schedules.
//
// A ShardManager with two shards serves ~150 sessions per shard (each inner
// manager's ready set spans three 64-bit words) while a generated schedule
// submits to at most 10% of them per round, in bursts larger than the pump
// burst, under DropOldest and DropNewest overflow, with advance-only rounds,
// a session quarantined by a validation trip and later restore()d, plans
// installed and cleared while ops are queued, and live migrations. A
// reference model runs the pump's specification — every Active session with
// queued ops pops up to `burst` of them, in FIFO order, every round — and
// after every pump the test asserts:
//   * the ready-set invariant: every Active session with queued ops is in
//     its manager's ready set;
//   * every queue holds exactly what the model's does (no session starves);
//   * ledger conservation over the aggregate stats;
// and, at the end, every decision stream is bitwise equal to feeding the
// model's applied ops sequentially into a fresh session.
#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "check/property.hpp"
#include "runtime/session_base.hpp"
#include "runtime/session_manager.hpp"
#include "sched/plan.hpp"
#include "shard/shard_manager.hpp"

namespace evd::runtime {
namespace {

constexpr Index kSessions = 300;
constexpr Index kBurst = 3;
constexpr Index kQueueCapacity = 8;
constexpr Index kWidth = 64;

/// Folds every op it applies into a running hash and emits a decision per
/// op, so a reordered, lost or duplicated op shows in the decision stream.
/// Checkpointable, so the manager can restore it.
class TraceSession final : public SessionBase {
 public:
  TraceSession() : SessionBase(config()) {}

 private:
  static SessionBaseConfig config() {
    SessionBaseConfig c;
    c.arena_bytes = 64;
    c.decision_retain = 1 << 20;
    c.paradigm = "trace";
    return c;
  }

  void on_event(const events::Event& e) override {
    mix(static_cast<std::uint64_t>(e.t) * 131 + static_cast<std::uint64_t>(e.x));
    decide(e.t);
  }
  void on_advance(TimeUs t) override {
    mix(static_cast<std::uint64_t>(t) ^ 0xA5A5A5A5ULL);
    decide(t);
  }
  void mix(std::uint64_t v) {
    hash_ = (hash_ ^ v) * 0x100000001B3ULL;
    ++ops_;
  }
  void decide(TimeUs t) {
    core::Decision d;
    d.t = t;
    d.label = static_cast<int>(ops_);
    d.confidence = static_cast<double>(hash_ >> 11);
    emit(d);
  }

  bool checkpoint_supported() const override { return true; }
  void on_save(fault::CheckpointWriter& w) const override {
    w.i64(static_cast<std::int64_t>(hash_));
    w.i64(ops_);
  }
  void on_load(fault::CheckpointReader& r) override {
    hash_ = static_cast<std::uint64_t>(r.i64());
    ops_ = r.i64();
  }

  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
  Index ops_ = 0;
};

/// One session of the reference model.
struct ModelSession {
  OverflowPolicy policy = OverflowPolicy::DropNewest;
  std::deque<StreamOp> queue;
  std::vector<StreamOp> applied;  ///< In application order.
  bool faulted = false;
  TimeUs t = 0;  ///< Last submitted stream time.
};

struct Model {
  std::vector<ModelSession> sessions;
  std::int64_t dropped = 0;           ///< Overflow losses, both policies.
  std::int64_t rejected_faulted = 0;  ///< Submits to a quarantined session.
  std::int64_t evictions = 0;         ///< The DropOldest share of dropped.

  static bool malformed(const StreamOp& op) {
    return op.kind == StreamOp::Kind::Feed && op.event.x >= kWidth;
  }
  void submit(Index s, const StreamOp& op) {
    ModelSession& m = sessions[static_cast<size_t>(s)];
    if (m.faulted) {
      ++rejected_faulted;
      return;
    }
    if (static_cast<Index>(m.queue.size()) == kQueueCapacity) {
      ++dropped;
      if (m.policy == OverflowPolicy::DropNewest) return;
      ++evictions;
      m.queue.pop_front();
    }
    m.queue.push_back(op);
  }
  /// Pop up to `limit` ops in FIFO order; a malformed op quarantines the
  /// session and its backlog is lost.
  void serve(Index s, Index limit) {
    ModelSession& m = sessions[static_cast<size_t>(s)];
    for (Index k = 0; k < limit && !m.faulted && !m.queue.empty(); ++k) {
      const StreamOp op = m.queue.front();
      m.queue.pop_front();
      if (malformed(op)) {
        m.faulted = true;
        m.queue.clear();
      } else {
        m.applied.push_back(op);
      }
    }
  }
  std::int64_t applied_total() const {
    std::int64_t n = 0;
    for (const ModelSession& m : sessions) {
      n += static_cast<std::int64_t>(m.applied.size());
    }
    return n;
  }
};

/// The inner id a global session currently has on its shard.
SessionId inner_id(shard::ShardManager& sm, SessionId global) {
  SessionManager& inner = sm.shard(sm.shard_of(global));
  const core::StreamSession* target = &sm.session(global);
  for (SessionId i = 0; i < inner.session_count(); ++i) {
    if (inner.state(i) != SessionState::Retired &&
        &inner.session(i) == target) {
      return i;
    }
  }
  return -1;
}

/// The checks run after every pump; empty when all hold.
std::optional<std::string> check_round(shard::ShardManager& sm,
                                       const Model& model, Index round) {
  const std::string at = " (round " + std::to_string(round) + ")";
  for (Index k = 0; k < sm.shard_count(); ++k) {
    SessionManager& inner = sm.shard(k);
    for (SessionId i = 0; i < inner.session_count(); ++i) {
      if (inner.state(i) == SessionState::Active && inner.queued(i) > 0 &&
          !inner.ready(i)) {
        return "shard " + std::to_string(k) + " session " +
               std::to_string(i) + " has " + std::to_string(inner.queued(i)) +
               " queued ops but is not in the ready set" + at;
      }
    }
  }
  std::int64_t queued = 0;
  for (SessionId s = 0; s < kSessions; ++s) {
    const ModelSession& m = model.sessions[static_cast<size_t>(s)];
    const Index got = sm.queued(s);
    if (got != static_cast<Index>(m.queue.size())) {
      return "session " + std::to_string(s) + " queues " +
             std::to_string(got) + " ops, the model " +
             std::to_string(m.queue.size()) + at;
    }
    queued += got;
    const bool faulted = sm.state(s) == SessionState::Faulted;
    if (faulted != m.faulted) {
      return "session " + std::to_string(s) + " quarantine state differs" + at;
    }
  }
  const shard::ShardManager::Stats st = sm.stats();
  if (st.ingress_ops != st.queues.popped + queued + st.queues.dropped +
                            st.shedding.rejected_faulted) {
    return "ledger: " + std::to_string(st.ingress_ops) +
           " ops accepted != popped " + std::to_string(st.queues.popped) +
           " + queued " + std::to_string(queued) + " + dropped " +
           std::to_string(st.queues.dropped) + " + rejected " +
           std::to_string(st.shedding.rejected_faulted) + at;
  }
  if (st.queues.popped != model.applied_total() + st.faults.quarantine_dropped) {
    return "ledger: popped " + std::to_string(st.queues.popped) +
           " != applied " + std::to_string(model.applied_total()) +
           " + quarantine-dropped " +
           std::to_string(st.faults.quarantine_dropped) + at;
  }
  if (st.queues.dropped != model.dropped ||
      st.shedding.rejected_faulted != model.rejected_faulted) {
    return "ledger: overflow / quarantine rejections differ from the model" +
           at;
  }
  return std::nullopt;
}

struct Scenario {
  std::uint64_t seed = 1;
  Index rounds = 8;
};

/// What the generated scenarios exercised, summed over every case run, so
/// the test can show that each feature it lists actually happened.
struct Coverage {
  Index restores = 0;
  Index migrations = 0;
  Index planned_rounds = 0;
  Index advance_only_bursts = 0;
  Index backlogged_rounds = 0;  ///< Rounds that ended with ops still queued.
  std::int64_t evictions = 0;   ///< DropOldest losses.
};
Coverage g_coverage;

check::Gen<Scenario> scenario_gen() {
  check::Gen<Scenario> gen;
  gen.sample = [](Rng& rng) {
    Scenario s;
    s.seed = rng.next_u64();
    s.rounds = 24 + static_cast<Index>(rng.uniform_int(40));
    return s;
  };
  gen.shrink = [](const Scenario& s) {
    std::vector<Scenario> out;
    if (s.rounds > 8) out.push_back({s.seed, s.rounds / 2});
    if (s.rounds > 8) out.push_back({s.seed, s.rounds - 1});
    return out;
  };
  gen.show = [](const Scenario& s) {
    return "seed " + std::to_string(s.seed) + ", " + std::to_string(s.rounds) +
           " rounds";
  };
  return gen;
}

std::optional<std::string> run_scenario(const Scenario& sc) {
  Rng rng(sc.seed);
  shard::ShardManagerConfig config;
  config.shards = 2;
  config.burst = kBurst;
  shard::ShardManager sm(config);
  Model model;
  model.sessions.resize(static_cast<size_t>(kSessions));
  for (SessionId s = 0; s < kSessions; ++s) {
    ManagedSessionConfig mc;
    mc.queue_capacity = kQueueCapacity;
    mc.overflow = s % 2 == 0 ? OverflowPolicy::DropOldest
                             : OverflowPolicy::DropNewest;
    mc.checkpoint_every = 4;
    mc.validate_width = kWidth;
    model.sessions[static_cast<size_t>(s)].policy = mc.overflow;
    sm.add([] { return std::make_unique<TraceSession>(); }, mc);
  }
  for (Index k = 0; k < sm.shard_count(); ++k) {
    if (sm.shard(k).session_count() < 130) {
      return "precondition: shard " + std::to_string(k) + " holds only " +
             std::to_string(sm.shard(k).session_count()) + " sessions";
    }
  }
  const auto victim = static_cast<SessionId>(rng.uniform_int(kSessions));
  const Index fault_round = sc.rounds / 4;
  const Index restore_round = sc.rounds / 2;

  for (Index round = 0; round < sc.rounds; ++round) {
    if (round == restore_round && model.sessions[static_cast<size_t>(victim)].faulted) {
      const SessionId inner = inner_id(sm, victim);
      if (!sm.shard(sm.shard_of(victim)).restore(inner)) {
        return std::string("restore() of the quarantined session failed");
      }
      model.sessions[static_cast<size_t>(victim)].faulted = false;
      ++g_coverage.restores;
    }
    // Submissions: at most 10% of the sessions, bursts up to 4x the pump
    // burst, some rounds advance-only.
    const Index active = 1 + static_cast<Index>(rng.uniform_int(kSessions / 10));
    for (Index a = 0; a < active; ++a) {
      const auto s = static_cast<SessionId>(rng.uniform_int(kSessions));
      ModelSession& m = model.sessions[static_cast<size_t>(s)];
      const Index ops = 1 + static_cast<Index>(rng.uniform_int(4 * kBurst));
      const bool advance_only = rng.uniform_int(5) == 0;
      g_coverage.advance_only_bursts += advance_only ? 1 : 0;
      for (Index o = 0; o < ops; ++o) {
        m.t += 1 + static_cast<TimeUs>(rng.uniform_int(50));
        StreamOp op;
        if (advance_only || rng.uniform_int(4) == 0) {
          op = StreamOp::advance(m.t);
          sm.submit_advance(s, m.t);
        } else {
          events::Event e;
          e.x = static_cast<std::int16_t>(rng.uniform_int(kWidth));
          e.y = static_cast<std::int16_t>(rng.uniform_int(kWidth));
          e.polarity = Polarity::On;
          e.t = m.t;
          op = StreamOp::feed(e);
          sm.submit(s, e);
        }
        model.submit(s, op);
      }
    }
    if (round == fault_round) {
      // A validation trip quarantines the victim when it is applied.
      ModelSession& m = model.sessions[static_cast<size_t>(victim)];
      events::Event bad;
      bad.x = static_cast<std::int16_t>(kWidth + 5);
      bad.t = ++m.t;
      sm.submit(victim, bad);
      model.submit(victim, StreamOp::feed(bad));
    }
    // Plans come and go while ops are queued (a plan gives every session
    // the manager's burst, so the model is the same either way).
    const Index k = (round / 5) % sm.shard_count();
    if (round % 5 == 1) {
      sm.shard(k).set_plan(
          sched::Plan::round_robin(sm.shard(k).session_count(), 2, kBurst));
    } else if (round % 5 == 3) {
      sm.shard(k).clear_plan();
    }
    // Migration flushes the source shard (every backlog on it is applied),
    // then moves one session.
    if (round % 7 == 3) {
      const auto s = static_cast<SessionId>(rng.uniform_int(kSessions));
      if (s != victim) {
        const Index from = sm.shard_of(s);
        for (SessionId o = 0; o < kSessions; ++o) {
          if (sm.shard_of(o) == from) model.serve(o, kQueueCapacity);
        }
        sm.migrate(s, 1 - from);
        ++g_coverage.migrations;
      }
    }
    for (Index shard = 0; shard < sm.shard_count(); ++shard) {
      const SessionManager& inner = sm.shard(shard);
      if (inner.has_plan() &&
          inner.plan().session_count == inner.session_count()) {
        ++g_coverage.planned_rounds;
      }
    }
    sm.pump();
    for (SessionId s = 0; s < kSessions; ++s) model.serve(s, kBurst);
    if (auto failure = check_round(sm, model, round)) return failure;
    for (const ModelSession& m : model.sessions) {
      if (!m.queue.empty()) {
        ++g_coverage.backlogged_rounds;
        break;
      }
    }
  }
  g_coverage.evictions += model.evictions;

  sm.pump_all();
  for (SessionId s = 0; s < kSessions; ++s) model.serve(s, kQueueCapacity);
  if (auto failure = check_round(sm, model, sc.rounds)) return failure;
  for (SessionId s = 0; s < kSessions; ++s) {
    std::vector<core::Decision> served;
    sm.drain(s, served);
    TraceSession reference;
    for (const StreamOp& op : model.sessions[static_cast<size_t>(s)].applied) {
      if (op.kind == StreamOp::Kind::Feed) {
        reference.feed(op.event);
      } else {
        reference.advance_to(op.t);
      }
    }
    std::vector<core::Decision> want;
    reference.drain(want);
    if (served != want) {
      return "session " + std::to_string(s) + ": " +
             std::to_string(served.size()) + " served decisions differ from " +
             std::to_string(want.size()) + " sequential ones";
    }
  }
  return std::nullopt;
}

TEST(SessionManagerReadySet, PumpMatchesTheSpecificationOverGeneratedSchedules) {
  check::CheckConfig config;
  config.cases = 12;
  g_coverage = {};
  const check::CheckResult result =
      check::forall(scenario_gen(), run_scenario, config);
  EXPECT_TRUE(result.passed) << result.summary();
  EXPECT_GT(g_coverage.restores, 0);
  EXPECT_GT(g_coverage.migrations, 0);
  EXPECT_GT(g_coverage.planned_rounds, 0);
  EXPECT_GT(g_coverage.advance_only_bursts, 0);
  EXPECT_GT(g_coverage.backlogged_rounds, 0);
  EXPECT_GT(g_coverage.evictions, 0);
}

TEST(SessionManagerReadySet, IdleRoundsProcessNothingAndKeepTheSetEmpty) {
  SessionManager manager(/*burst=*/2);
  for (Index s = 0; s < 130; ++s) {
    manager.add(std::make_unique<TraceSession>());
  }
  events::Event e;
  e.x = 1;
  for (TimeUs t = 1; t <= 5; ++t) {
    e.t = t;
    manager.submit(129, e);  // the third bitmap word
  }
  EXPECT_TRUE(manager.ready(129));
  EXPECT_FALSE(manager.ready(0));
  EXPECT_EQ(manager.pump(), 2);
  EXPECT_TRUE(manager.ready(129));  // backlog left: back in the set
  manager.pump_all();
  EXPECT_FALSE(manager.ready(129));
  EXPECT_EQ(manager.pump(), 0);
  EXPECT_THROW((void)manager.ready(130), Error);
}

}  // namespace
}  // namespace evd::runtime
