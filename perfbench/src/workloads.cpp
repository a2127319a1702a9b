#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "events/aer.hpp"
#include "fault/admission.hpp"
#include "fault/injector.hpp"
#include "route/route.hpp"
#include "sched/planner.hpp"

namespace perfbench {

namespace ev = evd::events;

const char* paradigm_name(Paradigm p) noexcept {
  switch (p) {
    case Paradigm::Cnn: return "cnn";
    case Paradigm::Snn: return "snn";
    case Paradigm::Gnn: return "gnn";
  }
  return "?";
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

// Why each workload exists (see README.md for the full rationale):
//  gnn_dense      per-event graph update + message pass dominate pump time;
//                 ingress and runtime are a few percent.
//  tenants_snn    ~10^3 light SNN tenants on 4 shards: pump rounds visit
//                 mostly-idle sessions and clocked SNNs catch up on silent
//                 steps, so ingress, runtime, shard and SNN stepping show.
//  mixed_planned  CNN/SNN/GNN sessions on sparse-corner and full-frame
//                 streams under an installed plan with online re-planning
//                 and periodic checkpoints; CNN conv dominates.

WorkloadSpec gnn_dense(std::uint64_t seed) {
  WorkloadSpec spec;
  spec.name = "gnn_dense";
  evd::gnn::GnnPipelineConfig gnn;
  gnn.width = spec.width;
  gnn.height = spec.height;
  gnn.model.hidden = 32;
  gnn.model.layers = 2;
  gnn.stream_stride = 1;
  gnn.stream_max_nodes = 2048;
  spec.gnn = gnn;
  constexpr Index kSessions = 4;
  spec.paradigm.assign(kSessions, Paradigm::Gnn);
  spec.session_config.assign(kSessions, {});
  spec.tape = make_shape_tape(seed, kSessions, spec.width, spec.height,
                              /*events_per_session=*/12000, /*tick_us=*/2000);
  return spec;
}

WorkloadSpec tenants_snn(std::uint64_t seed) {
  WorkloadSpec spec;
  spec.name = "tenants_snn";
  spec.width = 16;
  spec.height = 16;
  evd::snn::SnnPipelineConfig snn;
  snn.width = spec.width;
  snn.height = spec.height;
  snn.num_classes = 2;
  snn.hidden = 16;
  snn.timestep_us = 5000;
  snn.decision_retain = 4096;
  spec.snn = snn;
  constexpr Index kTenants = 1000;
  spec.paradigm.assign(kTenants, Paradigm::Snn);
  evd::runtime::ManagedSessionConfig config;
  config.queue_capacity = 512;
  spec.session_config.assign(kTenants, config);
  spec.shards = 4;
  spec.aer = true;
  spec.admission = true;
  spec.tape = make_tenant_tape(seed, kTenants, spec.width,
                               /*arrivals=*/160000, /*zipf_s=*/1.1,
                               /*tick_us=*/1000);
  return spec;
}

WorkloadSpec mixed_planned(std::uint64_t seed) {
  WorkloadSpec spec;
  spec.name = "mixed_planned";
  evd::cnn::CnnPipelineConfig cnn;
  cnn.width = spec.width;
  cnn.height = spec.height;
  cnn.base_filters = 4;
  cnn.frame_period_us = 20000;
  spec.cnn = cnn;
  evd::snn::SnnPipelineConfig snn;
  snn.width = spec.width;
  snn.height = spec.height;
  snn.hidden = 64;
  snn.timestep_us = 5000;
  spec.snn = snn;
  evd::gnn::GnnPipelineConfig gnn;
  gnn.width = spec.width;
  gnn.height = spec.height;
  gnn.model.hidden = 16;
  gnn.model.layers = 2;
  gnn.stream_stride = 4;
  gnn.stream_max_nodes = 1024;
  spec.gnn = gnn;

  // Session s has paradigm s % 3 (cnn, snn, gnn). Every CNN starts on the
  // 8x8 corner (~6% activity) and two of them turn full-frame halfway, so
  // the replan hook sees the activity shift; SNN and GNN mix full-frame and
  // corner streams. Even sessions checkpoint every 1024 applied ops.
  constexpr Index kSessions = 12;
  MixedStreamSpec streams;
  streams.full = {false, true, true, false, true, true,
                  false, false, false, false, false, false};
  streams.shift = {false, false, false, false, false, false,
                   true, false, true, true, false, false};
  streams.events_per_session = 16000;
  streams.duration_us = 800000;
  streams.shift_at_us = 400000;
  for (Index s = 0; s < kSessions; ++s) {
    spec.paradigm.push_back(static_cast<Paradigm>(s % 3));
    evd::runtime::ManagedSessionConfig config;
    if (s % 2 == 0) config.checkpoint_every = 1024;
    spec.session_config.push_back(config);
  }
  spec.planned = true;
  spec.tape = make_mixed_tape(seed, streams, /*tick_us=*/1000);
  return spec;
}

/// AnnealerConfig for the single-worker serving loop: one region, the
/// manager's burst as the cap, a fixed search seed (the plan depends only on
/// the session profiles, never on the workload seed).
evd::sched::AnnealerConfig annealer_config() {
  evd::sched::AnnealerConfig config;
  config.seed = 7;
  config.iterations = 300;
  config.restarts = 2;
  config.region_count = 1;
  config.burst_cap = 256;
  return config;
}

std::vector<evd::sched::SessionProfile> profiles_for(
    Pipelines& pipelines, const WorkloadSpec& spec,
    const std::vector<double>& activity) {
  std::vector<evd::sched::SessionProfile> profiles;
  for (std::size_t s = 0; s < spec.paradigm.size(); ++s) {
    profiles.push_back(evd::sched::profile_for(
        pipelines.of(spec.paradigm[s]), paradigm_name(spec.paradigm[s]),
        /*queued_ops=*/256, activity[s]));
  }
  return profiles;
}

}  // namespace

WorkloadSpec make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "gnn_dense") return gnn_dense(seed);
  if (name == "tenants_snn") return tenants_snn(seed);
  if (name == "mixed_planned") return mixed_planned(seed);
  throw std::invalid_argument("unknown workload: " + name);
}

Pipelines::Pipelines(const WorkloadSpec& spec) {
  if (spec.cnn) cnn = std::make_unique<evd::cnn::CnnPipeline>(*spec.cnn);
  if (spec.snn) snn = std::make_unique<evd::snn::SnnPipeline>(*spec.snn);
  if (spec.gnn) gnn = std::make_unique<evd::gnn::GnnPipeline>(*spec.gnn);
}

evd::core::EventPipeline& Pipelines::of(Paradigm p) {
  switch (p) {
    case Paradigm::Cnn: return *cnn;
    case Paradigm::Snn: return *snn;
    case Paradigm::Gnn: return *gnn;
  }
  throw std::logic_error("bad paradigm");
}

std::unique_ptr<evd::core::StreamSession> Pipelines::open(
    Paradigm p, const WorkloadSpec& spec) {
  return of(p).open_session(spec.width, spec.height);
}

void warm_up(Pipelines& pipelines, const WorkloadSpec& spec) {
  for (int p = 0; p < kParadigms; ++p) {
    const auto paradigm = static_cast<Paradigm>(p);
    const auto first = std::find(spec.paradigm.begin(), spec.paradigm.end(),
                                 paradigm);
    if (first == spec.paradigm.end()) continue;
    const auto& ops = spec.tape.session_ops[static_cast<std::size_t>(
        first - spec.paradigm.begin())];
    auto session = pipelines.open(paradigm, spec);
    const std::size_t n = std::min<std::size_t>(ops.size(), 512);
    for (std::size_t i = 0; i < n; ++i) {
      session->feed(spec.tape.arrivals[ops[i]].event);
    }
  }
}

std::unique_ptr<Serving> set_up(const WorkloadSpec& spec) {
  evd::shard::ShardManagerConfig config;
  config.shards = spec.shards;
  auto serving = std::make_unique<Serving>(spec, config);
  evd::shard::ShardManager& manager = serving->manager;
  if (spec.admission) {
    evd::fault::AdmissionConfig admission;
    admission.enabled = true;
    for (Index s = 0; s < manager.shard_count(); ++s) {
      manager.shard(s).set_admission(admission);
    }
  }
  Pipelines& pipelines = serving->pipelines;
  for (std::size_t s = 0; s < spec.paradigm.size(); ++s) {
    evd::runtime::ManagedSessionConfig session_config = spec.session_config[s];
    if (spec.inject_fault && s == 1) {
      session_config.checkpoint_every = 0;
      session_config.restore_on_fault = false;
    }
    const Paradigm p = spec.paradigm[s];
    serving->ids.push_back(manager.add(
        [&pipelines, &spec, p] { return pipelines.open(p, spec); },
        session_config));
  }
  if (spec.inject_fault) {
    // Session 1 throws on its 100th applied op; with restore off it is
    // quarantined and everything submitted afterwards is refused.
    evd::fault::FaultPlan plan;
    plan.kind = evd::fault::FaultKind::SessionThrow;
    plan.after = 100;
    plan.max_fires = 1;
    plan.target = 1;
    evd::fault::Injector::instance().arm("runtime.pump.op_fault", plan);
    evd::fault::set_enabled(true);
  }
  if (spec.planned) {
    // Planning starts cold in every set-up, as in a fresh process.
    evd::sched::Planner::instance().clear_cache();
    serving->planned_activity.assign(spec.paradigm.size(), 1.0);
    const auto t0 = now_ns();
    evd::sched::Plan plan = evd::sched::Planner::instance().plan_for(
        profiles_for(pipelines, spec, serving->planned_activity),
        annealer_config());
    serving->plan_ms = static_cast<double>(now_ns() - t0) * 1e-6;
    evd::runtime::SessionManager& inner = manager.shard(0);
    inner.set_plan(std::move(plan));
    Serving* sv = serving.get();
    const WorkloadSpec* sp = &spec;
    inner.set_replan(
        [sv, sp](std::span<const Index>, std::span<const double> activity)
            -> std::optional<evd::sched::Plan> {
          // Plan on activity quantised to eighths, so the same mix hits the
          // planner cache and small drifts keep the current plan.
          std::vector<double> q(activity.size());
          for (std::size_t i = 0; i < q.size(); ++i) {
            q[i] = std::round(activity[i] * 8.0) / 8.0;
          }
          if (q == sv->planned_activity) return std::nullopt;
          sv->planned_activity = q;
          ++sv->replans;
          return evd::sched::Planner::instance().plan_for(
              profiles_for(sv->pipelines, *sp, q), annealer_config());
        },
        /*window=*/16);
  }
  warm_up(pipelines, spec);
  return serving;
}

ServeResult serve(Serving& serving, const WorkloadSpec& spec, Timing timing) {
  const Tape& tape = spec.tape;
  evd::shard::ShardManager& manager = serving.manager;
  const auto& ids = serving.ids;
  const auto sessions = static_cast<std::size_t>(tape.sessions);
  const bool stamped = timing == Timing::Stamped;
  const bool phase_timed = timing == Timing::Phases;
  const bool tick_timed = timing == Timing::Ticks;
  ServeResult r;
  r.streams.assign(sessions, {});
  r.refused_by.assign(sessions, 0);
  if (stamped) {
    r.submit_ns.assign(tape.arrivals.size(), 0);
    r.marks.reserve(tape.tick_end.size() * 4);
  }
  if (tick_timed) r.tick_ns.reserve(tape.tick_end.size());
  std::vector<std::uint8_t> touched_flag(sessions, 0);
  std::vector<std::int32_t> touched;
  touched.reserve(sessions);
  std::vector<ev::Event> decoded;
  PhaseTimes& ph = r.phases;

  const std::int64_t start = now_ns();
  std::int64_t tick_start = start;
  std::size_t begin = 0;
  for (std::size_t k = 0; k < tape.tick_end.size(); ++k) {
    const std::size_t end = tape.tick_end[k];
    std::int64_t t0 = phase_timed ? now_ns() : 0;
    if (spec.aer) {
      decoded = ev::raw32_decode(tape.packets[k]);
      if (phase_timed) {
        const std::int64_t t1 = now_ns();
        ph.decode_ns += static_cast<double>(t1 - t0);
        t0 = t1;
      }
    }
    for (std::size_t i = begin; i < end; ++i) {
      const Arrival& a = tape.arrivals[i];
      const auto s = static_cast<std::size_t>(a.session);
      const ev::Event& e = spec.aer ? decoded[i - begin] : a.event;
      if (stamped) r.submit_ns[i] = now_ns();
      if (!manager.submit(ids[s], e)) {
        ++r.refused;
        r.refused_by[s] = 1;
      }
      if (touched_flag[s] == 0) {
        touched_flag[s] = 1;
        touched.push_back(a.session);
      }
    }
    std::int64_t t1 = phase_timed ? now_ns() : 0;
    while (manager.pump() > 0) ++ph.rounds;
    const std::int64_t t2 = phase_timed ? now_ns() : 0;
    for (const std::int32_t s : touched) {
      auto& stream = r.streams[static_cast<std::size_t>(s)];
      manager.drain(ids[static_cast<std::size_t>(s)], stream);
      if (stamped) r.marks.push_back({s, stream.size(), now_ns()});
      touched_flag[static_cast<std::size_t>(s)] = 0;
    }
    if (phase_timed) {
      const std::int64_t t3 = now_ns();
      ph.submit_ns += static_cast<double>(t1 - t0);
      ph.pump_ns += static_cast<double>(t2 - t1);
      ph.drain_ns += static_cast<double>(t3 - t2);
      ph.active_share_sum += static_cast<double>(touched.size()) /
                             static_cast<double>(sessions);
      if (spec.planned) {
        Index non_default = 0;
        for (const auto id : ids) {
          non_default += manager.session(id).execution_path() !=
                                 evd::route::PathId::Default
                             ? 1
                             : 0;
        }
        ph.non_default_sum += static_cast<double>(non_default);
      }
      ++ph.ticks;
    }
    if (tick_timed) {
      const std::int64_t tick_end = now_ns();
      r.tick_ns.push_back(tick_end - tick_start);
      tick_start = tick_end;
    }
    r.events += static_cast<std::int64_t>(end - begin);
    touched.clear();
    begin = end;
  }
  r.wall_s = static_cast<double>(now_ns() - start) * 1e-9;
  return r;
}

FeedResult feed_direct(Pipelines& pipelines, const WorkloadSpec& spec) {
  const Tape& tape = spec.tape;
  FeedResult f;
  f.streams.assign(static_cast<std::size_t>(tape.sessions), {});
  for (std::size_t s = 0; s < f.streams.size(); ++s) {
    const Paradigm p = spec.paradigm[s];
    auto session = pipelines.open(p, spec);
    const auto& ops = tape.session_ops[s];
    auto& stream = f.streams[s];
    const std::int64_t t0 = now_ns();
    // Drain as often as the serving loop does (once per fed tick at most),
    // so the bounded decision sink never evicts undrained decisions.
    for (std::size_t i = 0; i < ops.size(); ++i) {
      session->feed(tape.arrivals[ops[i]].event);
      if ((i & 255) == 255) session->drain(stream);
    }
    session->drain(stream);
    const std::int64_t t1 = now_ns();
    const auto pi = static_cast<int>(p);
    f.ns[pi] += static_cast<double>(t1 - t0);
    f.events[pi] += static_cast<std::int64_t>(ops.size());
    f.decisions[pi] += static_cast<std::int64_t>(stream.size());
  }
  return f;
}

}  // namespace perfbench
