// evd_perfbench: the repository benchmark program.
//
//   evd_perfbench --workload <gnn_dense|tenants_snn|mixed_planned>
//                 --seed <n> --seconds <s> --trace <0|1>
//                 [--git-sha <id>] [--inject-fault]
//
// --trace 0 measures the end-to-end metrics with tracing off: repeated
// (set-up, closed-loop serving pass) reps until --seconds have passed, two
// passes that read the clock once per tick (events_per_s) to one that
// stamps every submit and drain (latency). --trace 1 alternates
// phase-timed untraced passes, traced passes (obs spans on), and direct-feed
// passes, and reports the per-layer metrics plus a "where did the time go"
// table. Every pass is checked bitwise against direct sequential feeding of
// the same events (the ULP-0 invariant); lost ops and mismatched decisions
// count as failures, and any failure makes the run incorrect (exit code 1).
// The last stdout line is the JSON result.
#include <sys/resource.h>
#include <sys/utsname.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "check/oracles.hpp"
#include "common/parallel.hpp"
#include "fault/injector.hpp"
#include "obs/obs.hpp"
#include "route/route.hpp"
#include "sched/cost.hpp"
#include "sched/plan.hpp"
#include "sched/planner.hpp"
#include "simd/dispatch.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string git_sha = "unknown";
  bool inject_fault = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(key + " needs a value");
      return argv[++i];
    };
    if (key == "--workload") {
      a.workload = value();
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::stoull(value());
    } else if (key == "--seconds") {
      a.seconds = std::stod(value());
    } else if (key == "--trace") {
      a.trace = std::stoi(value());
    } else if (key == "--git-sha") {
      a.git_sha = value();
    } else if (key == "--inject-fault") {
      a.inject_fault = true;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (a.trace != 0 && a.trace != 1) {
    throw std::invalid_argument("--trace must be 0 or 1");
  }
  if (!(a.seconds > 0.0 && a.seconds <= 120.0)) {
    throw std::invalid_argument("--seconds must be in (0, 120]");
  }
  return a;
}

/// Quantile of sorted values, linear between order statistics.
double quantile_sorted(const std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  return quantile_sorted(v, q);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---- provenance -------------------------------------------------------------

std::uint64_t spin(std::uint64_t iters, std::uint64_t seed) {
  std::uint64_t x = seed;
  for (std::uint64_t i = 0; i < iters; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    x ^= x >> 29;
  }
  return x;
}

/// Effective parallel cores: k threads each run the same spin loop one
/// thread ran alone; k * t1 / tk is how many of them really ran at once.
double effective_cores(unsigned k) {
  constexpr std::uint64_t kIters = 20000000;
  std::uint64_t sink = 0;
  const std::int64_t a = now_ns();
  sink ^= spin(kIters, 1);
  const std::int64_t b = now_ns();
  std::vector<std::uint64_t> out(k, 0);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < k; ++t) {
    threads.emplace_back([&out, t] { out[t] = spin(kIters, t + 2); });
  }
  for (auto& th : threads) th.join();
  const std::int64_t c = now_ns();
  for (const auto v : out) sink ^= v;
  if (sink == 42) std::fprintf(stderr, " ");  // keeps the loops observable
  return static_cast<double>(k) * static_cast<double>(b - a) /
         static_cast<double>(c - b);
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

void print_provenance(const Args& args, const WorkloadSpec& spec) {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  struct utsname u {};
  uname(&u);
  std::printf(
      "{\"provenance\":{\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d,"
      "\"tape_digest\":\"%016llx\",\"effective_cores\":%.3f,"
      "\"hardware_concurrency\":%u,\"machine\":\"%s\",\"simd_tier\":\"%s\","
      "\"compiler\":\"%s\",\"git_sha\":\"%s\",\"workers\":%lld,"
      "\"shards\":%lld}}\n",
      spec.name.c_str(), static_cast<unsigned long long>(args.seed),
      args.trace, static_cast<unsigned long long>(spec.tape.digest()),
      effective_cores(hw), hw, json_escape(u.machine).c_str(),
      evd::simd::tier_name(evd::simd::active_tier()),
      json_escape(compiler()).c_str(), json_escape(args.git_sha).c_str(),
      static_cast<long long>(evd::par::thread_count()),
      static_cast<long long>(spec.shards));
}

// ---- correctness gate -------------------------------------------------------

/// Failures of a run. `refused`, `shed` and `evicted` break `dropped` and
/// `mismatched` down by cause; only those two count as failed, so no loss
/// is counted twice.
struct Ledger {
  std::int64_t attempted = 0;
  std::int64_t refused = 0;        ///< submit() returned false.
  std::int64_t shed = 0;           ///< Admission sheds and rejections.
  std::int64_t dropped = 0;        ///< Every op lost (incl. refused, shed).
  std::int64_t evicted = 0;        ///< Decisions evicted before a drain.
  std::int64_t lossy_streams = 0;  ///< Session streams that lost an op.
  /// Decisions differing from the reference (evicted ones included), in
  /// streams that lost no op: a lost op's divergence is already counted.
  std::int64_t mismatched = 0;

  std::int64_t failed() const { return dropped + mismatched; }
};

std::int64_t mismatches(const std::vector<evd::core::Decision>& got,
                        const std::vector<evd::core::Decision>& want) {
  const std::size_t n = std::min(got.size(), want.size());
  std::int64_t bad = 0;
  for (std::size_t i = 0; i < n; ++i) bad += got[i] == want[i] ? 0 : 1;
  return bad + static_cast<std::int64_t>(std::max(got.size(), want.size()) -
                                         n);
}

/// Gate one serving pass: ledger from the manager, streams vs reference.
void gate(const ServeResult& r, Serving& sv, const FeedResult& reference,
          Ledger& ledger) {
  const evd::shard::ShardManager::Stats st = sv.manager.stats();
  ledger.attempted += r.events;
  ledger.refused += r.refused;
  ledger.shed += st.shedding.rate_limited + st.shedding.shed_noise +
                 st.shedding.rejected_overload + st.shedding.rejected_faulted;
  ledger.dropped += st.totals.events_dropped;
  ledger.evicted += st.totals.decisions_dropped;
  for (std::size_t s = 0; s < reference.streams.size(); ++s) {
    const bool lost_op = r.refused_by[s] != 0 ||
                         sv.manager.stats(sv.ids[s]).events_dropped > 0;
    if (lost_op) {
      ++ledger.lossy_streams;
    } else {
      ledger.mismatched += mismatches(r.streams[s], reference.streams[s]);
    }
  }
}

void gate_feed(const FeedResult& f, const FeedResult& reference,
               Ledger& ledger) {
  for (std::size_t s = 0; s < reference.streams.size(); ++s) {
    ledger.mismatched += mismatches(f.streams[s], reference.streams[s]);
  }
}

// ---- latency ------------------------------------------------------------

/// Decision latency of one untraced pass, in microseconds, in drain order
/// (the same order in every pass over the tape): from the submit of the op
/// that triggered the decision (the session's first op whose stream time
/// reaches decision.t) to the drain that returned it.
std::vector<double> latencies_us(const ServeResult& r, const Tape& tape) {
  std::vector<double> out;
  std::vector<std::size_t> seen(r.streams.size(), 0);
  for (const DrainMark& m : r.marks) {
    const auto s = static_cast<std::size_t>(m.session);
    const auto& ops = tape.session_ops[s];
    for (std::size_t j = seen[s]; j < m.upto; ++j) {
      const evd::TimeUs t = r.streams[s][j].t;
      auto it = std::lower_bound(
          ops.begin(), ops.end(), t, [&tape](std::size_t op, evd::TimeUs v) {
            return tape.arrivals[op].event.t < v;
          });
      if (it == ops.end()) --it;
      out.push_back(static_cast<double>(m.ns - r.submit_ns[*it]) * 1e-3);
    }
    seen[s] = m.upto;
  }
  return out;
}

/// Element-wise minimum of `best` and `x`: the fastest reading so far of
/// each tick or decision. The first pass sets `best`.
template <typename T>
void keep_fastest(std::vector<T>& best, const std::vector<T>& x) {
  if (best.empty()) {
    best = x;
    return;
  }
  const std::size_t n = std::min(best.size(), x.size());
  for (std::size_t i = 0; i < n; ++i) best[i] = std::min(best[i], x[i]);
}

// ---- metric output ----------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

void print_result(bool correct, const Ledger& ledger,
                  const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(ledger.attempted);
  json += ", \"failed\": " + std::to_string(ledger.failed());
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%.10g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

void print_ledger(const Ledger& l, bool correct) {
  std::printf(
      "correctness gate: %s — attempted %lld ops; lost %lld ops (refused "
      "%lld, shed %lld) in %lld session streams; evicted undrained %lld "
      "decisions; mismatched %lld decisions in streams that lost no op\n",
      correct ? "PASS" : "FAIL", static_cast<long long>(l.attempted),
      static_cast<long long>(l.dropped), static_cast<long long>(l.refused),
      static_cast<long long>(l.shed), static_cast<long long>(l.lossy_streams),
      static_cast<long long>(l.evicted), static_cast<long long>(l.mismatched));
}

std::int64_t peak_rss_kb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::int64_t>(ru.ru_maxrss);
}

// ---- end-to-end run (--trace 0) -----------------------------------------

int run_end_to_end(const Args& args, const WorkloadSpec& spec,
                   const FeedResult& reference) {
  std::vector<double> setup_s, pass_events_per_s;
  std::vector<std::int64_t> fastest_tick_ns;
  std::vector<double> fastest_latency_us;
  std::int64_t pass_events = 0;
  double rss_mb = 0.0;
  Ledger ledger;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(args.seconds * 1e9);
  // Every third rep stamps each submit and drain for the latency; those
  // clock reads slow the pass, so events_per_s comes from the other reps,
  // which read the clock once per tick.
  for (std::size_t rep = 0; rep < 3 || now_ns() < deadline; ++rep) {
    const bool stamped = rep % 3 == 2;
    const std::int64_t t0 = now_ns();
    auto sv = set_up(spec);
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    const ServeResult r =
        serve(*sv, spec, stamped ? Timing::Stamped : Timing::Ticks);
    if (stamped) {
      keep_fastest(fastest_latency_us, latencies_us(r, spec.tape));
    } else {
      keep_fastest(fastest_tick_ns, r.tick_ns);
      pass_events_per_s.push_back(static_cast<double>(r.events) / r.wall_s);
      pass_events = r.events;
    }
    gate(r, *sv, reference, ledger);
    // The high-water mark of one set-up and pass. Later reps build
    // everything again, and the allocator's fragmentation would make the
    // figure grow with the number of reps.
    if (rep == 0) rss_mb = static_cast<double>(peak_rss_kb()) / 1024.0;
  }

  // Contention from other tenants of the host comes in phases of
  // milliseconds to tens of seconds that slow the program by up to 40%.
  // Every rep serves the same tape, so each tick (and each decision) is
  // measured once per rep, spread over the whole run; its fastest reading is
  // its uncontended time. events_per_s divides a pass's events by the sum of
  // the fastest tick times, the latency quantiles are taken over the
  // fastest latency of each decision, and setup_s is the fastest set-up.
  // See README.md, "Why fastest readings".
  double fastest_pass_ns = 0.0;
  for (const std::int64_t ns : fastest_tick_ns) {
    fastest_pass_ns += static_cast<double>(ns);
  }
  const double eps =
      static_cast<double>(pass_events) / (fastest_pass_ns * 1e-9);
  std::sort(fastest_latency_us.begin(), fastest_latency_us.end());
  const double lat50 = quantile_sorted(fastest_latency_us, 0.50);
  const double lat99 = quantile_sorted(fastest_latency_us, 0.99);
  const double setup = *std::min_element(setup_s.begin(), setup_s.end());
  const bool correct = ledger.failed() == 0;
  std::printf(
      "%s: %zu reps in %.1f s; events/s %.0f (median pass %.0f), latency "
      "p50 %.1f us / p99 %.1f us (%zu decisions per pass), setup %.2f ms, "
      "peak RSS %.1f MB\n",
      spec.name.c_str(), setup_s.size(), args.seconds, eps,
      median(pass_events_per_s), lat50, lat99, fastest_latency_us.size(),
      1e3 * setup, rss_mb);
  print_ledger(ledger, correct);
  print_result(correct, ledger,
               {{"events_per_s", eps, "1/s"},
                {"latency_p50_us", lat50, "us"},
                {"latency_p99_us", lat99, "us"},
                {"setup_s", setup, "s"},
                {"peak_rss_mb", rss_mb, "MB"}});
  return correct ? 0 : 1;
}

// ---- traced run (--trace 1) ---------------------------------------------

constexpr const char* kComputeSpans[] = {
    "cnn.representation_build", "cnn.conv_forward", "snn.step",
    "gnn.graph_update", "gnn.message_pass"};

std::map<std::string, double> collect_spans() {
  std::map<std::string, double> sums;
  for (const auto& e : evd::obs::Tracer::instance().collect()) {
    sums[e.name] += static_cast<double>(e.dur_ns);
  }
  evd::obs::Tracer::instance().clear();
  return sums;
}

int paradigm_of_span(const char* name) {
  return name[0] == 'c' ? 0 : name[0] == 's' ? 1 : 2;
}

double span(const std::map<std::string, double>& spans, const char* name) {
  const auto it = spans.find(name);
  return it == spans.end() ? 0.0 : it->second;
}

double compute_span_ns(const std::map<std::string, double>& spans) {
  double total = 0.0;
  for (const char* name : kComputeSpans) total += span(spans, name);
  return total;
}

/// Median over passes of a per-pass value.
struct Series {
  std::vector<double> v;
  void add(double x) { v.push_back(x); }
  double med() const { return median(v); }
};

/// Modeled share of each declared stage of `pipeline` (evd::sched cost
/// model, default placement), keyed by stage name.
std::vector<std::pair<std::string, double>> model_stage_shares(
    const evd::core::EventPipeline& pipeline, const char* paradigm) {
  const evd::sched::CostModels models;
  const evd::sched::SessionProfile full =
      evd::sched::profile_for(pipeline, paradigm, 256, 1.0);
  std::vector<std::pair<std::string, double>> shares;
  double total = 0.0;
  for (const auto& stage : full.stages) {
    evd::sched::SessionProfile one = full;
    one.stages = {stage};
    const double us = evd::sched::per_op_cost_us(one, nullptr, models);
    shares.emplace_back(stage.name, us);
    total += us;
  }
  for (auto& s : shares) s.second = ratio(s.second, total);
  return shares;
}

int run_traced(const Args& args, const WorkloadSpec& spec,
               const FeedResult& reference) {
  Ledger ledger;
  Series setup_plan_ms;
  // Untraced phase-timed passes.
  Series eps_plain, decode, submit, pump, drain, ops_per_round, active_share,
      non_default, replans, load_ratio, refused, shed;
  // Traced passes.
  Series eps_traced, unattributed;
  std::map<std::string, Series> span_ns_per_event;
  // Direct feed passes.
  Series feed_plain[kParadigms];
  Series steps_per_event;
  std::map<std::string, Series> feed_stage_share[kParadigms];
  Series feed_traced_ns[kParadigms];
  Series ckpt_us, ckpt_bytes;

  std::int64_t events_of[kParadigms] = {0, 0, 0};
  for (std::size_t s = 0; s < spec.paradigm.size(); ++s) {
    events_of[static_cast<int>(spec.paradigm[s])] +=
        static_cast<std::int64_t>(spec.tape.session_ops[s].size());
  }
  const double total_events = static_cast<double>(spec.tape.arrivals.size());

  Pipelines feed_pipelines(spec);
  warm_up(feed_pipelines, spec);

  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(args.seconds * 1e9);
  do {
    // (a) phase-timed, tracing off.
    {
      auto sv = set_up(spec);
      if (spec.planned) setup_plan_ms.add(sv->plan_ms);
      const ServeResult r = serve(*sv, spec, Timing::Phases);
      gate(r, *sv, reference, ledger);
      const PhaseTimes& ph = r.phases;
      const double n = static_cast<double>(r.events);
      std::int64_t decisions = 0;
      for (const auto& s : r.streams) {
        decisions += static_cast<std::int64_t>(s.size());
      }
      eps_plain.add(n / r.wall_s);
      decode.add(ph.decode_ns / n);
      submit.add(ph.submit_ns / n);
      pump.add(ph.pump_ns / n);
      drain.add(ratio(ph.drain_ns, static_cast<double>(decisions)));
      ops_per_round.add(ratio(n, static_cast<double>(ph.rounds)));
      const auto ticks = static_cast<double>(ph.ticks);
      active_share.add(ratio(ph.active_share_sum, ticks));
      non_default.add(ratio(ph.non_default_sum, ticks));
      replans.add(static_cast<double>(sv->replans));
      const Index shards = sv->manager.shard_count();
      double max_load = 0.0, sum_load = 0.0;
      for (Index s = 0; s < shards; ++s) {
        const auto fed = static_cast<double>(
            sv->manager.shard(s).stats().totals.events_fed);
        max_load = std::max(max_load, fed);
        sum_load += fed;
      }
      load_ratio.add(
          ratio(max_load * static_cast<double>(shards), sum_load));
      const auto st = sv->manager.stats();
      refused.add(static_cast<double>(r.refused + st.ingress_dropped));
      shed.add(static_cast<double>(st.shedding.rate_limited +
                                   st.shedding.shed_noise +
                                   st.shedding.rejected_overload));
      // Checkpoint cost, timed around the public save_state of up to eight
      // sessions (checkpointing ones first).
      std::vector<std::size_t> order;
      for (std::size_t s = 0; s < sv->ids.size(); ++s) {
        if (spec.session_config[s].checkpoint_every > 0) order.push_back(s);
      }
      for (std::size_t s = 0; s < sv->ids.size() && order.size() < 8; ++s) {
        if (spec.session_config[s].checkpoint_every == 0) order.push_back(s);
      }
      order.resize(std::min<std::size_t>(order.size(), 8));
      std::vector<std::uint8_t> bytes;
      for (const std::size_t s : order) {
        bytes.clear();
        const std::int64_t t0 = now_ns();
        const bool saved = sv->manager.session(sv->ids[s]).save_state(bytes);
        const std::int64_t t1 = now_ns();
        if (!saved) continue;
        ckpt_us.add(static_cast<double>(t1 - t0) * 1e-3);
        ckpt_bytes.add(static_cast<double>(bytes.size()));
      }
    }
    // (b) traced: obs spans on.
    {
      auto sv = set_up(spec);
      evd::obs::Tracer::instance().clear();
      evd::obs::set_enabled(true);
      const ServeResult r = serve(*sv, spec, Timing::Phases);
      evd::obs::set_enabled(false);
      gate(r, *sv, reference, ledger);
      const auto spans = collect_spans();
      const PhaseTimes& ph = r.phases;
      const double wall =
          ph.decode_ns + ph.submit_ns + ph.pump_ns + ph.drain_ns;
      eps_traced.add(static_cast<double>(r.events) / r.wall_s);
      unattributed.add(ratio(ph.pump_ns - compute_span_ns(spans), wall));
      for (const char* name : kComputeSpans) {
        span_ns_per_event[name].add(ratio(
            span(spans, name),
            static_cast<double>(events_of[paradigm_of_span(name)])));
      }
    }
    // (c) direct feed, tracing off; (d) direct feed, traced.
    {
      const FeedResult f = feed_direct(feed_pipelines, spec);
      gate_feed(f, reference, ledger);
      double steps = 0.0;
      for (int p = 0; p < kParadigms; ++p) {
        if (f.events[p] > 0) {
          feed_plain[p].add(f.ns[p] / static_cast<double>(f.events[p]));
        }
      }
      if (f.events[1] > 0) {
        steps = static_cast<double>(f.decisions[1]) /
                static_cast<double>(f.events[1]);
        steps_per_event.add(steps);
      }
      evd::obs::Tracer::instance().clear();
      evd::obs::set_enabled(true);
      const FeedResult ft = feed_direct(feed_pipelines, spec);
      evd::obs::set_enabled(false);
      gate_feed(ft, reference, ledger);
      const auto spans = collect_spans();
      for (int p = 0; p < kParadigms; ++p) {
        if (ft.events[p] == 0) continue;
        feed_traced_ns[p].add(ft.ns[p] / static_cast<double>(ft.events[p]));
        double spanned = 0.0;
        for (const char* name : kComputeSpans) {
          if (paradigm_of_span(name) != p) continue;
          feed_stage_share[p][name].add(ratio(span(spans, name), ft.ns[p]));
          spanned += span(spans, name);
        }
        feed_stage_share[p]["(unspanned)"].add(1.0 - ratio(spanned, ft.ns[p]));
      }
    }
  } while (now_ns() < deadline);

  const bool correct = ledger.failed() == 0;
  if (evd::obs::Tracer::instance().dropped() > 0) {
    std::printf("warning: %lld spans dropped by the trace ring\n",
                static_cast<long long>(evd::obs::Tracer::instance().dropped()));
  }

  // Per-paradigm "where did the time go" tables (direct feed, traced).
  for (int p = 0; p < kParadigms; ++p) {
    if (events_of[p] == 0) continue;
    const auto paradigm = static_cast<Paradigm>(p);
    const double ns = feed_traced_ns[p].med();
    std::printf("\n-- where did the time go: %s (direct feed, %lld events, "
                "%.1f ns/event traced) --\n",
                paradigm_name(paradigm),
                static_cast<long long>(events_of[p]), ns);
    std::printf("  %-28s %12s %10s %12s\n", "stage", "ns/event", "measured",
                "model share");
    const auto model = model_stage_shares(feed_pipelines.of(paradigm),
                                          paradigm_name(paradigm));
    for (const auto& [stage, model_share] : model) {
      const auto it = feed_stage_share[p].find(stage);
      if (it == feed_stage_share[p].end()) {
        std::printf("  %-28s %12s %10s %11.1f%%\n", stage.c_str(), "-",
                    "(unspanned)", 100.0 * model_share);
      } else {
        const double share = it->second.med();
        std::printf("  %-28s %12.1f %9.1f%% %11.1f%%\n", stage.c_str(),
                    share * ns, 100.0 * share, 100.0 * model_share);
      }
    }
    const double rest = feed_stage_share[p]["(unspanned)"].med();
    std::printf("  %-28s %12.1f %9.1f%% %12s\n", "(unspanned)", rest * ns,
                100.0 * rest, "-");
  }

  // Serving-level table: phases timed from outside on the untraced passes,
  // the pump split by the compute spans of the traced passes.
  double spans_per_event = 0.0;
  for (const char* name : kComputeSpans) {
    spans_per_event += span_ns_per_event[name].med() *
                       static_cast<double>(events_of[paradigm_of_span(name)]) /
                       total_events;
  }
  std::printf("\n-- where did the time go: serving %s (ns per submitted "
              "event) --\n",
              spec.name.c_str());
  std::printf("  %-40s %12.1f\n", "events.decode", decode.med());
  std::printf("  %-40s %12.1f\n", "shard.submit", submit.med());
  std::printf("  %-40s %12.1f\n", "runtime.pump", pump.med());
  std::printf("  %-40s %12.1f\n", "  compute spans (traced passes)",
              spans_per_event);
  std::printf("  %-40s %12.1f\n", "runtime.drain (ns per decision)",
              drain.med());
  std::printf("  trace.unattributed_share %.3f, trace.overhead_ratio %.3f\n",
              unattributed.med(), ratio(eps_traced.med(), eps_plain.med()));
  print_ledger(ledger, correct);

  double feed_all_ns = 0.0;
  for (int p = 0; p < kParadigms; ++p) {
    feed_all_ns += feed_plain[p].med() * static_cast<double>(events_of[p]);
  }
  feed_all_ns /= total_events;

  const evd::sched::CostModels models;
  const auto model_vs_measured = [&](Paradigm p) {
    const int i = static_cast<int>(p);
    if (events_of[i] == 0) return 0.0;
    const double modeled_us = evd::sched::per_op_cost_us(
        evd::sched::profile_for(feed_pipelines.of(p), paradigm_name(p), 256,
                                1.0),
        nullptr, models);
    return ratio(modeled_us * 1e3, feed_plain[i].med());
  };

  std::vector<Metric> m = {
      {"events.decode_ns_per_event", decode.med(), "ns"},
      {"shard.submit_ns_per_op", submit.med(), "ns"},
      {"shard.load_max_over_mean", load_ratio.med(), "ratio"},
      {"shard.ingress_refused", refused.med(), "count"},
      {"runtime.pump_ns_per_op", pump.med(), "ns"},
      {"runtime.overhead_ns_per_op", pump.med() - feed_all_ns, "ns"},
      {"runtime.drain_ns_per_decision", drain.med(), "ns"},
      {"runtime.ops_per_round", ops_per_round.med(), "count"},
      {"runtime.active_session_share", active_share.med(), "ratio"},
      {"gnn.feed_ns_per_event", feed_plain[2].med(), "ns"},
      {"gnn.graph_update_ns_per_event",
       span_ns_per_event["gnn.graph_update"].med(), "ns"},
      {"gnn.message_pass_ns_per_event",
       span_ns_per_event["gnn.message_pass"].med(), "ns"},
      {"snn.feed_ns_per_event", feed_plain[1].med(), "ns"},
      {"snn.step_ns_per_event", span_ns_per_event["snn.step"].med(), "ns"},
      {"snn.steps_per_event", steps_per_event.med(), "count"},
      {"cnn.feed_ns_per_event", feed_plain[0].med(), "ns"},
      {"cnn.conv_forward_ns_per_event",
       span_ns_per_event["cnn.conv_forward"].med(), "ns"},
      {"cnn.representation_ns_per_event",
       span_ns_per_event["cnn.representation_build"].med(), "ns"},
      {"fault.checkpoint_save_us", ckpt_us.med(), "us"},
      {"fault.checkpoint_bytes", ckpt_bytes.med(), "bytes"},
      {"fault.admission_shed", shed.med(), "count"},
      {"sched.plan_ms", setup_plan_ms.med(), "ms"},
      {"sched.replans", replans.med(), "count"},
      {"route.non_default_sessions", non_default.med(), "count"},
      {"sched.model_vs_measured.cnn", model_vs_measured(Paradigm::Cnn),
       "ratio"},
      {"sched.model_vs_measured.snn", model_vs_measured(Paradigm::Snn),
       "ratio"},
      {"sched.model_vs_measured.gnn", model_vs_measured(Paradigm::Gnn),
       "ratio"},
      {"trace.overhead_ratio", ratio(eps_traced.med(), eps_plain.med()),
       "ratio"},
      {"trace.unattributed_share", unattributed.med(), "ratio"},
  };
  print_result(correct, ledger, m);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "evd_perfbench: %s\n", e.what());
    return 2;
  }
  // One thread is both producer and pump; the host's parallel capacity
  // varies too much for wall-clock scaling to be a metric.
  evd::par::set_thread_count(1);
  evd::obs::set_enabled(false);
  evd::fault::set_enabled(false);
  evd::sched::set_enabled(true);
  evd::route::set_enabled(true);
  // Registering the route.* oracles is what makes the proved execution
  // paths routable, as in any serving binary's start-up.
  evd::check::register_builtin_oracles();

  WorkloadSpec spec;
  try {
    spec = make_workload(args.workload, args.seed);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "evd_perfbench: %s\n", e.what());
    return 2;
  }
  if (args.inject_fault) {
    if (spec.shards != 1) {
      std::fprintf(stderr, "evd_perfbench: --inject-fault needs a 1-shard "
                           "workload\n");
      return 2;
    }
    spec.inject_fault = true;
  }
  if (args.trace == 1) {
    evd::obs::Tracer::instance().set_ring_capacity(Index{1} << 21);
  }
  print_provenance(args, spec);
  std::printf("%s: %lld sessions, %zu events in %zu ticks per pass\n",
              spec.name.c_str(), static_cast<long long>(spec.tape.sessions),
              spec.tape.arrivals.size(), spec.tape.tick_end.size());

  // Reference decision streams: direct sequential feeding, fresh sessions.
  FeedResult reference;
  {
    Pipelines pipelines(spec);
    reference = feed_direct(pipelines, spec);
  }
  std::fflush(stdout);
  return args.trace == 0 ? run_end_to_end(args, spec, reference)
                         : run_traced(args, spec, reference);
}
