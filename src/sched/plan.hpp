// Execution-plan representation for the cost-model-driven planner
// (`evd::sched`, DESIGN.md section 13).
//
// A Plan answers the scheduling questions the SessionManager's blind
// round-robin never asks:
//
//   * thread-region assignment — which worker region owns which sessions
//     (one region is pumped by exactly one worker per round, preserving the
//     one-worker-per-session determinism contract);
//   * visit order — the order a region's worker visits its sessions within
//     a round;
//   * per-visit burst — how many queued ops each visit processes before
//     yielding (per session, replacing the single global burst);
//   * execution path — which routable variant (route/route.hpp) each
//     paradigm's sessions run.
//
// Every decision in a plan is one the runtime executes; nothing here
// exists only for the cost model. The equivalence contract — enforced
// bitwise by the sched.plan_vs_sequential and route.* oracles: a Plan
// redistributes and re-orders *visits* and picks among proved-equivalent
// kernels, never changes ops. Every session still applies its own ops in
// FIFO submission order on a single worker per round, so each session's
// decision stream is bit-for-bit the stream direct sequential feeding
// produces, whatever plan runs it.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/env.hpp"
#include "common/types.hpp"
#include "route/route.hpp"

namespace evd::sched {

/// One scheduled visit: session `session` processes up to `burst` queued
/// ops when its region's worker reaches this entry.
struct PlanEntry {
  Index session = 0;
  Index burst = 1;
};

/// The sessions one worker pumps each round, in visit order. `label` is the
/// obs span every visit in this region runs under — owned by the plan so
/// the const char* handed to obs::Span stays valid for the plan's lifetime.
struct PlanRegion {
  std::vector<PlanEntry> entries;
  std::string label;
};

/// The execution path one paradigm's sessions run under the plan.
/// SessionManager::set_plan applies it to the live sessions; the route.*
/// oracles hold every routable path to the bitwise decision-stream
/// contract, so it never changes what a session computes. Default = the
/// paradigm's built-in behavior.
struct ParadigmPlacement {
  std::string paradigm;  ///< SessionBaseConfig.paradigm label ("cnn", ...).
  route::PathId path = route::PathId::Default;
};

struct Plan {
  Index session_count = 0;
  Index burst_cap = 1;  ///< Upper bound every entry's burst respects.
  std::vector<PlanRegion> regions;
  std::vector<ParadigmPlacement> placements;
  double modeled_cost_us = 0.0;  ///< Objective value of the chosen plan.
  std::uint64_t seed = 0;        ///< Annealer seed that produced it.

  /// Structural validity: every session 0..session_count-1 scheduled
  /// exactly once, every burst in [1, burst_cap], at least one region when
  /// any session exists, no empty region, every path owned by its
  /// placement's paradigm. On failure returns false and (when `why` is
  /// non-null) says what broke.
  bool validate(std::string* why = nullptr) const;

  /// FNV-1a over the serialized bytes — stable across platforms, used as
  /// the planner cache key component and in span labels.
  std::uint64_t fingerprint() const;

  /// Human-readable one-plan summary (tests, golden snapshots, logs).
  std::string describe() const;

  /// Rebuild each region's obs span label ("sched.r<k>.p<fp>"). Call after
  /// any structural mutation; serialize()/deserialize() and the annealer do
  /// so themselves.
  void refresh_labels();

  /// Checkpoint-framed serialization (fault/checkpoint.hpp writer/reader,
  /// own magic + version) so a plan rides inside the existing
  /// checkpoint/restore machinery and restored managers resume under the
  /// same plan. deserialize() throws Error(CheckpointMismatch/Corrupt) on
  /// bad bytes and re-validates the decoded plan.
  void serialize(std::vector<std::uint8_t>& out) const;
  static Plan deserialize(std::span<const std::uint8_t> bytes);

  /// The do-nothing-clever baseline: sessions dealt round-robin across
  /// `regions` regions (session s -> region s % regions, preserving id
  /// order within each region), every burst = `burst`, no placements.
  /// Every session gets the same per-round burst the unplanned pump gives
  /// it, so the two apply the same ops in the same rounds.
  static Plan round_robin(Index session_count, Index region_count,
                          Index burst);
};

bool operator==(const Plan& a, const Plan& b);
inline bool operator!=(const Plan& a, const Plan& b) { return !(a == b); }

namespace detail {
inline std::atomic<bool> g_enabled{env_flag("EVD_SCHED", true)};
}  // namespace detail

/// EVD_SCHED kill-switch (default on, mirrors EVD_OBS / EVD_SIMD): when
/// off, the SessionManager ignores any installed plan and runs the unplanned
/// ready-set pump byte-identically to a build without this subsystem.
inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
inline void set_enabled(bool on) noexcept {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

}  // namespace evd::sched
