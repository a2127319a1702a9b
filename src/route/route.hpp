// Execution-path routing: the interchangeable execution variants the
// planner may place a paradigm onto.
//
// The paper's central dichotomy — dense clocked execution vs sparse
// event-driven execution of the same network — is a *routing* question,
// not a model question. Before this layer each pipeline hard-coded its
// answer (Conv2d's shape heuristic, the SNN's chunked clocked stepping).
// evd::route lifts the decision out:
//
//   * An ExecutionPath names one routable variant of a paradigm's hot
//     stage. Two exist, one per side of the dichotomy that has a sparse
//     alternative: the CNN's zero-skipping sparse conv and the SNN's
//     event-driven stepping. Both do work proportional to input activity;
//     the cost model prices them that way.
//   * routable(paradigm) is Default plus the paradigm's own variants. Every
//     variant has a differential oracle (`route.*` in evd::check) that pins
//     its decision stream to the default path at ULP 0, and CI runs those
//     oracles — so a plan can change how work executes but never what it
//     computes.
//   * Sessions store a PathId (installed by SessionManager::set_plan from
//     the plan's placements) and consult it at their hot-stage dispatch
//     point. PathId::Default — and the EVD_ROUTE=off kill-switch — fall
//     back byte-identically to the pre-routing hard-coded behavior.
//
// The library sits at the leaf of the link graph (depends only on
// evd_common) so both the runtime (which applies routes) and the planning
// stack (which searches over them) can link it without cycles.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "common/env.hpp"

namespace evd::route {

namespace detail {
inline std::atomic<bool> g_enabled{env_flag("EVD_ROUTE", true)};
}  // namespace detail

/// EVD_ROUTE kill-switch (default on). When off, every dispatch site runs
/// the paradigm's default path regardless of any installed route — the
/// byte-identical fallback the equivalence contract demands.
inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
inline void set_enabled(bool on) noexcept {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

/// Stable identifiers for the routable execution variants. The numeric
/// values are serialized inside plan bytes (sched::ParadigmPlacement), so
/// they must never be renumbered; retired values (1, 2, 8, 16, 17) stay
/// unused so an old frame can never decode as a different path.
enum class PathId : std::uint8_t {
  Default = 0,         ///< The paradigm's built-in behavior.
  CnnSparse = 3,       ///< Zero-skipping sparse conv over the event frame.
  SnnEventDriven = 9,  ///< Single spike-driven full-layer kernel call.
};

/// Short stable name ("default", "cnn.sparse", ...).
const char* path_name(PathId id) noexcept;

/// Owning paradigm ("cnn" / "snn"); empty for Default / unknown.
const char* path_paradigm(PathId id) noexcept;

/// True when `id` may be installed on a session of `paradigm` — Default
/// always, otherwise only the paradigm's own variants.
bool path_valid_for(PathId id, std::string_view paradigm) noexcept;

/// Decode a serialized path byte; nullopt for unknown values (the typed
/// Corrupt error is the caller's to raise — plan decoding owns framing).
std::optional<PathId> path_from_byte(std::uint8_t raw) noexcept;

/// The paths the planner may route `paradigm` onto: Default plus the
/// paradigm's own variants, in table order.
std::vector<PathId> routable(std::string_view paradigm);

}  // namespace evd::route
