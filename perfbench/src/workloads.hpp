// The three benchmark workloads and the closed-loop serving pass.
//
// Every workload is served through shard::ShardManager (shards = 1 collapses
// to one runtime::SessionManager) by one client on one thread: each tick
// submits the tick's arrivals, pumps until every queue is empty, then drains
// the sessions it fed. Nothing here reaches into src/: set-up, serving and
// the reference feed use only the public pipeline, runtime, shard, sched and
// fault APIs.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cnn/cnn_pipeline.hpp"
#include "core/pipeline.hpp"
#include "gnn/gnn_pipeline.hpp"
#include "runtime/session_manager.hpp"
#include "shard/shard_manager.hpp"
#include "snn/snn_pipeline.hpp"
#include "tape.hpp"

namespace perfbench {

enum class Paradigm : int { Cnn = 0, Snn = 1, Gnn = 2 };
inline constexpr int kParadigms = 3;
const char* paradigm_name(Paradigm p) noexcept;

struct WorkloadSpec {
  std::string name;
  Index width = 32;
  Index height = 32;
  std::optional<evd::cnn::CnnPipelineConfig> cnn;
  std::optional<evd::snn::SnnPipelineConfig> snn;
  std::optional<evd::gnn::GnnPipelineConfig> gnn;
  std::vector<Paradigm> paradigm;  ///< Per session.
  std::vector<evd::runtime::ManagedSessionConfig> session_config;
  Index shards = 1;
  bool aer = false;        ///< Ticks arrive as RAW32 packets.
  bool admission = false;  ///< Overload ladder on every shard.
  bool planned = false;    ///< plan_for + set_plan + set_replan in set-up.
  /// Test hook: quarantine session 1 through the op-fault injection site.
  bool inject_fault = false;
  Tape tape;
};

/// Builds the named workload's configuration and its tape for `seed`.
/// Throws std::invalid_argument on an unknown name.
WorkloadSpec make_workload(const std::string& name, std::uint64_t seed);

struct Pipelines {
  std::unique_ptr<evd::cnn::CnnPipeline> cnn;
  std::unique_ptr<evd::snn::SnnPipeline> snn;
  std::unique_ptr<evd::gnn::GnnPipeline> gnn;

  explicit Pipelines(const WorkloadSpec& spec);
  evd::core::EventPipeline& of(Paradigm p);
  std::unique_ptr<evd::core::StreamSession> open(Paradigm p,
                                                 const WorkloadSpec& spec);
};

/// Feeds a throwaway session of every paradigm the workload uses, so lazy
/// per-model caches (the transposed-weight DerivedCache) are built before
/// anything is timed.
void warm_up(Pipelines& pipelines, const WorkloadSpec& spec);

/// One complete set-up: models, manager, sessions, plan, warm-up.
struct Serving {
  Pipelines pipelines;
  evd::shard::ShardManager manager;
  std::vector<evd::shard::ShardManager::SessionId> ids;
  double plan_ms = 0.0;          ///< Planner::plan_for in set-up.
  std::int64_t replans = 0;      ///< Plans the replan hook installed.
  std::vector<double> planned_activity;  ///< Activity behind the live plan.

  Serving(const WorkloadSpec& spec, evd::shard::ShardManagerConfig config)
      : pipelines(spec), manager(config) {}
};
std::unique_ptr<Serving> set_up(const WorkloadSpec& spec);

/// Outside timings of one phase-timed serving pass, summed over ticks.
struct PhaseTimes {
  double decode_ns = 0.0;
  double submit_ns = 0.0;
  double pump_ns = 0.0;
  double drain_ns = 0.0;
  std::int64_t rounds = 0;            ///< pump() calls that did work.
  double active_share_sum = 0.0;      ///< Sum over ticks.
  double non_default_sum = 0.0;       ///< Sum over ticks.
  std::int64_t ticks = 0;
};

struct DrainMark {
  std::int32_t session = 0;
  std::size_t upto = 0;     ///< Stream length after this drain.
  std::int64_t ns = 0;      ///< Clock right after the drain returned.
};

struct ServeResult {
  double wall_s = 0.0;      ///< First submit .. last drain.
  std::int64_t events = 0;  ///< Events submitted.
  std::int64_t refused = 0; ///< submit() returned false.
  std::vector<std::uint8_t> refused_by;  ///< Per session: any refusal.
  std::vector<std::vector<evd::core::Decision>> streams;  ///< Per session.
  // Timing::Ticks: wall time of every tick, submit of its first arrival to
  // the return of its last drain.
  std::vector<std::int64_t> tick_ns;
  // Timing::Stamped: per-arrival submit clock and per-drain marks, for the
  // decision latency.
  std::vector<std::int64_t> submit_ns;
  std::vector<DrainMark> marks;
  // Timing::Phases.
  PhaseTimes phases;
};

/// What a serving pass clocks besides its own start and end. Ticks reads
/// the clock once per tick, at its end (the events_per_s passes); Stamped
/// reads it at every submit and drain (the latency passes); Phases times
/// decode, submit, pump and drain of every tick from outside (the traced
/// run).
enum class Timing { Ticks, Stamped, Phases };

/// One closed-loop pass over the tape.
ServeResult serve(Serving& serving, const WorkloadSpec& spec, Timing timing);

/// Direct sequential StreamSession::feed of every session's events into
/// fresh sessions: the reference decision streams, and per-paradigm feed
/// time.
struct FeedResult {
  std::vector<std::vector<evd::core::Decision>> streams;
  double ns[kParadigms] = {0.0, 0.0, 0.0};
  std::int64_t events[kParadigms] = {0, 0, 0};
  std::int64_t decisions[kParadigms] = {0, 0, 0};
};
FeedResult feed_direct(Pipelines& pipelines, const WorkloadSpec& spec);

std::int64_t now_ns();

}  // namespace perfbench
