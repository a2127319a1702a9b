// Seeded input tapes for the three benchmark workloads.
//
// A tape is everything the program under test will see in one serving pass:
// a stream-time-ordered list of (session, event) arrivals, cut into ticks of
// a fixed stream-time window, plus (for the AER workload) one RAW32 packet
// per tick. Generation depends only on the seed, so the same seed gives
// byte-identical tapes (digest() fingerprints them), and it runs before any
// timed region or set-up measurement.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "events/aer.hpp"
#include "events/event.hpp"

namespace perfbench {

using evd::Index;
using evd::TimeUs;

struct Arrival {
  std::int32_t session = 0;
  evd::events::Event event;
};

struct Tape {
  Index sessions = 0;
  std::vector<Arrival> arrivals;   ///< Stream-time order, ties by session.
  /// Tick k covers arrivals [tick_end[k-1], tick_end[k]).
  std::vector<std::size_t> tick_end;
  /// One RAW32 packet per tick (empty unless the workload ingests AER); the
  /// session of each packet word pair is arrivals[i].session, the sensor
  /// channel the packet arrived on.
  std::vector<evd::events::Raw32Packet> packets;
  /// Arrival indices of each session, in order (the per-session op list the
  /// reference feed and the latency attribution walk).
  std::vector<std::vector<std::size_t>> session_ops;

  /// FNV-1a over every arrival, tick boundary and packet word.
  std::uint64_t digest() const;
};

/// gnn_dense: `sessions` moving-shape DVS streams (ShapeDataset samples
/// concatenated in time), `events_per_session` each.
Tape make_shape_tape(std::uint64_t seed, Index sessions, Index width,
                     Index height, Index events_per_session, TimeUs tick_us);

/// tenants_snn: `arrivals` events over `tenants` sessions, tenant drawn from
/// Zipf(zipf_s), gaps from a two-state MMPP (quiet / burst mean gap).
/// Encodes each tick as a RAW32 packet.
Tape make_tenant_tape(std::uint64_t seed, Index tenants, Index geometry,
                      Index arrivals, double zipf_s, TimeUs tick_us);

/// mixed_planned: one uniform-rate stream per session. Session s draws its
/// pixels from the full `width` x `height` plane when `full[s]` is set, from
/// the top-left `corner` x `corner` patch otherwise; sessions with
/// `shift[s]` set switch to the full plane at `shift_at_us`.
struct MixedStreamSpec {
  std::vector<bool> full;
  std::vector<bool> shift;
  Index width = 32;
  Index height = 32;
  Index corner = 8;
  Index events_per_session = 0;
  TimeUs duration_us = 0;
  TimeUs shift_at_us = 0;
};
Tape make_mixed_tape(std::uint64_t seed, const MixedStreamSpec& spec,
                     TimeUs tick_us);

}  // namespace perfbench
