#include "tape.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>

#include "common/rng.hpp"
#include "events/dataset.hpp"

namespace perfbench {

namespace {

void fnv(std::uint64_t& h, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    h ^= (v >> (8 * i)) & 0xFFu;
    h *= 0x100000001B3ULL;
  }
}

/// Sort by (t, session), cut ticks and build the per-session op lists.
void finish(Tape& tape, TimeUs tick_us) {
  std::stable_sort(tape.arrivals.begin(), tape.arrivals.end(),
                   [](const Arrival& a, const Arrival& b) {
                     return a.event.t != b.event.t ? a.event.t < b.event.t
                                                   : a.session < b.session;
                   });
  TimeUs window_end = tick_us;
  for (std::size_t i = 0; i < tape.arrivals.size(); ++i) {
    if (tape.arrivals[i].event.t < window_end) continue;
    if (i > 0 && (tape.tick_end.empty() || tape.tick_end.back() != i)) {
      tape.tick_end.push_back(i);
    }
    while (tape.arrivals[i].event.t >= window_end) window_end += tick_us;
  }
  tape.tick_end.push_back(tape.arrivals.size());
  tape.session_ops.assign(static_cast<std::size_t>(tape.sessions), {});
  for (std::size_t i = 0; i < tape.arrivals.size(); ++i) {
    tape.session_ops[static_cast<std::size_t>(tape.arrivals[i].session)]
        .push_back(i);
  }
}

evd::events::Event random_event(evd::Rng& rng, Index w, Index h, TimeUs t) {
  evd::events::Event e;
  e.x = static_cast<std::int16_t>(
      rng.uniform_int(static_cast<std::uint64_t>(w)));
  e.y = static_cast<std::int16_t>(
      rng.uniform_int(static_cast<std::uint64_t>(h)));
  e.polarity = rng.bernoulli(0.5) ? evd::Polarity::On : evd::Polarity::Off;
  e.t = t;
  return e;
}

}  // namespace

std::uint64_t Tape::digest() const {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  fnv(h, static_cast<std::uint64_t>(sessions), 8);
  for (const Arrival& a : arrivals) {
    fnv(h, static_cast<std::uint32_t>(a.session), 4);
    fnv(h, static_cast<std::uint16_t>(a.event.x), 2);
    fnv(h, static_cast<std::uint16_t>(a.event.y), 2);
    fnv(h, static_cast<std::uint8_t>(a.event.polarity), 1);
    fnv(h, static_cast<std::uint64_t>(a.event.t), 8);
  }
  for (const std::size_t end : tick_end) fnv(h, end, 8);
  for (const auto& p : packets) {
    for (const std::uint32_t w : p.words) fnv(h, w, 4);
  }
  return h;
}

Tape make_shape_tape(std::uint64_t seed, Index sessions, Index width,
                     Index height, Index events_per_session, TimeUs tick_us) {
  evd::events::ShapeDatasetConfig config;
  config.width = width;
  config.height = height;
  config.seed = seed;
  // Short samples: a pass averages over ~10^2 shapes, so its event density
  // (and with it the per-event graph cost) varies little from seed to seed.
  config.duration_us = 10000;
  // Each sample is stretched or squeezed in time to a fixed event rate, as a
  // sensor-side rate controller would, so ticks carry similar event counts
  // and the latency tail does not hinge on which shapes a seed draws.
  constexpr std::int64_t kEventsPerMs = 30;
  const evd::events::ShapeDataset dataset(config);
  Tape tape;
  tape.sessions = sessions;
  std::vector<evd::events::Event> kept;
  for (Index s = 0; s < sessions; ++s) {
    Index emitted = 0;
    TimeUs offset = 0;
    // Session s plays samples s, s + sessions, ... back to back.
    for (Index k = 0; emitted < events_per_session; ++k) {
      evd::events::LabelledSample sample =
          dataset.make_sample(k * sessions + s);
      kept.clear();
      for (const auto& e : sample.stream.events) {
        if (e.t >= 0 && e.t < config.duration_us) kept.push_back(e);
      }
      std::stable_sort(kept.begin(), kept.end(),
                       [](const auto& a, const auto& b) { return a.t < b.t; });
      const TimeUs span_us = std::max<TimeUs>(
          1, static_cast<TimeUs>(kept.size()) * 1000 / kEventsPerMs);
      for (const auto& e : kept) {
        if (emitted == events_per_session) break;
        Arrival a;
        a.session = static_cast<std::int32_t>(s);
        a.event = e;
        a.event.t = offset + e.t * span_us / config.duration_us;
        tape.arrivals.push_back(a);
        ++emitted;
      }
      offset += span_us;
    }
  }
  finish(tape, tick_us);
  return tape;
}

Tape make_tenant_tape(std::uint64_t seed, Index tenants, Index geometry,
                      Index arrivals, double zipf_s, TimeUs tick_us) {
  evd::Rng rng(seed);
  std::vector<double> cdf(static_cast<std::size_t>(tenants));
  double total = 0.0;
  for (Index r = 0; r < tenants; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r) + 1.0, zipf_s);
    cdf[static_cast<std::size_t>(r)] = total;
  }
  // Popularity rank -> tenant id, shuffled per seed so the hot tenants land
  // on different shards from seed to seed.
  std::vector<std::int32_t> tenant_of_rank(static_cast<std::size_t>(tenants));
  std::iota(tenant_of_rank.begin(), tenant_of_rank.end(), 0);
  for (std::size_t i = tenant_of_rank.size(); i > 1; --i) {
    std::swap(tenant_of_rank[i - 1], tenant_of_rank[rng.uniform_int(i)]);
  }
  Tape tape;
  tape.sessions = tenants;
  tape.arrivals.reserve(static_cast<std::size_t>(arrivals));
  double now_us = 0.0;
  bool burst = false;
  for (Index i = 0; i < arrivals; ++i) {
    // Two-state MMPP: quiet ~10 us mean gap, bursts ~1 us, switching with a
    // small per-arrival hazard.
    if (rng.bernoulli(burst ? 0.05 : 0.02)) burst = !burst;
    now_us += -(burst ? 1.0 : 10.0) * std::log(1.0 - rng.uniform());
    const auto rank = static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), rng.uniform() * total) -
        cdf.begin());
    Arrival a;
    a.session = tenant_of_rank[std::min(rank, cdf.size() - 1)];
    a.event =
        random_event(rng, geometry, geometry, static_cast<TimeUs>(now_us));
    tape.arrivals.push_back(a);
  }
  finish(tape, tick_us);
  std::size_t begin = 0;
  std::vector<evd::events::Event> tick_events;
  for (const std::size_t end : tape.tick_end) {
    tick_events.clear();
    for (std::size_t i = begin; i < end; ++i) {
      tick_events.push_back(tape.arrivals[i].event);
    }
    tape.packets.push_back(evd::events::raw32_encode(tick_events));
    begin = end;
  }
  return tape;
}

Tape make_mixed_tape(std::uint64_t seed, const MixedStreamSpec& spec,
                     TimeUs tick_us) {
  const auto sessions = static_cast<Index>(spec.full.size());
  Tape tape;
  tape.sessions = sessions;
  for (Index s = 0; s < sessions; ++s) {
    evd::Rng rng(seed * 0x9E3779B97F4A7C15ULL + static_cast<std::uint64_t>(s));
    for (Index i = 0; i < spec.events_per_session; ++i) {
      const TimeUs t = i * spec.duration_us / spec.events_per_session;
      const bool dense = spec.full[static_cast<std::size_t>(s)] ||
                         (spec.shift[static_cast<std::size_t>(s)] &&
                          t >= spec.shift_at_us);
      Arrival a;
      a.session = static_cast<std::int32_t>(s);
      a.event = dense ? random_event(rng, spec.width, spec.height, t)
                      : random_event(rng, spec.corner, spec.corner, t);
      tape.arrivals.push_back(a);
    }
  }
  finish(tape, tick_us);
  return tape;
}

}  // namespace perfbench
