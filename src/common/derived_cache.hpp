// Lazily-built cache of values derived from an object's primary state —
// e.g. the transposed weight copies feeding the SIMD kernels' contiguous
// paths. Semantics the owners rely on:
//
//   * ensure(version, build) builds when the cache is empty or was last
//     built at a different `version`. The owner passes a version that moves
//     whenever the primary state may have changed — for weights, the sum of
//     the nn::Param::version counters the cache derives from, which the
//     optimizers, load_params, pruning and quantization bump, as do the
//     owner's accessors that hand out mutable handles (params(), weight()).
//     A trained model therefore serves on the build-once path: its weights
//     stop moving, so its version does too.
//   * ensure() is race-free for concurrent readers at a fixed version: the
//     first caller builds under the mutex, the acquire/release stamp pair
//     publishes the result, later callers return it without locking.
//     Moving the version while other threads read (training concurrently
//     with serving) is not supported.
//   * Copying or moving the OWNER must not clone synchronization state or
//     derived data that may be mid-build, so every copy/move form resets
//     the destination to "not built"; it re-derives from the (copied)
//     primary state on next use.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>

namespace evd {

template <typename T>
class DerivedCache {
 public:
  DerivedCache() = default;
  DerivedCache(const DerivedCache&) noexcept {}
  DerivedCache(DerivedCache&&) noexcept {}
  DerivedCache& operator=(const DerivedCache&) noexcept { return reset(); }
  DerivedCache& operator=(DerivedCache&&) noexcept { return reset(); }

  /// Build (or rebuild) via `build(T&)` unless the value was last built at
  /// `version`; returns the derived value.
  template <typename BuildFn>
  const T& ensure(std::uint64_t version, BuildFn&& build) {
    // Stamp 0 means "never built", so a built value stores version + 1.
    const std::uint64_t want = version + 1;
    if (stamp_.load(std::memory_order_acquire) != want) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stamp_.load(std::memory_order_relaxed) != want) {
        build(value_);
        builds_.fetch_add(1, std::memory_order_relaxed);
        stamp_.store(want, std::memory_order_release);
      }
    }
    return value_;
  }

  /// How many times the value has been (re)built — a read-only counter that
  /// lets tests pin the build-once behaviour.
  std::uint64_t builds() const noexcept {
    return builds_.load(std::memory_order_relaxed);
  }

 private:
  DerivedCache& reset() noexcept {
    value_ = T{};
    stamp_.store(0, std::memory_order_relaxed);
    return *this;
  }

  T value_{};
  std::atomic<std::uint64_t> stamp_{0};
  std::atomic<std::uint64_t> builds_{0};
  std::mutex mutex_;
};

}  // namespace evd
