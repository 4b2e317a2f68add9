// Per-link reconnection schedule: the pure, clock-free half of the
// self-healing channel layer.
//
// `LinkBackoff` produces the jittered exponential retry schedule and
// `LinkRetry` holds one dialed link's next-dial deadline on it. Neither
// reads a clock or any global randomness: time arrives as explicit
// millisecond values from the caller (TcpTransport feeds its monotonic
// clock; unit tests feed a counter) and jitter comes from a seeded Rng, so
// the same seed yields the same reconnect timeline bit-for-bit
// (tests/test_link.cpp relies on it). The link's state (down / connecting
// / up / backoff) lives in TcpTransport's Conn, not here.
#pragma once

#include <cstdint>

#include "common/rng.h"

namespace ritas::net {

struct BackoffOptions {
  std::uint64_t base_ms = 20;     // delay before the first retry
  std::uint64_t cap_ms = 2'000;   // exponential growth ceiling
  std::uint32_t jitter_pct = 50;  // delay drawn from [d - d*j/100, d]
};

/// Jittered truncated exponential backoff. Attempt k (0-based) waits
/// `min(base << k, cap)` milliseconds minus a uniformly random jitter of up
/// to jitter_pct percent — full delays synchronize reconnect storms after a
/// common outage; the jitter de-correlates them.
class LinkBackoff {
 public:
  LinkBackoff(const BackoffOptions& opts, std::uint64_t rng_seed)
      : opts_(opts), rng_(rng_seed) {}

  /// Delay before the next attempt; advances the attempt counter.
  std::uint64_t next_delay_ms() {
    std::uint64_t d = opts_.cap_ms;
    if (attempts_ < 63) {
      const std::uint64_t raw = opts_.base_ms << attempts_;
      // Shift overflow check: raw wraps only past 63 doublings (guarded
      // above), but base << k can still exceed the cap long before that.
      d = raw < opts_.base_ms || raw > opts_.cap_ms ? opts_.cap_ms : raw;
    }
    ++attempts_;
    if (opts_.jitter_pct > 0 && d > 0) {
      const std::uint64_t span = d * opts_.jitter_pct / 100;
      if (span > 0) d -= rng_.below(span + 1);
    }
    return d;
  }

  void reset() { attempts_ = 0; }
  std::uint32_t attempts() const { return attempts_; }

 private:
  BackoffOptions opts_;
  Rng rng_;
  std::uint32_t attempts_ = 0;
};

/// Retry deadline of one dialed link. The transport calls on_down when a
/// dial fails or a session drops and on_up when a session opens; it dials
/// once should_dial is true and the link is neither up nor dialing.
class LinkRetry {
 public:
  LinkRetry(const BackoffOptions& opts, std::uint64_t rng_seed)
      : backoff_(opts, rng_seed) {}

  /// True once the retry deadline has passed (at once before any failure).
  bool should_dial(std::uint64_t now_ms) const { return now_ms >= retry_at_ms_; }

  /// A session opened: the next failure waits only the base delay again.
  void on_up() { backoff_.reset(); }

  /// A dial failed or a session dropped: the next dial waits one more step
  /// of the schedule.
  void on_down(std::uint64_t now_ms) { retry_at_ms_ = now_ms + backoff_.next_delay_ms(); }

  std::uint64_t retry_at_ms() const { return retry_at_ms_; }
  std::uint32_t attempts() const { return backoff_.attempts(); }

 private:
  LinkBackoff backoff_;
  std::uint64_t retry_at_ms_ = 0;
};

}  // namespace ritas::net
