// Deterministic tests for the link backoff/retry schedule: pure,
// clock-free, seeded — the same seed must yield the same reconnect
// timeline bit-for-bit, and delays must respect the cap and jitter bounds.
#include "net/link.h"

#include <gtest/gtest.h>

#include <vector>

namespace ritas::net {
namespace {

TEST(LinkBackoff, SameSeedSameSchedule) {
  const BackoffOptions opts;
  LinkBackoff a(opts, 42), b(opts, 42);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(a.next_delay_ms(), b.next_delay_ms()) << "attempt " << i;
  }
}

TEST(LinkBackoff, DifferentSeedsDecorrelate) {
  const BackoffOptions opts;
  LinkBackoff a(opts, 1), b(opts, 2);
  int diffs = 0;
  for (int i = 0; i < 32; ++i) {
    if (a.next_delay_ms() != b.next_delay_ms()) ++diffs;
  }
  // Jitter spans half of each delay; 32 identical draws would mean the
  // seed does not reach the jitter stream at all.
  EXPECT_GT(diffs, 0);
}

TEST(LinkBackoff, DelaysRespectCapAndJitterBounds) {
  BackoffOptions opts;
  opts.base_ms = 10;
  opts.cap_ms = 500;
  opts.jitter_pct = 50;
  LinkBackoff bo(opts, 7);
  for (std::uint32_t k = 0; k < 40; ++k) {
    const std::uint64_t full =
        k < 63 ? std::min<std::uint64_t>(opts.base_ms << k, opts.cap_ms)
               : opts.cap_ms;
    const std::uint64_t d = bo.next_delay_ms();
    EXPECT_LE(d, full) << "attempt " << k;
    EXPECT_GE(d, full - full * opts.jitter_pct / 100) << "attempt " << k;
  }
}

TEST(LinkBackoff, GrowsExponentiallyWithoutJitter) {
  BackoffOptions opts;
  opts.base_ms = 20;
  opts.cap_ms = 2000;
  opts.jitter_pct = 0;
  LinkBackoff bo(opts, 1);
  EXPECT_EQ(bo.next_delay_ms(), 20u);
  EXPECT_EQ(bo.next_delay_ms(), 40u);
  EXPECT_EQ(bo.next_delay_ms(), 80u);
  EXPECT_EQ(bo.next_delay_ms(), 160u);
  for (int i = 0; i < 20; ++i) bo.next_delay_ms();
  EXPECT_EQ(bo.next_delay_ms(), 2000u) << "must saturate at the cap";
}

TEST(LinkBackoff, ResetRestartsFromBase) {
  BackoffOptions opts;
  opts.jitter_pct = 0;
  LinkBackoff bo(opts, 1);
  for (int i = 0; i < 6; ++i) bo.next_delay_ms();
  bo.reset();
  EXPECT_EQ(bo.attempts(), 0u);
  EXPECT_EQ(bo.next_delay_ms(), opts.base_ms);
}

TEST(LinkBackoff, HugeAttemptCountsDoNotOverflow) {
  BackoffOptions opts;
  opts.base_ms = 20;
  opts.cap_ms = 2000;
  opts.jitter_pct = 0;
  LinkBackoff bo(opts, 1);
  for (int i = 0; i < 200; ++i) {
    EXPECT_LE(bo.next_delay_ms(), opts.cap_ms);
  }
}

/// Replays a fixed fail/connect script against LinkRetry with injected
/// time, recording every transition instant.
std::vector<std::uint64_t> run_timeline(std::uint64_t seed) {
  BackoffOptions opts;
  opts.base_ms = 10;
  opts.cap_ms = 400;
  LinkRetry retry(opts, seed);
  std::vector<std::uint64_t> timeline;
  std::uint64_t now = 0;
  // Six failed attempts, then success, then a drop and one more attempt.
  for (int i = 0; i < 6; ++i) {
    while (!retry.should_dial(now)) ++now;  // advance injected time
    timeline.push_back(now);
    retry.on_down(now);  // connect refused
  }
  while (!retry.should_dial(now)) ++now;
  timeline.push_back(now);
  retry.on_up();
  timeline.push_back(now);
  now += 1000;
  retry.on_down(now);  // established link dropped
  while (!retry.should_dial(now)) ++now;
  timeline.push_back(now);
  return timeline;
}

TEST(LinkRetry, SameSeedSameReconnectTimeline) {
  EXPECT_EQ(run_timeline(99), run_timeline(99));
  EXPECT_EQ(run_timeline(1234), run_timeline(1234));
}

TEST(LinkRetry, SuccessResetsTheBackoffSchedule) {
  BackoffOptions opts;
  opts.base_ms = 10;
  opts.cap_ms = 10'000;
  opts.jitter_pct = 0;
  LinkRetry retry(opts, 1);
  EXPECT_TRUE(retry.should_dial(0)) << "the first dial does not wait";
  // Drive the schedule up.
  std::uint64_t prev = 0, now = 0;
  for (int i = 0; i < 8; ++i) {
    retry.on_down(now);
    prev = now;
    now = retry.retry_at_ms();
  }
  EXPECT_EQ(now - prev, 10u << 7) << "8th delay should be base << 7";
  retry.on_up();
  // After a success the next failure must wait only the base delay again.
  retry.on_down(5000);
  EXPECT_EQ(retry.retry_at_ms(), 5010u);
  EXPECT_FALSE(retry.should_dial(5009));
  EXPECT_TRUE(retry.should_dial(5010));
}

}  // namespace
}  // namespace ritas::net
