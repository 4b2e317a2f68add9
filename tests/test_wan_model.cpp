#include "sim/wan_model.h"

#include <gtest/gtest.h>

namespace ritas::sim {
namespace {

// The table the original four-site WAN bench shipped with before the model
// was factored out; the canonical profile must keep reproducing it
// bit-for-bit.
constexpr Time kLegacyBenchWanMs[4][4] = {
    {0, 5, 40, 90}, {5, 0, 35, 85}, {45, 38, 0, 60}, {95, 88, 65, 0}};

TEST(WanModel, CanonicalTableKeepsLegacyBenchWanBlock) {
  for (std::uint32_t a = 0; a < 4; ++a) {
    for (std::uint32_t b = 0; b < 4; ++b) {
      EXPECT_EQ(canonical_site_delay(a, b), kLegacyBenchWanMs[a][b] * kMillisecond)
          << "site " << a << " -> " << b;
    }
  }
}

TEST(WanModel, CanonicalTableIsAsymmetric) {
  // The whole point of the WAN model (§4.2's caveat): A->B != B->A for at
  // least some pairs, and the diagonal is zero.
  bool any_asymmetric = false;
  for (std::uint32_t a = 0; a < kCanonicalSites; ++a) {
    EXPECT_EQ(canonical_site_delay(a, a), 0u);
    for (std::uint32_t b = 0; b < kCanonicalSites; ++b) {
      if (a == b) continue;
      EXPECT_GT(canonical_site_delay(a, b), 0u);
      if (canonical_site_delay(a, b) != canonical_site_delay(b, a)) {
        any_asymmetric = true;
      }
    }
  }
  EXPECT_TRUE(any_asymmetric);
}

TEST(WanModel, ProfileMapsProcessesRoundRobin) {
  const WanModelConfig cfg = wan_profile(10, {.sites = 4});
  ASSERT_EQ(cfg.site_of.size(), 10u);
  for (std::uint32_t p = 0; p < 10; ++p) EXPECT_EQ(cfg.site_of[p], p % 4);
  ASSERT_EQ(cfg.links.size(), 4u);
  EXPECT_EQ(cfg.links[0][3].base_delay_ns, 90 * kMillisecond);
  EXPECT_EQ(cfg.links[3][0].base_delay_ns, 95 * kMillisecond);
}

TEST(WanModel, PlainDelayIsBaseOnly) {
  WanModel m(wan_profile(8, {.sites = 4}), /*seed=*/7);
  // p0 (site 0) -> p3 (site 3): base one-way, no jitter/loss configured.
  EXPECT_EQ(m.extra_delay(0, 3, 0), 90 * kMillisecond);
  // Intra-site (p0 and p4 both live at site 0): LAN only, no extra.
  EXPECT_EQ(m.extra_delay(0, 4, 0), 0u);
}

TEST(WanModel, JitterStaysInBoundAndIsSeeded) {
  const WanProfileOptions opt{.sites = 4, .jitter_permille = 100};
  const Time base = 90 * kMillisecond;
  const Time bound = base / 1000 * 100;  // 10% of the one-way delay
  WanModel a(wan_profile(4, opt), 42);
  WanModel b(wan_profile(4, opt), 42);
  WanModel c(wan_profile(4, opt), 43);
  bool any_jitter = false;
  bool diverged = false;
  for (int i = 0; i < 64; ++i) {
    const Time da = a.extra_delay(0, 3, 0);
    const Time db = b.extra_delay(0, 3, 0);
    const Time dc = c.extra_delay(0, 3, 0);
    EXPECT_GE(da, base);
    EXPECT_LT(da, base + bound);
    EXPECT_EQ(da, db);  // same seed => identical stream
    any_jitter = any_jitter || da != base;
    diverged = diverged || da != dc;
  }
  EXPECT_TRUE(any_jitter);
  EXPECT_TRUE(diverged);  // different seed => different stream
}

TEST(WanModel, LossAddsRtoMultiplesNeverDrops) {
  // 30% modeled loss: over 256 frames some must draw >= 1 retransmission,
  // and every delay is base + k * rto exactly (jitter off).
  WanProfileOptions opt{.sites = 4, .loss_ppm = 300'000};
  opt.rto_ns = 50 * kMillisecond;
  WanModel m(wan_profile(4, opt), 11);
  const Time base = 5 * kMillisecond;  // site 0 -> 1
  for (int i = 0; i < 256; ++i) {
    const Time d = m.extra_delay(0, 1, 0);
    EXPECT_GE(d, base);
    EXPECT_EQ((d - base) % opt.rto_ns, 0u);
  }
  EXPECT_GT(m.retransmissions(), 0u);
}

TEST(WanModel, KillWindowHoldsFramesUntilHeal) {
  WanModelConfig cfg;  // no sites: pure-LAN shape, kills only
  cfg.kills.push_back({1, 2, 100 * kMillisecond, 200 * kMillisecond});
  WanModel m(std::move(cfg), 1);
  // Outside the window: nothing.
  EXPECT_EQ(m.extra_delay(1, 2, 50 * kMillisecond), 0u);
  EXPECT_EQ(m.extra_delay(1, 2, 200 * kMillisecond), 0u);
  // Inside: held until the heal instant, both directions.
  EXPECT_EQ(m.extra_delay(1, 2, 150 * kMillisecond), 50 * kMillisecond);
  EXPECT_EQ(m.extra_delay(2, 1, 199 * kMillisecond), 1 * kMillisecond);
  // Other links unaffected.
  EXPECT_EQ(m.extra_delay(0, 3, 150 * kMillisecond), 0u);
}

TEST(WanModel, SitesClampedToCanonicalRange) {
  const WanModelConfig cfg = wan_profile(4, {.sites = 99});
  ASSERT_EQ(cfg.links.size(), std::size_t{kCanonicalSites});
  for (std::uint32_t p = 0; p < 4; ++p) {
    EXPECT_LT(cfg.site_of[p], kCanonicalSites);
  }
}

}  // namespace
}  // namespace ritas::sim
