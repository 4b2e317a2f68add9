#include "sim/wan_model.h"

#include <algorithm>

namespace ritas::sim {

namespace {

// One-way inter-site delays in milliseconds, asymmetric. The top-left 4x4
// block is the original four-site table, pinned bit-for-bit by
// test_wan_model; the remaining sites extend the same intra-continent /
// inter-continent mix out to 8 sites.
constexpr Time kSiteDelayMs[kCanonicalSites][kCanonicalSites] = {
    //  s0   s1   s2   s3   s4   s5   s6   s7
    {0, 5, 40, 90, 35, 62, 105, 78},        // s0
    {5, 0, 35, 85, 28, 68, 98, 72},         // s1
    {45, 38, 0, 60, 75, 98, 145, 112},      // s2
    {95, 88, 65, 0, 82, 168, 50, 38},       // s3
    {38, 30, 72, 85, 0, 92, 70, 52},        // s4
    {60, 65, 95, 170, 95, 0, 158, 132},     // s5
    {102, 95, 140, 48, 72, 162, 0, 55},     // s6
    {75, 70, 115, 35, 50, 135, 58, 0},      // s7
};

// Cap on modeled back-to-back retransmissions of one frame: keeps a
// pathological loss_ppm from spinning the Rng unboundedly while staying
// far above anything a realistic loss rate draws.
constexpr int kMaxRetransmissions = 16;

}  // namespace

Time canonical_site_delay(std::uint32_t from_site, std::uint32_t to_site) {
  if (from_site >= kCanonicalSites || to_site >= kCanonicalSites) return 0;
  return kSiteDelayMs[from_site][to_site] * kMillisecond;
}

WanModelConfig wan_profile(std::uint32_t n, const WanProfileOptions& opt) {
  const std::uint32_t sites =
      std::clamp<std::uint32_t>(opt.sites, 1, kCanonicalSites);
  WanModelConfig cfg;
  cfg.site_of.resize(n);
  for (std::uint32_t p = 0; p < n; ++p) cfg.site_of[p] = p % sites;
  cfg.links.assign(sites, std::vector<WanLink>(sites));
  for (std::uint32_t a = 0; a < sites; ++a) {
    for (std::uint32_t b = 0; b < sites; ++b) {
      if (a == b) continue;
      WanLink& l = cfg.links[a][b];
      l.base_delay_ns = canonical_site_delay(a, b);
      l.jitter_ns = l.base_delay_ns / 1000 * opt.jitter_permille;
      l.loss_ppm = opt.loss_ppm;
      l.rto_ns = opt.rto_ns;
    }
  }
  return cfg;
}

WanModel::WanModel(WanModelConfig cfg, std::uint64_t seed)
    : cfg_(std::move(cfg)), rng_(seed) {}

Time WanModel::extra_delay(ProcessId from, ProcessId to, Time now) {
  Time extra = 0;
  const std::uint32_t sf = site_of(from);
  const std::uint32_t st = site_of(to);
  if (sf != st && sf < cfg_.links.size() && st < cfg_.links[sf].size()) {
    const WanLink& l = cfg_.links[sf][st];
    extra += l.base_delay_ns;
    if (l.jitter_ns > 0) extra += rng_.below(l.jitter_ns);
    if (l.loss_ppm > 0) {
      int lost = 0;
      while (lost < kMaxRetransmissions && rng_.below(1'000'000) < l.loss_ppm) {
        extra += l.rto_ns;
        ++lost;
      }
      if (lost > 0) ++retransmissions_;
    }
  }
  for (const LinkKill& k : cfg_.kills) {
    if (now < k.start || now >= k.end) continue;
    if ((k.a == from && k.b == to) || (k.a == to && k.b == from)) {
      // Held until the link heals: the real channel layer reconnects and
      // retransmits exactly, so the frame arrives late, never lost.
      extra = std::max(extra, k.end - now);
    }
  }
  return extra;
}

}  // namespace ritas::sim
