// Large-n / WAN coverage: the shared safety oracles at n in {7, 10, 16}
// under WAN schedules for every variant combo within its resilience bound,
// the bit-identical campaign determinism pin, and the churn tail-latency
// scenario. This is the test side of bench_scaling_wan: the bench's rows
// are run_campaign results, so pinning run_campaign pins the bench.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/imbs_raynal_broadcast.h"
#include "sim/campaign.h"
#include "sim/explore.h"

namespace ritas::sim {
namespace {

Schedule wan_schedule(Workload w, std::uint32_t n, VariantConfig variants,
                      std::uint32_t byz_count, std::uint64_t seed) {
  Schedule s;
  s.seed = seed;
  s.n = n;
  s.workload = w;
  s.messages = 1;
  s.max_events = 2'000'000;
  s.variants = variants;
  s.wan.enabled = true;
  s.wan.sites = 4;
  s.wan.jitter_permille = 100;
  s.wan.loss_ppm = 2000;
  // Top ids, ascending: from_json canonicalizes the list sorted, so build
  // it sorted for exact round-trips.
  for (std::uint32_t i = 0; i < byz_count; ++i) {
    s.byzantine.push_back(static_cast<ProcessId>(n - byz_count + i));
  }
  if (byz_count > 0) s.adversary_hooks = hook::kPaper;
  return s;
}

std::vector<VariantConfig> all_variant_combos() {
  return {
      {RbVariant::kBracha, BcVariant::kBracha},
      {RbVariant::kImbsRaynal, BcVariant::kBracha},
      {RbVariant::kBracha, BcVariant::kCrain},
      {RbVariant::kImbsRaynal, BcVariant::kCrain},
  };
}

/// The combo's own resilience bound (Imbs–Raynal only tolerates (n-1)/5).
std::uint32_t combo_fault_bound(const VariantConfig& v, std::uint32_t n) {
  std::uint32_t f = max_faults(n);
  if (v.rb == RbVariant::kImbsRaynal) {
    f = std::min(f, ImbsRaynalBroadcast::max_faults_ir(n));
  }
  return f;
}

std::string cell_name(Workload w, std::uint32_t n, const VariantConfig& v,
                      std::uint32_t byz) {
  return std::string(workload_name(w)) + " n=" + std::to_string(n) + " rb=" +
         rb_variant_name(v.rb) + " bc=" + bc_variant_name(v.bc) +
         " byz=" + std::to_string(byz);
}

TEST(ScalingWan, FaultFreeSafetyBatteryAllVariantsLargeN) {
  const std::vector<Workload> workloads = {
      Workload::kReliableBroadcast, Workload::kBinaryConsensus,
      Workload::kMultiValuedConsensus, Workload::kVectorConsensus,
      Workload::kAtomicBroadcast};
  std::uint64_t seed = 7100;
  for (std::uint32_t n : {7u, 10u, 16u}) {
    for (const VariantConfig& v : all_variant_combos()) {
      for (Workload w : workloads) {
        const Schedule s = wan_schedule(w, n, v, /*byz=*/0, seed++);
        const TrialResult r = Explorer::run_trial(s);
        const std::string cell = cell_name(w, n, v, 0);
        EXPECT_TRUE(r.violations.empty())
            << cell << ": " << r.violations.front();
        EXPECT_TRUE(r.completed) << cell << " stalled after " << r.events
                                 << " events";
      }
    }
  }
}

TEST(ScalingWan, ByzantineSafetyAtResilienceBound) {
  // The §4.2 faultload at each combo's own bound; safety must hold even if
  // a run exhausts its budget (randomized termination is probability-1,
  // not bounded, so only safety is asserted here).
  std::uint64_t seed = 9300;
  for (std::uint32_t n : {7u, 10u, 16u}) {
    for (const VariantConfig& v : all_variant_combos()) {
      const std::uint32_t f = combo_fault_bound(v, n);
      ASSERT_GT(f, 0u);
      for (Workload w : {Workload::kBinaryConsensus,
                         Workload::kAtomicBroadcast}) {
        const Schedule s = wan_schedule(w, n, v, f, seed++);
        const TrialResult r = Explorer::run_trial(s);
        EXPECT_TRUE(r.violations.empty())
            << cell_name(w, n, v, f) << ": " << r.violations.front();
      }
    }
  }
}

TEST(ScalingWan, CampaignRerunsAreBitIdentical) {
  // The determinism pin behind BENCH_scaling_wan.json: same options =>
  // identical fingerprint, tail percentiles and virtual end time.
  CampaignOptions o;
  o.n = 7;
  o.net = NetProfile::kWan;
  o.fault = CampaignFault::kChurn;
  o.seed = 0xfeedbeef;
  o.ops = 60;
  const CampaignResult a = run_campaign(o);
  const CampaignResult b = run_campaign(o);
  EXPECT_TRUE(a.completed);
  EXPECT_TRUE(a.ordered);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.latency.p50(), b.latency.p50());
  EXPECT_EQ(a.latency.p99(), b.latency.p99());
  EXPECT_EQ(a.latency.p999(), b.latency.p999());
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.backlog_peak, b.backlog_peak);
  EXPECT_EQ(a.mvc_decided_default, b.mvc_decided_default);
  EXPECT_EQ(a.bc_rounds_total, b.bc_rounds_total);
  EXPECT_EQ(a.bc_decided, b.bc_decided);

  // And a different seed is a genuinely different run.
  CampaignOptions o2 = o;
  o2.seed = 0xfeedbee5;
  const CampaignResult c2 = run_campaign(o2);
  EXPECT_NE(a.fingerprint, c2.fingerprint);
}

TEST(ScalingWan, ChurnMidLoadHoldsOrderWithinStallBudget) {
  // kill_link churn mid-load: total order must hold, every op must still
  // complete, and the run must finish inside a generous stall budget (the
  // kill windows hold frames, they never lose them).
  CampaignOptions o;
  o.n = 7;
  o.net = NetProfile::kLan;
  o.fault = CampaignFault::kChurn;
  o.seed = 0xc0ffee;
  o.ops = 80;
  o.deadline = 60 * kSecond;  // stall budget
  const CampaignResult r = run_campaign(o);
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.ordered);
  EXPECT_EQ(r.ops_completed, r.ops_offered);
  EXPECT_LT(r.elapsed, 60 * kSecond);
  // Held frames stretch the tail beyond the median.
  EXPECT_GE(r.latency.p999(), r.latency.p50());
}

TEST(ScalingWan, WanTailDominatesLan) {
  CampaignOptions lan;
  lan.n = 7;
  lan.seed = 77;
  lan.ops = 60;
  CampaignOptions wan = lan;
  wan.net = NetProfile::kWan;
  const CampaignResult rl = run_campaign(lan);
  const CampaignResult rw = run_campaign(wan);
  ASSERT_TRUE(rl.completed);
  ASSERT_TRUE(rw.completed);
  EXPECT_GT(rw.latency.p99(), rl.latency.p99());
  EXPECT_GT(rw.latency.p50(), rl.latency.p50());
  // The §4.2 caveat: WAN asymmetry costs latency, not one-round agreement.
  EXPECT_EQ(rw.mvc_decided_default, 0u);
  EXPECT_GT(rw.bc_decided, 0u);
  EXPECT_EQ(rw.bc_rounds_total, rw.bc_decided);
}

TEST(ScalingWan, ScheduleJsonRoundTripsWanSpec) {
  Schedule s = wan_schedule(Workload::kAtomicBroadcast, 10,
                            {RbVariant::kBracha, BcVariant::kBracha},
                            /*byz=*/2, /*seed=*/123);
  s.wan.loss_ppm = 5000;
  s.wan.rto_ns = 150 * kMillisecond;
  const auto back = Schedule::from_json(s.to_json());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, s);

  // Legacy default: a LAN schedule serializes without a wan member and
  // deserializes disabled.
  Schedule lan = s;
  lan.wan = WanSpec{};
  const std::string text = lan.to_json();
  EXPECT_EQ(text.find("\"wan\""), std::string::npos);
  const auto lan_back = Schedule::from_json(text);
  ASSERT_TRUE(lan_back.has_value());
  EXPECT_FALSE(lan_back->wan.enabled);
  EXPECT_EQ(*lan_back, lan);
}

TEST(ScalingWan, ScheduleJsonRejectsInvalidWanSpec) {
  Schedule s = wan_schedule(Workload::kBinaryConsensus, 4,
                            {RbVariant::kBracha, BcVariant::kBracha}, 0, 1);
  const std::string good = s.to_json();
  auto mutate = [&](const std::string& from, const std::string& to) {
    std::string t = good;
    const auto pos = t.find(from);
    ASSERT_NE(pos, std::string::npos) << from;
    t.replace(pos, from.size(), to);
    EXPECT_FALSE(Schedule::from_json(t).has_value()) << to;
  };
  mutate("\"sites\":4", "\"sites\":0");
  mutate("\"sites\":4", "\"sites\":9");
  mutate("\"jitter_permille\":100", "\"jitter_permille\":2000");
  mutate("\"loss_ppm\":2000", "\"loss_ppm\":1000000");
}

TEST(ScalingWan, WanTrialsReplayBitIdentically) {
  const Schedule s = wan_schedule(Workload::kAtomicBroadcast, 7,
                                  {RbVariant::kBracha, BcVariant::kBracha},
                                  /*byz=*/2, /*seed=*/555);
  const TrialResult a = Explorer::run_trial(s);
  const TrialResult b = Explorer::run_trial(s);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_TRUE(a.violations.empty()) << a.violations.front();
}

}  // namespace
}  // namespace ritas::sim
