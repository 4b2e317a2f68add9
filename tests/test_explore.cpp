// Schedule-exploration harness: determinism of trials, JSON round-trips,
// the injected weak-quorum bug being found and shrunk, bit-identical
// replay of minimized schedules, and stall (liveness-budget) detection.
#include <gtest/gtest.h>

#include "sim/explore.h"

namespace ritas::sim {
namespace {

TEST(Explore, ScheduleJsonRoundTrip) {
  Explorer::Config cfg;
  cfg.workload = Workload::kAtomicBroadcast;
  Explorer ex(cfg);
  for (std::uint64_t seed : {1ull, 42ull, 987654321ull}) {
    const Schedule s = ex.make_schedule(seed);
    const std::string json = s.to_json();
    const auto back = Schedule::from_json(json);
    ASSERT_TRUE(back.has_value()) << json;
    EXPECT_EQ(back->to_json(), json);
  }
}

TEST(Explore, ScheduleJsonRejectsMalformedInput) {
  EXPECT_FALSE(Schedule::from_json("").has_value());
  EXPECT_FALSE(Schedule::from_json("not json").has_value());
  EXPECT_FALSE(Schedule::from_json("{}").has_value());
  EXPECT_FALSE(Schedule::from_json("[1,2,3]").has_value());
  // Wrong version.
  Schedule s;
  std::string json = s.to_json();
  const auto pos = json.find("\"version\":1");
  ASSERT_NE(pos, std::string::npos);
  std::string bad = json;
  bad.replace(pos, 11, "\"version\":2");
  EXPECT_FALSE(Schedule::from_json(bad).has_value());
  // Unknown workload.
  bad = json;
  const auto wpos = bad.find("\"workload\":\"bc\"");
  ASSERT_NE(wpos, std::string::npos);
  bad.replace(wpos, 15, "\"workload\":\"zz\"");
  EXPECT_FALSE(Schedule::from_json(bad).has_value());
}

TEST(Explore, ScheduleJsonAcceptsArtifactWrapper) {
  // The CLI wraps the schedule in a report object; from_json must descend.
  Explorer ex(Explorer::Config{});
  const Schedule s = ex.make_schedule(7);
  const std::string wrapped =
      "{\"version\":1,\"tool\":\"ritas_explore\",\"fingerprint\":123,"
      "\"schedule\":" + s.to_json() + "}";
  const auto back = Schedule::from_json(wrapped);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->to_json(), s.to_json());
}

TEST(Explore, MakeScheduleIsDeterministic) {
  Explorer a{Explorer::Config{}};
  Explorer b{Explorer::Config{}};
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    EXPECT_EQ(a.make_schedule(seed).to_json(), b.make_schedule(seed).to_json())
        << "seed " << seed;
  }
}

TEST(Explore, SameScheduleSameTrialTrace) {
  // Same seed => bit-identical run: the observation-stream fingerprint,
  // event count and end time must all match across re-executions.
  Explorer ex(Explorer::Config{});
  for (std::uint64_t seed : {3ull, 11ull, 29ull}) {
    const Schedule s = ex.make_schedule(seed);
    const TrialResult r1 = Explorer::run_trial(s);
    const TrialResult r2 = Explorer::run_trial(s);
    EXPECT_EQ(r1.fingerprint, r2.fingerprint) << "seed " << seed;
    EXPECT_EQ(r1.events, r2.events) << "seed " << seed;
    EXPECT_EQ(r1.end_time, r2.end_time) << "seed " << seed;
    EXPECT_EQ(r1.violations, r2.violations) << "seed " << seed;
    EXPECT_EQ(r1.completed, r2.completed) << "seed " << seed;
  }
  // Different seeds perturb the trace: fingerprints must differ.
  EXPECT_NE(Explorer::run_trial(ex.make_schedule(3)).fingerprint,
            Explorer::run_trial(ex.make_schedule(4)).fingerprint);
}

TEST(Explore, CleanSweepFindsNothing) {
  Explorer::Config cfg;
  cfg.messages = 1;
  Explorer ex(cfg);
  const auto finding = ex.explore(1, 30);
  EXPECT_FALSE(finding.has_value());
  EXPECT_EQ(ex.metrics().explore_trials, 30u);
  EXPECT_EQ(ex.metrics().explore_violations, 0u);
  EXPECT_EQ(ex.metrics().explore_stalls, 0u);
}

TEST(Explore, VariantSweepsFindNothing) {
  // Per-variant explorer smoke: every non-default algorithm must survive
  // the same randomized-schedule battery (faultloads, perturbations,
  // adversary hooks) the default stack does — 40+ seeds per variant.
  struct Case {
    Workload workload;
    std::uint32_t n;
    VariantConfig variants;
  };
  const Case cases[] = {
      {Workload::kReliableBroadcast, 6,
       {RbVariant::kImbsRaynal, BcVariant::kBracha}},
      {Workload::kBinaryConsensus, 4, {RbVariant::kBracha, BcVariant::kCrain}},
      {Workload::kMultiValuedConsensus, 6,
       {RbVariant::kImbsRaynal, BcVariant::kCrain}},
  };
  for (const Case& cs : cases) {
    Explorer::Config cfg;
    cfg.workload = cs.workload;
    cfg.n = cs.n;
    cfg.variants = cs.variants;
    cfg.messages = 1;
    Explorer ex(cfg);
    const auto finding = ex.explore(1, 45);
    EXPECT_FALSE(finding.has_value())
        << rb_variant_name(cs.variants.rb) << "/"
        << bc_variant_name(cs.variants.bc) << " seed "
        << (finding ? finding->trial_seed : 0) << ": "
        << (finding ? finding->result.violations.size() : 0) << " violations";
    EXPECT_EQ(ex.metrics().explore_trials, 45u);
    EXPECT_EQ(ex.metrics().explore_violations, 0u);
  }
}

TEST(Explore, BatchedAbSweepsFindNothing) {
  // Batched atomic broadcast under the full §2.7 set: the recorder's batch
  // slot names every message of a batch, so no-dup, no-creation and
  // validity judge batched trials exactly as they judge unbatched ones.
  for (BcVariant bc : {BcVariant::kBracha, BcVariant::kCrain}) {
    Explorer::Config cfg;
    cfg.workload = Workload::kAtomicBroadcast;
    cfg.ab_batching = true;
    cfg.variants.bc = bc;
    cfg.messages = 6;
    Explorer ex(cfg);
    const auto finding = ex.explore(1, 100);
    EXPECT_FALSE(finding.has_value())
        << bc_variant_name(bc) << " seed "
        << (finding ? finding->trial_seed : 0) << ": "
        << (finding && !finding->result.violations.empty()
                ? finding->result.violations.front()
                : std::string("stall"));
    EXPECT_EQ(ex.metrics().explore_trials, 100u);
    EXPECT_EQ(ex.metrics().explore_violations, 0u);
  }
}

TEST(Explore, VariantScheduleJsonRoundTripAndValidation) {
  Explorer::Config cfg;
  cfg.workload = Workload::kReliableBroadcast;
  cfg.n = 6;
  cfg.variants = {RbVariant::kImbsRaynal, BcVariant::kCrain};
  Explorer ex(cfg);
  const Schedule s = ex.make_schedule(11);
  EXPECT_EQ(s.variants, cfg.variants);
  EXPECT_EQ(s.coin_mode, CoinMode::kDealt);  // implied by crain
  const std::string json = s.to_json();
  EXPECT_NE(json.find("\"rb_variant\":\"imbs-raynal\""), std::string::npos);
  EXPECT_NE(json.find("\"bc_variant\":\"crain\""), std::string::npos);
  const auto back = Schedule::from_json(json);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, s);
  // Unknown variant names are rejected, as are combos a stack would refuse
  // to construct (imbs-raynal below n = 6).
  std::string bad = json;
  const auto pos = bad.find("\"rb_variant\":\"imbs-raynal\"");
  ASSERT_NE(pos, std::string::npos);
  bad.replace(pos, 26, "\"rb_variant\":\"nonesuch12\"");
  EXPECT_FALSE(Schedule::from_json(bad).has_value());
  bad = json;
  const auto npos_ = bad.find("\"n\":6");
  ASSERT_NE(npos_, std::string::npos);
  bad.replace(npos_, 5, "\"n\":4");
  EXPECT_FALSE(Schedule::from_json(bad).has_value());
  // Absent variant fields mean the default (Bracha) stack.
  const auto legacy = Schedule::from_json(Schedule{}.to_json());
  ASSERT_TRUE(legacy.has_value());
  EXPECT_EQ(legacy->variants, VariantConfig{});
}

TEST(Explore, ImbsRaynalFaultBudgetRespectsItsBound) {
  // At n = 6 the stack-wide budget is f = 1 but so is (n-1)/5; at n = 7
  // the stack allows 2 while Imbs–Raynal still only tolerates 1. No
  // generated schedule may exceed the weaker bound.
  Explorer::Config cfg;
  cfg.workload = Workload::kReliableBroadcast;
  cfg.n = 7;
  cfg.variants.rb = RbVariant::kImbsRaynal;
  Explorer ex(cfg);
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const Schedule s = ex.make_schedule(seed);
    std::size_t crashes = 0;
    for (const Perturbation& p : s.perturbations) {
      if (p.kind == Perturbation::Kind::kCrash) ++crashes;
    }
    EXPECT_LE(s.byzantine.size() + crashes, 1u) << "seed " << seed;
  }
}

TEST(Explore, WeakQuorumBugIsFoundShrunkAndReplaysBitIdentically) {
  // The acceptance gate for the whole harness: with the deliberately
  // weakened BC decide rule the explorer must find an agreement violation
  // within 200 seeded trials, shrink it to a small schedule, and the
  // serialized artifact must re-execute bit-identically.
  Explorer::Config cfg;
  cfg.weak_bc_quorum = true;
  Explorer ex(cfg);
  const auto finding = ex.explore(1, 200);
  ASSERT_TRUE(finding.has_value()) << "no violation within 200 trials";
  EXPECT_GE(ex.metrics().explore_violations, 1u);
  EXPECT_FALSE(finding->from_stall);
  EXPECT_FALSE(finding->result.violations.empty());

  // Shrinking reached a small schedule and never lost the violation.
  EXPECT_LE(finding->minimized.size(), 6u)
      << finding->minimized.to_json();
  EXPECT_LE(finding->minimized.size(), finding->schedule.size());

  // The violation is a BC agreement split, not some side effect.
  bool agreement = false;
  for (const std::string& v : finding->result.violations) {
    agreement = agreement || v.find("bc.agreement") != std::string::npos;
  }
  EXPECT_TRUE(agreement) << finding->result.violations.front();

  // Round-trip through the serialized artifact, then re-execute: the
  // replay must reproduce the violation with the same fingerprint.
  const auto replayed = Schedule::from_json(finding->minimized.to_json());
  ASSERT_TRUE(replayed.has_value());
  const TrialResult again = Explorer::run_trial(*replayed);
  EXPECT_EQ(again.fingerprint, finding->result.fingerprint);
  EXPECT_EQ(again.events, finding->result.events);
  EXPECT_EQ(again.end_time, finding->result.end_time);
  EXPECT_EQ(again.violations, finding->result.violations);
}

TEST(Explore, CorrectQuorumSurvivesTheSameSchedules) {
  // The exact schedules that break the weakened variant must be harmless
  // against the real decide rule.
  Explorer::Config weak;
  weak.weak_bc_quorum = true;
  Explorer ex(weak);
  const auto finding = ex.explore(1, 200);
  ASSERT_TRUE(finding.has_value());
  Schedule fixed = finding->minimized;
  fixed.weak_bc_quorum = false;
  const TrialResult r = Explorer::run_trial(fixed);
  EXPECT_TRUE(r.violations.empty())
      << "real quorum violated: " << r.violations.front();
  EXPECT_TRUE(r.completed);
}

TEST(Explore, LivenessBudgetFlagsAStalledRun) {
  // Crashing f+1 processes at t=0 leaves n-f-1 < n-f live: binary
  // consensus can never assemble a step quorum and the liveness budget
  // must flag the run as stalled instead of spinning forever.
  Schedule s;
  s.seed = 1;
  s.n = 4;
  s.workload = Workload::kBinaryConsensus;
  s.messages = 1;
  s.max_events = 50'000;
  s.perturbations.push_back(
      {Perturbation::Kind::kCrash, 2, 0, 0, 0, 0, 0});
  s.perturbations.push_back(
      {Perturbation::Kind::kCrash, 3, 0, 0, 0, 0, 0});
  const TrialResult r = Explorer::run_trial(s);
  EXPECT_TRUE(r.stalled);
  EXPECT_FALSE(r.completed);

  // Stalled runs are deterministic too: same schedule, same fingerprint.
  const TrialResult again = Explorer::run_trial(s);
  EXPECT_TRUE(again.stalled);
  EXPECT_EQ(again.fingerprint, r.fingerprint);
}

}  // namespace
}  // namespace ritas::sim
