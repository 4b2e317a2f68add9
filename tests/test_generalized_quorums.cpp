// Safety of the generalized binary-consensus quorums for group sizes with
// slack (n > 3f+1, i.e. n = 5 and 6 with f = 1): the paper's literal
// 2f+1 / f+1 thresholds could let two (n-f)-snapshots adopt different
// values there, so the implementation uses ⌊(n+f)/2⌋+1 / max(f+1, n-Qd+1)
// (see binary_consensus.cpp). These sweeps hammer exactly those group
// sizes with the schedules most likely to split snapshots apart.
#include <gtest/gtest.h>

#include "sim_helpers.h"

namespace ritas {
namespace {

using test::Cluster;
using test::fast_lan;
using test::run_binary_consensus;

// gtest prints a parameter it cannot format as its raw bytes, and those
// bytes become part of the listed test name; the struct therefore has no
// padding, so the names do not pick up uninitialised stack bytes.
struct SlackParams {
  std::uint32_t n;          // 5 or 6: f = 1 with slack
  std::uint32_t byzantine;  // 0 or 1: the last process is Byzantine
  std::uint64_t seed;
  std::uint64_t sim_seed;   // simulator seed derived from (seed, n)
};
static_assert(sizeof(SlackParams) == 24, "SlackParams must have no padding");

std::string slack_name(const ::testing::TestParamInfo<SlackParams>& info) {
  return "n" + std::to_string(info.param.n) +
         (info.param.byzantine ? "_byz" : "_ok") + "_s" +
         std::to_string(info.param.seed);
}

class SlackQuorums : public ::testing::TestWithParam<SlackParams> {};

TEST_P(SlackQuorums, SplitProposalsNeverDisagree) {
  const auto& prm = GetParam();
  test::ClusterOptions o = fast_lan(prm.n, prm.sim_seed);
  o.lan.jitter_ns = 800'000;
  if (prm.byzantine) o.byzantine = {prm.n - 1};
  Cluster c(o);
  // Clique skew: the adversarial schedule for snapshot divergence.
  const ProcessId half = prm.n / 2;
  c.network().set_delay_policy([half](ProcessId from, ProcessId to, sim::Time) {
    const bool cross = (from < half) != (to < half);
    return cross ? 2 * sim::kMillisecond : 0;
  });
  std::vector<bool> proposals(prm.n);
  for (ProcessId p = 0; p < prm.n; ++p) proposals[p] = (p % 2 == 0);
  auto cap = run_binary_consensus(c, proposals);
  ASSERT_TRUE(cap.all_set(c.correct_set())) << "termination";
  EXPECT_TRUE(cap.agree(c.correct_set())) << "AGREEMENT VIOLATION at n=" << prm.n;
}

std::vector<SlackParams> slack_matrix() {
  std::vector<SlackParams> out;
  for (std::uint32_t n : {5u, 6u}) {
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
      const std::uint64_t sim_seed = 7000 + seed * 17 + n;
      out.push_back({n, 0, seed, sim_seed});
      out.push_back({n, 1, seed, sim_seed});
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Slack, SlackQuorums, ::testing::ValuesIn(slack_matrix()),
                         slack_name);

TEST(GeneralizedQuorums, ReduceToPaperConstantsAtThreeFPlusOne) {
  // At n = 3f+1 the generalized thresholds must equal the paper's 2f+1 and
  // f+1 — checked through the Quorums helpers the protocol uses.
  for (std::uint32_t f = 1; f <= 5; ++f) {
    const std::uint32_t n = 3 * f + 1;
    const Quorums q(n);
    EXPECT_EQ((n + q.f) / 2 + 1, 2 * f + 1) << "decide quorum at n=" << n;
    const std::uint32_t qd = (n + q.f) / 2 + 1;
    EXPECT_EQ(std::max(q.f + 1, n - qd + 1), f + 1) << "adopt quorum at n=" << n;
  }
}

TEST(GeneralizedQuorums, DecideForcesUniformAdoption) {
  // The safety inequalities behind the generalized thresholds, for every
  // supported group size:
  //   (1) qd - f >= qa: a decide on w in one snapshot forces at least qa
  //       copies of w into EVERY (n-f)-snapshot, so everyone adopts w;
  //   (2) n - qd < qa: after a decide on w, the opposite value cannot
  //       reach the adopt quorum anywhere;
  //   (3) qd <= n - f: deciding stays reachable with f silent processes.
  // Note that 2*qa > n-f (strict adopt uniqueness) is NOT required and in
  // fact fails for n ≡ 2 mod 3 — both values reaching qa is possible only
  // in rounds where nobody decided, where either adoption is safe.
  for (std::uint32_t n = 4; n <= 40; ++n) {
    const Quorums q(n);
    const std::uint32_t qd = (n + q.f) / 2 + 1;
    const std::uint32_t qa = std::max(q.f + 1, n - qd + 1);
    EXPECT_GE(qd - q.f, qa) << "n=" << n;
    EXPECT_LT(n - qd, qa) << "n=" << n;
    EXPECT_LE(qd, q.n_minus_f()) << "n=" << n;
  }
}

}  // namespace
}  // namespace ritas
