// The simulation harness itself: cluster wiring, faultload bookkeeping,
// root lifecycle, metrics aggregation.
#include "sim/cluster.h"

#include <gtest/gtest.h>

#include "sim_helpers.h"

namespace ritas {
namespace {

using test::Cluster;
using test::fast_lan;

TEST(Cluster, LiveAndCorrectSets) {
  test::ClusterOptions o = fast_lan(7, 1);
  o.crashed = {2};
  o.byzantine = {4};
  Cluster c(o);
  EXPECT_EQ(c.live(), (std::vector<ProcessId>{0, 1, 3, 4, 5, 6}));
  EXPECT_EQ(c.correct_set(), (std::vector<ProcessId>{0, 1, 3, 5, 6}));
  EXPECT_TRUE(c.crashed(2));
  EXPECT_TRUE(c.byzantine(4));
  EXPECT_FALSE(c.correct(4));
  EXPECT_TRUE(c.correct(0));
}

TEST(Cluster, RejectsOutOfRangeFaultConfig) {
  test::ClusterOptions bad = fast_lan(4, 1);
  bad.crashed = {9};
  EXPECT_THROW(Cluster{bad}, std::invalid_argument);
  test::ClusterOptions bad2 = fast_lan(4, 1);
  bad2.byzantine = {4};
  EXPECT_THROW(Cluster{bad2}, std::invalid_argument);
}

TEST(Cluster, PairwiseKeysAgreeAcrossStacks) {
  Cluster c(fast_lan(4, 2));
  for (ProcessId i = 0; i < 4; ++i) {
    for (ProcessId j = 0; j < 4; ++j) {
      EXPECT_TRUE(equal(c.stack(i).keys().key(j), c.stack(j).keys().key(i)));
    }
  }
}

TEST(Cluster, DestroyRootsTearsDownSubtrees) {
  Cluster c(fast_lan(4, 3));
  auto& rb = c.create_rb(
      0, InstanceId::root(ProtocolType::kReliableBroadcast, 1), 0,
      Attribution::kPayload, RbAlgorithm::DeliverFn{});
  (void)rb;
  EXPECT_EQ(c.stack(0).instance_count(), 1u);
  c.destroy_roots(0);
  EXPECT_EQ(c.stack(0).instance_count(), 0u);
}

TEST(Cluster, MetricsAggregateSkipsCrashed) {
  test::ClusterOptions o = fast_lan(4, 4);
  o.crashed = {3};
  Cluster c(o);
  sim::LayerRun run(c, sim::Workload::kReliableBroadcast, 1,
                    {.calls = {{0, {to_bytes("m")}}}});
  c.run_all();
  const Metrics m = c.total_metrics();
  EXPECT_EQ(m.rb_started_payload, 1u);
  EXPECT_GT(m.msgs_sent, 0u);
}

TEST(Cluster, ByzantineGetsAdversaryCorrectDoesNot) {
  test::ClusterOptions o = fast_lan(4, 5);
  o.byzantine = {1};
  Cluster c(o);
  EXPECT_EQ(c.stack(0).adversary(), nullptr);
  EXPECT_NE(c.stack(1).adversary(), nullptr);
}

TEST(Cluster, RunUntilDeadlineExpires) {
  Cluster c(fast_lan(4, 6));
  // Nothing scheduled: run_until must simply return false.
  EXPECT_FALSE(c.run_until([] { return false; }, sim::kSecond));
}

TEST(Cluster, SeedsDeriveDistinctProcessRngs) {
  Cluster c(fast_lan(4, 7));
  // Different processes' stacks must not share coin streams.
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (c.stack(0).rng().coin() == c.stack(1).rng().coin()) ++same;
  }
  EXPECT_GT(same, 10);
  EXPECT_LT(same, 54);
}

}  // namespace
}  // namespace ritas
