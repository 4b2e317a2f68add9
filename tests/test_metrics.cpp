// The counters behind Figure 7 and §4.3: broadcast attribution (payload vs
// agreement), consensus round accounting, aggregation.
#include "core/metrics.h"

#include <gtest/gtest.h>

#include "sim_helpers.h"

namespace ritas {
namespace {

using test::Cluster;
using test::fast_lan;
using test::kDeadline;

TEST(Metrics, BroadcastAttributionCounters) {
  Metrics m;
  m.count_broadcast_start(ProtocolType::kReliableBroadcast, Attribution::kPayload);
  m.count_broadcast_start(ProtocolType::kReliableBroadcast, Attribution::kAgreement);
  m.count_broadcast_start(ProtocolType::kEchoBroadcast, Attribution::kAgreement);
  EXPECT_EQ(m.rb_started_payload, 1u);
  EXPECT_EQ(m.rb_started_agreement, 1u);
  EXPECT_EQ(m.eb_started_agreement, 1u);
  EXPECT_EQ(m.broadcasts_total(), 3u);
  EXPECT_EQ(m.broadcasts_agreement(), 2u);
}

TEST(Metrics, Aggregation) {
  Metrics a, b;
  a.msgs_sent = 10;
  a.bc_decided = 1;
  b.msgs_sent = 5;
  b.bc_rounds_total = 3;
  a += b;
  EXPECT_EQ(a.msgs_sent, 15u);
  EXPECT_EQ(a.bc_decided, 1u);
  EXPECT_EQ(a.bc_rounds_total, 3u);
}

TEST(Metrics, SingleReliableBroadcastCountsOnce) {
  Cluster c(fast_lan(4, 1));
  sim::LayerRun run(c, sim::Workload::kReliableBroadcast, 1,
                    {.calls = {{0, {to_bytes("m")}}}});
  c.run_all();
  const Metrics m = c.total_metrics();
  // Exactly one broadcast instance was *started* system-wide (by p0).
  EXPECT_EQ(m.broadcasts_total(), 1u);
  EXPECT_EQ(m.rb_started_payload, 1u);
  // Bracha with n=4: 3 INIT + 12 ECHO + 12 READY minus self-loops = wire
  // messages; every host echoes and readies. 3 + 4*3 + 4*3 = 27.
  EXPECT_EQ(m.msgs_sent, 27u);
}

TEST(Metrics, MvcAttributesEverythingToAgreement) {
  Cluster c(fast_lan(4, 2));
  auto cap = test::run_mvc(
      c, {to_bytes("v"), to_bytes("v"), to_bytes("v"), to_bytes("v")});
  ASSERT_TRUE(cap.all_set(c.correct_set()));
  c.run_all();  // let the binary consensus finish its courtesy round
  const Metrics m = c.total_metrics();
  EXPECT_EQ(m.broadcasts_total(), m.broadcasts_agreement());
  // Per process: 1 INIT RB + 1 VECT EB + 3 BC-step RBs for the deciding
  // round + 3 more for the courtesy round that lets laggards finish = 8.
  EXPECT_EQ(m.broadcasts_total(), 32u);
}

TEST(Metrics, AtomicBroadcastSplitsPayloadFromAgreement) {
  Cluster c(fast_lan(4, 3));
  test::AbGroup g(c);
  const std::uint32_t kMsgs = 10;
  c.call(0, [&] {
    for (std::uint32_t i = 0; i < kMsgs; ++i) g.bcast(0, to_bytes("x"));
  });
  ASSERT_TRUE(c.run_until([&] { return g.log(0).size() >= kMsgs; }, kDeadline));
  c.run_all();  // drain the other processes' deliveries too
  const Metrics m = c.total_metrics();
  EXPECT_EQ(m.rb_started_payload, kMsgs);  // AB_MSG dissemination
  EXPECT_GT(m.broadcasts_agreement(), 0u); // AB_VECT + MVC machinery
  EXPECT_EQ(m.ab_delivered, 4 * kMsgs);    // every process delivered all
}

TEST(Metrics, RoundAccountingMatchesDecisions) {
  Cluster c(fast_lan(4, 4));
  auto cap = test::run_binary_consensus(c, {true, true, true, true});
  ASSERT_TRUE(cap.all_set(c.correct_set()));
  const Metrics m = c.total_metrics();
  EXPECT_EQ(m.bc_decided, 4u);
  EXPECT_EQ(m.bc_rounds_total, 4u);  // one round each
  EXPECT_EQ(m.bc_coin_flips, 0u);
}

TEST(Metrics, TraceDerivedAttributionMatchesCounters) {
  // Figure 7's numbers can be computed two ways: from the stack's counters
  // or by folding the trace. They must agree exactly.
  test::ClusterOptions o = fast_lan(4, 8);
  o.trace = true;
  Cluster c(o);
  auto cap = test::run_vc(
      c, {to_bytes("a"), to_bytes("b"), to_bytes("c"), to_bytes("d")});
  ASSERT_TRUE(cap.all_set(c.correct_set()));
  c.run_all();
  const Metrics m = c.total_metrics();
  const TraceSummary s = summarize(c.tracers());
  EXPECT_EQ(s.rb_started_payload, m.rb_started_payload);
  EXPECT_EQ(s.rb_started_agreement, m.rb_started_agreement);
  EXPECT_EQ(s.eb_started_payload, m.eb_started_payload);
  EXPECT_EQ(s.eb_started_agreement, m.eb_started_agreement);
  EXPECT_EQ(s.broadcasts_total(), m.broadcasts_total());
  EXPECT_EQ(s.broadcasts_agreement(), m.broadcasts_agreement());
  EXPECT_EQ(s.sends, m.msgs_sent);
  EXPECT_EQ(s.bytes_sent, m.bytes_sent);
}

TEST(Metrics, LatencyHistogramsCountCompletions) {
  test::ClusterOptions o = fast_lan(4, 10);
  Cluster c(o);
  auto cap = test::run_mvc(
      c, {to_bytes("v"), to_bytes("v"), to_bytes("v"), to_bytes("v")});
  ASSERT_TRUE(cap.all_set(c.correct_set()));
  c.run_all();
  const Metrics m = c.total_metrics();
  // Every decided consensus recorded one latency observation; the inner BC
  // round histogram saw one entry per decision.
  const auto& bc_lat =
      m.proto_latency_ns[static_cast<std::size_t>(ProtocolType::kBinaryConsensus)];
  const auto& mvc_lat = m.proto_latency_ns[static_cast<std::size_t>(
      ProtocolType::kMultiValuedConsensus)];
  EXPECT_EQ(bc_lat.count(), m.bc_decided);
  EXPECT_EQ(mvc_lat.count(), 4u);
  EXPECT_GT(mvc_lat.mean(), 0.0);
  EXPECT_EQ(m.bc_round_hist.count(), m.bc_decided);
  // Latencies are virtual-time and nonzero (the LAN model delays frames).
  EXPECT_GT(bc_lat.min(), 0u);
}

TEST(Metrics, DefensiveDropCountersStartAtZero) {
  Cluster c(fast_lan(4, 5));
  const Metrics m = c.total_metrics();
  EXPECT_EQ(m.malformed_dropped, 0u);
  EXPECT_EQ(m.invalid_dropped, 0u);
  EXPECT_EQ(m.unroutable_dropped, 0u);
  EXPECT_EQ(m.ooc_stored, 0u);
}

}  // namespace
}  // namespace ritas
