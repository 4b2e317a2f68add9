// Adversarial behaviours beyond the paper's faultload: network-scheduling
// adversaries (slow links, skewed cliques), omission attackers, message
// floods against the out-of-context table, and malformed bytes aimed at
// every protocol layer. Safety (agreement/total order) must survive all of
// it; liveness must survive everything but the impossible.
#include <gtest/gtest.h>

#include "sim/oracles.h"
#include "sim_helpers.h"

namespace ritas {
namespace {

using test::Cluster;
using test::fast_lan;
using test::kDeadline;
using test::run_binary_consensus;
using test::run_mvc;

TEST(Adversarial, SlowVictimStillDecides) {
  // The network delays every frame to/from process 2 by 5 ms: the others
  // must not wait for it (n-f quorums), and it must still decide late.
  test::ClusterOptions o = fast_lan(4, 1);
  Cluster c(o);
  c.network().set_delay_policy([](ProcessId from, ProcessId to, sim::Time) {
    return (from == 2 || to == 2) ? 5 * sim::kMillisecond : 0;
  });
  const std::vector<bool> proposals{true, true, true, true};
  auto cap = run_binary_consensus(c, proposals);
  sim::oracle::Report rep;
  sim::oracle::check_bc(rep, c.correct_set(), proposals, cap.got);
  EXPECT_TRUE(rep.ok()) << rep.text();
}

TEST(Adversarial, SkewedCliquesAgree) {
  // {0,1} talk fast among themselves, {2,3} too, but cross-clique traffic
  // is slow — a classic scheduler attack against split proposals.
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    test::ClusterOptions o = fast_lan(4, 40 + seed);
    Cluster c(o);
    c.network().set_delay_policy([](ProcessId from, ProcessId to, sim::Time) {
      const bool cross = (from < 2) != (to < 2);
      return cross ? 3 * sim::kMillisecond : 0;
    });
    const std::vector<bool> proposals{true, true, false, false};
    auto cap = run_binary_consensus(c, proposals);
    sim::oracle::Report rep;
    sim::oracle::check_bc(rep, c.correct_set(), proposals, cap.got);
    EXPECT_TRUE(rep.ok()) << "seed " << seed << ": " << rep.text();
  }
}

TEST(Adversarial, MultiRoundExecutionsHappenAndStayCorrect) {
  // Under clique skew + split proposals some executions must need > 1
  // round — the multi-round machinery (validation across rounds, coin,
  // halt-after-decide) is actually exercised.
  std::uint64_t total_rounds = 0, total_decided = 0;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    test::ClusterOptions o = fast_lan(4, 60 + seed);
    o.lan.jitter_ns = 600'000;
    Cluster c(o);
    c.network().set_delay_policy([](ProcessId from, ProcessId to, sim::Time) {
      const bool cross = (from < 2) != (to < 2);
      return cross ? 2 * sim::kMillisecond : 0;
    });
    const std::vector<bool> proposals{true, true, false, false};
    auto cap = run_binary_consensus(c, proposals);
    sim::oracle::Report rep;
    sim::oracle::check_bc(rep, c.correct_set(), proposals, cap.got);
    EXPECT_TRUE(rep.ok()) << "seed " << seed << ": " << rep.text();
    total_rounds += c.total_metrics().bc_rounds_total;
    total_decided += c.total_metrics().bc_decided;
  }
  EXPECT_GT(total_rounds, total_decided) << "no execution needed a second round";
}

TEST(Adversarial, OmissionAttackerIsACrash) {
  // A process that silently drops all its outbound traffic must look like
  // a crash to everyone else — and the stack tolerates f = 1 of those.
  class Omitter : public Adversary {
   public:
    bool omit_to(ProcessId) override { return true; }
  };
  test::ClusterOptions o = fast_lan(4, 2);
  o.byzantine = {0};
  o.adversary_factory = [] { return std::make_unique<Omitter>(); };
  Cluster c(o);
  const std::vector<Bytes> proposals(4, to_bytes("v"));
  auto cap = run_mvc(c, proposals);
  sim::oracle::Report rep;
  sim::oracle::check_mvc(rep, c.correct_set(), proposals, cap.got);
  EXPECT_TRUE(rep.ok()) << rep.text();
  // All correct processes proposed "v": the decision must be exactly it,
  // not the default value.
  for (ProcessId p : c.correct_set()) {
    ASSERT_TRUE(cap.got[p].has_value());
    ASSERT_TRUE(cap.got[p]->has_value());
    EXPECT_EQ(to_string(**cap.got[p]), "v");
  }
}

TEST(Adversarial, SelectiveOmissionToOneVictim) {
  // Attacker only omits messages to process 1; quorums route around it.
  class Selective : public Adversary {
   public:
    bool omit_to(ProcessId to) override { return to == 1; }
  };
  test::ClusterOptions o = fast_lan(4, 3);
  o.byzantine = {0};
  o.adversary_factory = [] { return std::make_unique<Selective>(); };
  Cluster c(o);
  const std::vector<bool> proposals{true, true, true, true};
  auto cap = run_binary_consensus(c, proposals);
  sim::oracle::Report rep;
  sim::oracle::check_bc(rep, c.correct_set(), proposals, cap.got);
  EXPECT_TRUE(rep.ok()) << rep.text();
  for (ProcessId p : c.correct_set()) EXPECT_TRUE(*cap.got[p]);
}

TEST(Adversarial, GarbageFramesAtEveryLayerAreDropped) {
  // Hand-craft malformed messages addressed to each protocol layer of a
  // running atomic broadcast; nothing may crash and the burst completes.
  Cluster c(fast_lan(4, 4));
  test::AbGroup g(c);
  g.send(0, to_bytes("legit"));
  const InstanceId id = InstanceId::root(ProtocolType::kAtomicBroadcast, 0);

  // Byzantine bytes "from" process 3, injected straight into p0's stack.
  auto inject = [&](Message m) { c.stack(0).on_packet(3, m.encode()); };
  Message m;
  m.path = id;  // direct hit on the AB instance (it takes no direct messages)
  m.tag = 77;
  inject(m);
  m.path = id.child({ProtocolType::kMultiValuedConsensus, 0});  // MVC layer
  m.tag = 1;
  m.payload = to_bytes("junk");
  inject(m);
  m.path = id.child({ProtocolType::kMultiValuedConsensus, 0})
               .child({ProtocolType::kBinaryConsensus, 0});  // BC layer
  inject(m);
  m.path = id.child({ProtocolType::kReliableBroadcast,
                     AtomicBroadcast::msg_seq(3, 0)});  // RB with bogus body
  m.tag = ReliableBroadcast::kInit;
  m.payload = Bytes(3, 0xff);
  inject(m);
  m.tag = 200;  // unknown tag
  inject(m);
  // Garbage that does not even decode.
  c.stack(0).on_packet(3, to_bytes("\xff\xff\xff total garbage"));

  ASSERT_TRUE(c.run_until([&] { return g.everyone_has(c.live(), 1); }, kDeadline));
  EXPECT_GT(c.stack(0).metrics().invalid_dropped +
                c.stack(0).metrics().malformed_dropped +
                c.stack(0).metrics().unroutable_dropped,
            0u);
}

TEST(Adversarial, OocFloodCannotStopProgress) {
  // Process 3 floods p0 with far-future-instance messages before the AB
  // root even exists; the per-sender quota bounds memory and the real
  // workload still completes.
  Cluster c(fast_lan(4, 5));
  for (std::uint64_t k = 0; k < 10'000; ++k) {
    Message m;
    m.path = InstanceId::root(ProtocolType::kAtomicBroadcast, 0)
                 .child({ProtocolType::kReliableBroadcast,
                         AtomicBroadcast::msg_seq(3, 1'000'000 + k)});
    m.tag = ReliableBroadcast::kEcho;
    m.payload = to_bytes("flood");
    c.stack(0).on_packet(3, m.encode());
  }
  EXPECT_LE(c.stack(0).ooc_size(), c.stack(0).config().ooc_per_sender);
  EXPECT_GT(c.stack(0).metrics().ooc_evicted, 0u);

  test::AbGroup g(c);
  g.send(1, to_bytes("after the flood"));
  ASSERT_TRUE(c.run_until([&] { return g.everyone_has({0}, 1); }, kDeadline));
}

TEST(Adversarial, CrashPlusByzantineBeyondFBreaksNothingWithinF) {
  // n = 7 tolerates f = 2: one crash + one Byzantine simultaneously.
  test::ClusterOptions o = fast_lan(7, 6);
  o.crashed = {5};
  o.byzantine = {6};
  Cluster c(o);
  const std::vector<Bytes> proposals(7, to_bytes("combined"));
  auto cap = run_mvc(c, proposals);
  sim::oracle::Report rep;
  sim::oracle::check_mvc(rep, c.correct_set(), proposals, cap.got);
  EXPECT_TRUE(rep.ok()) << rep.text();
  for (ProcessId p : c.correct_set()) {
    ASSERT_TRUE(cap.got[p].has_value());
    ASSERT_TRUE(cap.got[p]->has_value());
    EXPECT_EQ(to_string(**cap.got[p]), "combined");
  }
}

TEST(Adversarial, BatchedTotalOrderSurvivesPaperByzantineAdversary) {
  // The paper's §4.2 Byzantine strategy (PaperByzantineAdversary, the
  // default for o.byzantine) against the *batched* wire format: corrupted
  // and equivocated batch frames from p2 must not break total order, and
  // the correct processes' batched workload still delivers completely.
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    test::ClusterOptions o = fast_lan(4, 180 + seed);
    o.byzantine = {2};
    o.stack.ab_batch.enabled = true;
    o.stack.ab_batch.max_batch_msgs = 4;
    Cluster c(o);
    test::AbGroup g(c);
    for (ProcessId p : c.correct_set()) {
      c.call(p, [&, p] {
        for (int i = 0; i < 8; ++i) g.bcast(p, to_bytes("b"));
        g.at(p).flush();
      });
    }
    ASSERT_TRUE(c.run_until(
        [&] { return g.everyone_has(c.correct_set(), 24); }, kDeadline))
        << "seed " << seed;
    c.run_all();
    // The batch slot names each message of a batch, so the full AB set
    // applies to the batched wire format too.
    const auto rep = g.check(c.correct_set());
    EXPECT_TRUE(rep.ok()) << "seed " << seed << ": " << rep.text();
    // Any corrupted batch frame that RB-delivered was a counted drop, and
    // batch-malformed drops are a subset of the invalid-drop count.
    EXPECT_GE(c.total_metrics().invalid_dropped,
              c.total_metrics().ab_batch_malformed);
  }
}

TEST(Adversarial, TotalOrderSurvivesSchedulerAttackDuringBursts) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    test::ClusterOptions o = fast_lan(4, 80 + seed);
    o.byzantine = {3};
    Cluster c(o);
    c.network().set_delay_policy([](ProcessId from, ProcessId to, sim::Time now) {
      // Time-varying skew: alternate which half of the group is slow.
      const bool odd_epoch = (now / (20 * sim::kMillisecond)) % 2 == 1;
      const bool target = odd_epoch ? (to < 2) : (to >= 2);
      (void)from;
      return target ? 2 * sim::kMillisecond : 0;
    });
    test::AbGroup g(c);
    for (int i = 0; i < 5; ++i) {
      for (ProcessId p : c.live()) g.send(p, to_bytes("x"));
    }
    ASSERT_TRUE(c.run_until(
        [&] { return g.everyone_has(c.correct_set(), 20); }, kDeadline))
        << "seed " << seed;
    c.run_all();
    const auto rep = g.check(c.correct_set());
    EXPECT_TRUE(rep.ok()) << "seed " << seed << ": " << rep.text();
  }
}

}  // namespace
}  // namespace ritas
