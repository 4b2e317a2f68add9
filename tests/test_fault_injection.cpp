// Fault scenarios beyond the paper's static faultloads: crashes injected
// mid-run, Byzantine AB_VECT vectors carrying fabricated identifiers, and
// recovery-shaped checks (late joiners catching up through reliable
// broadcast totality and the out-of-context machinery).
#include <gtest/gtest.h>

#include "sim_helpers.h"

namespace ritas {
namespace {

using test::AbGroup;
using test::Cluster;
using test::fast_lan;
using test::kDeadline;

TEST(FaultInjection, CrashDuringBurstPreservesTotalOrder) {
  // Process 3 participates for 30 ms of the burst, then dies. Survivors
  // must finish the burst and keep identical orders.
  test::ClusterOptions o = fast_lan(4, 1);
  o.timed_crashes = {{3, 30 * sim::kMillisecond}};
  Cluster c(o);
  AbGroup g(c);

  const std::uint32_t kPer = 15;
  for (std::uint32_t i = 0; i < kPer; ++i) {
    for (ProcessId p = 0; p < 3; ++p) g.send(p, to_bytes("s"));  // survivors' share
  }
  // The doomed process also broadcasts; whatever completed dissemination
  // before the crash gets ordered, the rest must not wedge anyone.
  c.call(3, [&] {
    for (int i = 0; i < 5; ++i) g.bcast(3, to_bytes("doomed"));
  });

  const std::size_t survivors_min = 3 * kPer;
  ASSERT_TRUE(c.run_until(
      [&] { return g.everyone_has({0, 1, 2}, survivors_min); }, kDeadline));
  c.run_all();
  // The crashed origin is faulty: validity does not wait for its sends, but
  // agreement still requires the survivors to deliver the same ones.
  const auto r = g.check(c.correct_set());
  EXPECT_TRUE(r.ok()) << r.text();
}

TEST(FaultInjection, StaggeredCrashesWithinF) {
  // n = 7 tolerates f = 2; two processes die at different times mid-run.
  test::ClusterOptions o = fast_lan(7, 2);
  o.timed_crashes = {{5, 20 * sim::kMillisecond}, {6, 60 * sim::kMillisecond}};
  Cluster c(o);
  AbGroup g(c);
  const std::vector<ProcessId> survivors = {0, 1, 2, 3, 4};
  for (int i = 0; i < 8; ++i) {
    for (ProcessId p : survivors) g.send(p, to_bytes("x"));
  }
  ASSERT_TRUE(c.run_until([&] { return g.everyone_has(survivors, 40); },
                          kDeadline));
  const auto r = g.check(survivors);
  EXPECT_TRUE(r.ok()) << r.text();
}

TEST(FaultInjection, FabricatedIdentifiersInAbVectAreFiltered) {
  // A Byzantine process reliably broadcasts an AB_VECT full of identifiers
  // that were never disseminated. They cannot reach f+1 multiplicity, so W
  // never contains them, nothing blocks, and nothing bogus is delivered.
  Cluster c(fast_lan(4, 3));
  AbGroup g(c);

  // Craft the attacker's (p3) AB_VECT INIT for round 0 and inject it into
  // every correct stack; their own ECHO/READY amplification completes the
  // reliable broadcast of the junk vector.
  std::vector<AtomicBroadcast::MsgId> junk;
  for (std::uint64_t k = 0; k < 50; ++k) junk.push_back({2, 400 + k});
  Message m;
  m.path = InstanceId::root(ProtocolType::kAtomicBroadcast, 0)
               .child({ProtocolType::kReliableBroadcast,
                       AtomicBroadcast::vect_seq(0, 3)});
  m.tag = ReliableBroadcast::kInit;
  m.payload = AtomicBroadcast::encode_ids(junk);
  for (ProcessId p = 0; p < 3; ++p) {
    c.stack(p).on_packet(3, m.encode());
  }

  // Legitimate traffic from a correct process.
  g.send(0, to_bytes("real"));
  ASSERT_TRUE(c.run_until([&] { return g.everyone_has({0, 1, 2}, 1); }, kDeadline));
  c.run_all();
  // A fabricated (2, 400+) identifier delivered at a correct process would
  // be a no-creation violation: p2 is a correct origin that never sent it.
  const auto r = g.check({0, 1, 2});
  EXPECT_TRUE(r.ok()) << r.text();
}

TEST(FaultInjection, LateRootCreationCatchesUpThroughOoc) {
  // Process 2 creates its atomic broadcast instance only after the others
  // already ran a full agreement round; the parked traffic plus reliable
  // broadcast totality must bring it to the same order.
  Cluster c(fast_lan(4, 4));
  AbGroup g(c, {0, 1, 3});
  c.call(0, [&] {
    for (int i = 0; i < 3; ++i) g.bcast(0, to_bytes("early"));
  });
  // Let the early three make progress (they can: n-f = 3).
  ASSERT_TRUE(c.run_until([&] { return g.everyone_has({0}, 3); }, kDeadline));

  // Now the latecomer joins.
  g.join(2);
  g.send(0, to_bytes("late"));
  ASSERT_TRUE(c.run_until([&] { return g.everyone_has({2}, 4); }, kDeadline));
  c.run_all();
  const auto r = g.check(c.live());
  EXPECT_TRUE(r.ok()) << r.text();
}

TEST(FaultInjection, CrashOfSignalSenderBeforeAnyTraffic) {
  // Degenerate: the only would-be sender crashes at t=0. Nothing is ever
  // delivered, nothing wedges, the simulation drains.
  test::ClusterOptions o = fast_lan(4, 5);
  o.crashed = {0};
  Cluster c(o);
  AbGroup g(c);
  c.run_all();
  for (ProcessId p : c.live()) EXPECT_TRUE(g.log(p).empty());
}

}  // namespace
}  // namespace ritas
