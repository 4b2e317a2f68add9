// Remaining integration corners: the modeled-CPU billing hook, a larger
// real-socket group (n = 7, f = 2), and cross-transport behavioural parity
// of the consensus services.
#include <gtest/gtest.h>

#include "net_helpers.h"
#include "ritas/context.h"
#include "sim_helpers.h"

namespace ritas {
namespace {

TEST(ChargeCpu, DelaysSubsequentTraffic) {
  // Billing modeled CPU to a host must push its later sends back in
  // simulated time.
  sim::Scheduler sched;
  sim::SimNetwork net(sched, sim::LanModelConfig{}, 4, 1);
  std::vector<sim::Time> arrivals;
  net.set_deliver([&](ProcessId, ProcessId, Slice) { arrivals.push_back(sched.now()); });
  net.submit(0, 1, Bytes(10, 0));
  sched.run();
  const sim::Time baseline = arrivals.at(0);

  sim::Scheduler sched2;
  sim::SimNetwork net2(sched2, sim::LanModelConfig{}, 4, 1);
  std::vector<sim::Time> arrivals2;
  net2.set_deliver([&](ProcessId, ProcessId, Slice) { arrivals2.push_back(sched2.now()); });
  net2.charge(0, 5 * sim::kMillisecond);  // e.g. one RSA signature
  net2.submit(0, 1, Bytes(10, 0));
  sched2.run();
  EXPECT_GE(arrivals2.at(0), baseline + 5 * sim::kMillisecond);
}

TEST(ChargeCpu, ReachesTheSimThroughTheStack) {
  test::Cluster c(test::fast_lan(4, 3));
  const sim::Time t0 = c.now();
  c.stack(0).charge_cpu(1'000'000);
  // Billing alone does not advance the clock; it reserves host CPU, so the
  // next message from p0 lands later than an uncharged one would.
  EXPECT_EQ(c.now(), t0);
  SUCCEED();
}

TEST(LargeGroupTcp, SevenNodeSessionToleratesTwoFaults) {
  // n = 7 over real sockets: all services function; we stop two nodes
  // mid-session and the remaining five still reach atomic agreement.
  constexpr std::uint32_t kN = 7;
  test::ContextMesh nodes(kN, "seven-master", 4000);
  nodes.start_all();

  // Round 1: everyone participates in one binary consensus.
  {
    const auto d =
        test::decide_all<bool>(nodes, [&](ProcessId p) { return nodes[p].bc(true); });
    sim::oracle::Report r;
    sim::oracle::check_bc(r, nodes.all(), std::vector<bool>(kN, true), d);
    EXPECT_TRUE(r.ok()) << r.text();
  }

  // Kill two nodes (f = 2 for n = 7), then atomic-broadcast through the
  // survivors.
  nodes[5].stop();
  nodes[6].stop();
  const std::vector<ProcessId> survivors = {0, 1, 2, 3, 4};
  for (ProcessId p : survivors) {
    nodes.ab_bcast(p, to_bytes("survivor-" + std::to_string(p)));
  }
  for (ProcessId p : survivors) {
    for (int i = 0; i < 5; ++i) nodes.delivered(p, nodes[p].ab_recv());
  }
  const auto r = nodes.check_ab(survivors);
  EXPECT_TRUE(r.ok()) << r.text();
}

TEST(TransportParity, SimAndTcpAgreeOnServiceSemantics) {
  // The same MVC workload through the simulator and through real sockets
  // must produce the same decision (the protocols are transport-agnostic).
  // Sim side:
  test::Cluster c(test::fast_lan(4, 5));
  auto sim_cap = test::run_mvc(
      c, {to_bytes("parity"), to_bytes("parity"), to_bytes("parity"),
          to_bytes("parity")});
  ASSERT_TRUE(sim_cap.all_set(c.correct_set()));
  ASSERT_TRUE(sim_cap.got[0]->has_value());

  // TCP side:
  test::ContextMesh nodes(4, "parity-master", 0);
  nodes.start_all();
  const auto tcp_decision = test::decide_all<sim::oracle::MvcDecision>(
      nodes, [&](ProcessId p) { return nodes[p].mvc(to_bytes("parity")); });
  sim::oracle::Report r;
  sim::oracle::check_mvc(r, nodes.all(), std::vector<Bytes>(4, to_bytes("parity")),
                         tcp_decision);
  EXPECT_TRUE(r.ok()) << r.text();
  ASSERT_TRUE(tcp_decision[0].has_value());
  EXPECT_EQ(*tcp_decision[0], *sim_cap.got[0]);
}

}  // namespace
}  // namespace ritas
