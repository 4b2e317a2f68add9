// Link-churn integration tests: the self-healing channel layer under fire.
//
// The reliable-channel abstraction (paper §2.1) promises no loss between
// correct processes; real TCP links die. These tests kill every pairwise
// link — abortively (RST) and gracefully (half-close) — in the middle of
// an atomic-broadcast burst over real sockets and assert the paper-level
// guarantee survives: every correct node delivers the complete burst in
// the identical total order, replays are never accepted, and the mesh
// heals itself (link_reconnects > 0) without any outside help. A second
// test starts one node late: the partial-mesh start lets the other n-1
// make progress, and the late joiner catches up from the peers'
// retained-frame queues.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/trace.h"
#include "net_helpers.h"
#include "ritas/context.h"

namespace ritas {
namespace {

using test::free_ports;
using test::local_peers;

constexpr std::uint32_t kN = 4;
constexpr int kBurst = 25;  // messages per node; 100 total per run

/// Four nodes whose every AB delivery goes straight into the mesh's
/// recorder (push mode, set before any node starts).
struct ChurnMesh : test::ContextMesh {
  ChurnMesh() : ContextMesh(kN, "churn-master", 7000) { record_all(); }
};

/// Dumps every node's transport counters as JSON — uploaded by CI when the
/// churn gate fails, so a red run leaves the link-layer story behind.
void dump_stats_json(test::ContextMesh& cluster, const char* path) {
  JsonWriter j;
  j.begin_object().key("nodes").begin_array();
  for (std::uint32_t p = 0; p < kN; ++p) {
    j.begin_object().field("id", p);
    cluster[p].transport_stats().for_each(
        [&j](const CounterInfo& c, std::uint64_t v) { j.field(c.name, v); });
    j.end_object();
  }
  j.end_array().end_object();
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) return;
  std::fprintf(f, "%s\n", j.str().c_str());
  std::fclose(f);
}

/// The churn gate: kill every pairwise link at least once — both kill
/// modes — while an AB burst is in flight; the burst must still arrive
/// complete, in one total order, everywhere, with the kills visible in
/// the reconnect counters — including across the resync/retransmit path
/// of the batched drain.
TEST(NetChurn, EveryLinkKilledMidBurstStillTotallyOrders) {
  ChurnMesh cluster;
  cluster.start_all();

  // Interleave the burst with kills of all 6 pairwise links, alternating
  // abortive RST teardowns and graceful half-closes. The dialer side (the
  // higher id) owns the connection and the retry machinery, so kills are
  // issued there.
  std::vector<std::pair<ProcessId, ProcessId>> pairs;  // (killer=dialer, peer)
  for (ProcessId hi = 1; hi < kN; ++hi) {
    for (ProcessId lo = 0; lo < hi; ++lo) pairs.emplace_back(hi, lo);
  }
  std::size_t next_kill = 0;
  for (int i = 0; i < kBurst; ++i) {
    for (std::uint32_t p = 0; p < kN; ++p) {
      cluster.ab_bcast(p, to_bytes("m" + std::to_string(p) + "-" + std::to_string(i)));
    }
    // Spread the 6 kills across the first half of the burst so every
    // teardown happens with traffic genuinely in flight.
    if (i % 2 == 1 && next_kill < pairs.size()) {
      const auto [hi, lo] = pairs[next_kill];
      const auto mode = next_kill % 2 == 0 ? net::TcpTransport::KillMode::kRst
                                           : net::TcpTransport::KillMode::kHalfClose;
      cluster[hi].transport().kill_link(lo, mode);
      ++next_kill;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(next_kill, pairs.size()) << "burst too short to kill every link";

  const bool complete = cluster.wait_delivered(cluster.all(), kN * kBurst,
                                               std::chrono::seconds(120));
  dump_stats_json(cluster, "churn_transport_stats.json");
  ASSERT_TRUE(complete) << "burst did not fully deliver after link churn";

  // Identical complete delivery at every node: same total order, each
  // message exactly once (an accepted replay would show up as a dup).
  const auto r = cluster.check_ab(cluster.all());
  EXPECT_TRUE(r.ok()) << r.text();

  // The churn must be real: every node re-established at least one link,
  // and no node ever accepted a stale-session or stale-counter frame as
  // fresh (those are counted as drops — the delivery check above proves
  // none slipped through).
  std::uint64_t total_reconnects = 0;
  for (std::uint32_t p = 0; p < kN; ++p) {
    const auto s = cluster[p].transport_stats();
    EXPECT_GE(s.link_reconnects, 1u) << "node " << p << " never reconnected";
    total_reconnects += s.link_reconnects;
    // All peers hold the right keys, so nothing may ever look forged.
    // (handshake_failures is NOT asserted zero: a kill landing mid-
    // re-handshake aborts that attempt, which is counted and benign.)
    EXPECT_EQ(s.mac_failures, 0u);
  }
  // 6 killed links, two endpoints each; allow slack for raced teardowns.
  EXPECT_GE(total_reconnects, 6u);

  // Fast-path accounting stays sane through the churn: every frame reached
  // the kernel through sendmsg_batch (counted), and batch assembly never
  // copied payload bytes (scatter-gather only).
  for (std::uint32_t p = 0; p < kN; ++p) {
    const auto s = cluster[p].transport_stats();
    EXPECT_GT(s.sendmsg_calls, 0u) << "node " << p;
    EXPECT_GE(s.bytes_to_kernel, s.frames_sent * 20u) << "node " << p;
    EXPECT_EQ(s.batch_copy_bytes, 0u) << "node " << p;
    EXPECT_GE(s.frames_per_syscall(), 1.0) << "node " << p;
  }
}

/// Partial-mesh start: n-1 nodes make AB progress on their own; the last
/// node starts late, joins the running mesh, and catches up on everything
/// it missed from the peers' retained-frame queues.
TEST(NetChurn, LateJoinerCatchesUp) {
  ChurnMesh cluster;
  // Start only nodes 0..2 (threshold n-f-1 = 2 is reachable among them).
  const std::vector<ProcessId> early = {0, 1, 2};
  cluster.start(early);

  // AB progress with the last node absent: n=4 tolerates f=1 silent node.
  for (int i = 0; i < 8; ++i) {
    cluster.ab_bcast(0, to_bytes("early" + std::to_string(i)));
  }
  ASSERT_TRUE(cluster.wait_delivered(early, 8, std::chrono::seconds(60)))
      << "n-1 nodes failed to make progress without the late joiner";

  // Late joiner arrives: dials everyone, catches up, follows new traffic.
  cluster.start({kN - 1});
  for (int i = 0; i < 4; ++i) {
    cluster.ab_bcast(1, to_bytes("late" + std::to_string(i)));
  }
  ASSERT_TRUE(cluster.wait_delivered(cluster.all(), 12, std::chrono::seconds(120)))
      << "late joiner did not catch up";
  const auto r = cluster.check_ab(cluster.all());
  EXPECT_TRUE(r.ok()) << r.text();
  const auto s = cluster[kN - 1].transport_stats();
  EXPECT_EQ(s.mac_failures, 0u);
  EXPECT_EQ(s.session_rejects, 0u);
}

/// Transport-level: a dead link queues frames (bounded, drop-oldest) and
/// the overflow is visible as queue_drops on the sender and counter_gaps
/// on the receiver after the link heals. Link lifecycle events land in
/// the tracer.
TEST(NetChurn, QueueOverflowIsAccountedAcrossReconnect) {
  const auto ports = free_ports(2);
  const auto peers = local_peers(ports);
  std::vector<std::unique_ptr<KeyChain>> keys;
  std::vector<std::unique_ptr<net::TcpTransport>> tp;
  Tracer tracer(1);
  std::atomic<std::size_t> received{0};
  for (std::uint32_t p = 0; p < 2; ++p) {
    keys.push_back(std::make_unique<KeyChain>(
        KeyChain::deal(to_bytes("overflow-master"), 2, p)));
    net::TcpTransport::Options o;
    o.n = 2;
    o.self = p;
    o.peers = peers;
    if (p == 1) {
      o.send_queue_max_bytes = 4 * 1024;  // tiny: force drop-oldest
      o.backoff.base_ms = 200;            // keep the link down long enough
      o.backoff.jitter_pct = 0;
      o.rng_seed = 11;
    }
    tp.push_back(std::make_unique<net::TcpTransport>(o, *keys[p]));
  }
  tp[0]->set_sink([&](ProcessId, Slice) { received.fetch_add(1); });
  tp[1]->set_sink([](ProcessId, Slice) {});
  tp[1]->set_tracer(&tracer);

  std::atomic<bool> stop{false};
  std::vector<std::thread> runners;
  for (std::uint32_t p = 0; p < 2; ++p) {
    runners.emplace_back([&, p] {
      tp[p]->start();
      while (!stop.load()) tp[p]->poll_once(10);
    });
  }
  auto wait_until = [](const std::function<bool()>& cond, int timeout_ms) {
    for (int waited = 0; waited < timeout_ms; waited += 5) {
      if (cond()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return cond();
  };
  ASSERT_TRUE(wait_until([&] { return tp[1]->links_up() == 1; }, 10'000));

  tp[1]->send(0, to_bytes("before the cut"));
  ASSERT_TRUE(wait_until([&] { return received.load() >= 1; }, 5'000));

  // Cut the link, then stuff 1 KiB frames well past the 4 KiB budget while
  // it is down. The oldest never-written frames must be evicted (counted),
  // and after the automatic reconnect the receiver must observe the
  // forward counter jump instead of silently renumbering.
  tp[1]->kill_link(0, net::TcpTransport::KillMode::kRst);
  ASSERT_TRUE(wait_until([&] { return tp[1]->links_up() == 0; }, 5'000));
  const Bytes big(1024, 0x55);
  for (int i = 0; i < 64; ++i) tp[1]->send(0, Bytes(big));
  EXPECT_GE(tp[1]->stats().queue_drops, 1u);

  ASSERT_TRUE(wait_until([&] { return tp[1]->links_up() == 1; }, 10'000))
      << "link did not self-heal";
  ASSERT_TRUE(wait_until([&] { return tp[0]->stats().counter_gaps >= 1; },
                         10'000));
  EXPECT_GE(tp[1]->stats().link_reconnects, 1u);
  // The queue tail (most recent frames) survived the overflow.
  ASSERT_TRUE(wait_until([&] { return received.load() >= 2; }, 10'000));

  stop.store(true);
  for (auto& t : tp) t->wakeup();
  for (auto& t : runners) t.join();
  for (auto& t : tp) t->stop();

  // Lifecycle events: up (initial), down (kill), handshake + up (heal).
  int ups = 0, downs = 0, handshakes = 0;
  for (const TraceEvent& e : tracer.events()) {
    if (e.kind == TraceEventKind::kLinkUp) ++ups;
    if (e.kind == TraceEventKind::kLinkDown) ++downs;
    if (e.kind == TraceEventKind::kLinkHandshake) ++handshakes;
  }
  EXPECT_GE(ups, 2);
  EXPECT_GE(downs, 1);
  EXPECT_GE(handshakes, 2);
}

}  // namespace
}  // namespace ritas
