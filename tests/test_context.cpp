// End-to-end tests of the public ritas::Context API over real TCP sockets:
// four in-process "nodes", each with its own poll thread, running the
// paper's service calls (rb/eb/ab broadcast + bc/mvc/vc consensus).
#include "ritas/context.h"

#include <gtest/gtest.h>

#include <chrono>
#include <optional>
#include <set>
#include <string>
#include <thread>

#include "net_helpers.h"

namespace ritas {
namespace {

using test::ContextMesh;
using test::decide_all;
namespace oracle = sim::oracle;

/// The suite's default mesh: four started nodes.
struct Mesh4 : ContextMesh {
  Mesh4() : ContextMesh(4, "context-test-master", 1000) { start_all(); }
};

TEST(Context, ReliableBroadcastRoundTrip) {
  Mesh4 cluster;
  cluster[0].rb_bcast(to_bytes("hello rb"));
  for (std::uint32_t p = 0; p < 4; ++p) {
    const auto d = cluster[p].rb_recv();
    EXPECT_EQ(d.origin, 0u);
    EXPECT_EQ(to_string(d.payload), "hello rb");
  }
}

TEST(Context, EchoBroadcastRoundTrip) {
  Mesh4 cluster;
  cluster[2].eb_bcast(to_bytes("hello eb"));
  for (std::uint32_t p = 0; p < 4; ++p) {
    const auto d = cluster[p].eb_recv();
    EXPECT_EQ(d.origin, 2u);
    EXPECT_EQ(to_string(d.payload), "hello eb");
  }
}

TEST(Context, SequentialReliableBroadcastsStayOrderedPerOrigin) {
  Mesh4 cluster;
  for (int i = 0; i < 10; ++i) {
    cluster[1].rb_bcast(to_bytes("msg" + std::to_string(i)));
  }
  // Deliveries from one origin come from independent instances; collect and
  // check the multiset (RB itself does not promise cross-instance order).
  std::set<std::string> got;
  for (int i = 0; i < 10; ++i) got.insert(to_string(cluster[3].rb_recv().payload));
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(got.contains("msg" + std::to_string(i)));
  }
}

TEST(Context, BinaryConsensusUnanimous) {
  Mesh4 cluster;
  const auto decision =
      decide_all<bool>(cluster, [&](ProcessId p) { return cluster[p].bc(true); });
  oracle::Report r;
  oracle::check_bc(r, cluster.all(), std::vector<bool>(4, true), decision);
  EXPECT_TRUE(r.ok()) << r.text();
}

TEST(Context, BinaryConsensusMixedAgrees) {
  Mesh4 cluster;
  const std::vector<bool> proposals = {true, false, true, false};
  const auto decision = decide_all<bool>(
      cluster, [&](ProcessId p) { return cluster[p].bc(proposals[p]); });
  oracle::Report r;
  oracle::check_bc(r, cluster.all(), proposals, decision);
  EXPECT_TRUE(r.ok()) << r.text();
}

TEST(Context, MultiValuedConsensusUnanimous) {
  Mesh4 cluster;
  const auto decision = decide_all<oracle::MvcDecision>(
      cluster, [&](ProcessId p) { return cluster[p].mvc(to_bytes("the value")); });
  oracle::Report r;
  oracle::check_mvc(r, cluster.all(), std::vector<Bytes>(4, to_bytes("the value")),
                    decision);
  EXPECT_TRUE(r.ok()) << r.text();
  ASSERT_TRUE(decision[0].has_value());
  EXPECT_EQ(*decision[0], to_bytes("the value"));  // not the default ⊥
}

TEST(Context, VectorConsensusAgrees) {
  Mesh4 cluster;
  std::vector<Bytes> proposals;
  for (ProcessId p = 0; p < 4; ++p) proposals.push_back(to_bytes("prop" + std::to_string(p)));
  const auto decision = decide_all<oracle::VcVector>(
      cluster, [&](ProcessId p) { return cluster[p].vc(proposals[p]); });
  oracle::Report r;
  oracle::check_vc(r, cluster.all(), proposals, decision, /*f=*/1);
  EXPECT_TRUE(r.ok()) << r.text();
  ASSERT_TRUE(decision[0].has_value());
  std::uint32_t filled = 0;
  for (const auto& e : *decision[0]) {
    if (e.has_value()) ++filled;
  }
  EXPECT_GE(filled, 3u);  // n - f
}

TEST(Context, AtomicBroadcastTotalOrder) {
  Mesh4 cluster;
  constexpr int kPer = 5;
  std::vector<std::thread> threads;
  for (std::uint32_t p = 0; p < 4; ++p) {
    threads.emplace_back([&cluster, p] {
      for (int i = 0; i < kPer; ++i) {
        cluster.ab_bcast(p, to_bytes("ab" + std::to_string(p) + "-" + std::to_string(i)));
      }
    });
  }
  for (auto& t : threads) t.join();

  for (std::uint32_t p = 0; p < 4; ++p) {
    for (int i = 0; i < 4 * kPer; ++i) cluster.delivered(p, cluster[p].ab_recv());
  }
  const auto r = cluster.check_ab(cluster.all());
  EXPECT_TRUE(r.ok()) << r.text();
}

TEST(Context, ConsensusSequence) {
  // Repeated consensus calls use fresh numbered instances; results must be
  // independent and consistent.
  Mesh4 cluster;
  for (int round = 0; round < 3; ++round) {
    const Bytes v = to_bytes("round-" + std::to_string(round));
    const auto decision = decide_all<oracle::MvcDecision>(
        cluster, [&](ProcessId p) { return cluster[p].mvc(v); });
    oracle::Report r;
    oracle::check_mvc(r, cluster.all(), std::vector<Bytes>(4, v), decision);
    EXPECT_TRUE(r.ok()) << "round " << round << ": " << r.text();
    ASSERT_TRUE(decision[0].has_value());
    EXPECT_EQ(*decision[0], v);
  }
}

TEST(Context, SubscribeModeDeliversInOrder) {
  // ab_subscribe switches node 3 to push delivery: the callback runs on
  // the reactor thread in total order, and the queue-based receivers on
  // the other nodes see the same order.
  Mesh4 cluster;
  cluster.record(3);
  for (std::uint32_t p = 0; p < 4; ++p) {
    cluster.ab_bcast(p, to_bytes("sub" + std::to_string(p)));
  }
  for (std::uint32_t p = 0; p < 3; ++p) {
    for (int i = 0; i < 4; ++i) cluster.delivered(p, cluster[p].ab_recv());
  }
  ASSERT_TRUE(cluster.wait_delivered({3}, 4, std::chrono::minutes(1)));
  const auto r = cluster.check_ab(cluster.all());
  EXPECT_TRUE(r.ok()) << r.text();
  // The subscriber bypasses the queue entirely.
  EXPECT_FALSE(cluster[3].ab_try_recv().has_value());
}

TEST(Context, BatchedAtomicBroadcastTotalOrder) {
  // Same burst as AtomicBroadcastTotalOrder, but with payload batching
  // enabled at every node: messages are packed into shared dissemination
  // broadcasts on the wire yet still deliver one-by-one in total order.
  ContextMesh nodes(4, "context-test-master", 1500, [](Context::Options& o) {
    o.batch.enabled = true;
    o.batch.max_msgs = 4;
  });
  nodes.start_all();
  constexpr int kPer = 6;
  for (std::uint32_t p = 0; p < 4; ++p) {
    for (int i = 0; i < kPer; ++i) {
      nodes.ab_bcast(p, to_bytes("bt" + std::to_string(p) + "-" + std::to_string(i)));
    }
    nodes[p].ab_flush();
  }
  for (std::uint32_t p = 0; p < 4; ++p) {
    for (int i = 0; i < 4 * kPer; ++i) nodes.delivered(p, nodes[p].ab_recv());
  }
  const auto r = nodes.check_ab(nodes.all());
  EXPECT_TRUE(r.ok()) << r.text();
  // Batching actually engaged: fewer dissemination broadcasts than
  // messages, and the seal/unpack accounting matches the burst. Each
  // ab_bcast round-trips to the reactor, so any single node can lose every
  // "next message posted before the open batch's RB completes" race under
  // unlucky scheduling; aggregating over all four nodes keeps the assertion
  // meaningful (somewhere, batching packed messages) without that race.
  std::uint64_t sealed = 0;
  std::uint64_t batch_msgs = 0;
  for (std::uint32_t p = 0; p < 4; ++p) {
    const Metrics m = nodes[p].metrics();
    sealed += m.ab_batches_sealed;
    batch_msgs += m.ab_batch_msgs;
  }
  EXPECT_EQ(batch_msgs, static_cast<std::uint64_t>(4 * kPer));
  EXPECT_GT(sealed, 0u);
  EXPECT_LT(sealed, static_cast<std::uint64_t>(4 * kPer));
}

TEST(Context, BroadcastRootsAreCreatedOnFirstFrame) {
  // Node 2 never touches the rb/eb API before the peer's frames arrive:
  // the first frame creates the receive-side root, nothing is parked.
  Mesh4 cluster;
  cluster[1].rb_bcast(to_bytes("first rb"));
  cluster[1].eb_bcast(to_bytes("first eb"));
  const auto rb = cluster[2].rb_recv_for(std::chrono::seconds(30));
  ASSERT_TRUE(rb.has_value());
  EXPECT_EQ(rb->origin, 1u);
  EXPECT_EQ(to_string(rb->payload), "first rb");
  const auto eb = cluster[2].eb_recv_for(std::chrono::seconds(30));
  ASSERT_TRUE(eb.has_value());
  EXPECT_EQ(eb->origin, 1u);
  EXPECT_EQ(to_string(eb->payload), "first eb");
  EXPECT_EQ(cluster[2].metrics().ooc_stored, 0u);
}

TEST(Context, FramesBeyondANarrowWindowDrainAsItAdvances) {
  // Node 3 admits only 2 broadcasts per origin beyond its last delivery,
  // and joins after the other three already ran 10 broadcasts of node 0:
  // the catch-up burst parks everything past k = 1 out of context, and
  // each delivery must drain the keys it admits until all 10 arrive.
  ContextMesh nodes(4, "context-test-master", 1700, [](Context::Options& o) {
    if (o.self == 3) o.recv_window = 2;
  });
  nodes.start({0, 1, 2});
  for (int i = 0; i < 10; ++i) nodes[0].rb_bcast(to_bytes("w" + std::to_string(i)));
  for (std::uint32_t p = 0; p < 3; ++p) {
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(nodes[p].rb_recv_for(std::chrono::seconds(30)).has_value());
    }
  }
  nodes.start({3});
  std::set<std::string> got;
  for (int i = 0; i < 10; ++i) {
    const auto d = nodes[3].rb_recv_for(std::chrono::seconds(30));
    ASSERT_TRUE(d.has_value()) << "only " << i << " of 10 delivered";
    EXPECT_EQ(d->origin, 0u);
    got.insert(to_string(d->payload));
  }
  EXPECT_EQ(got.size(), 10u);
  const Metrics m = nodes[3].metrics();
  EXPECT_GT(m.ooc_stored, 0u);
  EXPECT_EQ(m.ooc_drained, m.ooc_stored);
  EXPECT_EQ(m.ooc_evicted, 0u);
}

TEST(Context, LateStarterDeliversTheSameAtomicBroadcastOrder) {
  // Nodes 0-2 order 20 messages before node 3 starts. The atomic
  // broadcast root exists from construction, so the backlog node 3 reads
  // during start() is handled at once, and it must deliver the same 20 in
  // the same order.
  constexpr int kMsgs = 20;
  ContextMesh nodes(4, "context-test-master", 1800);
  nodes.start({0, 1, 2});
  for (int i = 0; i < kMsgs; ++i) {
    nodes.ab_bcast(static_cast<ProcessId>(i % 3), to_bytes("late" + std::to_string(i)));
  }
  for (std::uint32_t p = 0; p < 3; ++p) {
    for (int i = 0; i < kMsgs; ++i) {
      const auto d = nodes[p].ab_recv_for(std::chrono::seconds(30));
      ASSERT_TRUE(d.has_value()) << "node " << p << " got " << i;
      nodes.delivered(p, *d);
    }
  }
  nodes.start({3});
  for (int i = 0; i < kMsgs; ++i) {
    const auto d = nodes[3].ab_recv_for(std::chrono::seconds(30));
    ASSERT_TRUE(d.has_value()) << "late starter got only " << i << " of " << kMsgs;
    nodes.delivered(3, *d);
  }
  const auto r = nodes.check_ab(nodes.all());
  EXPECT_TRUE(r.ok()) << r.text();
}

TEST(Context, MetricsVisible) {
  Mesh4 cluster;
  cluster[0].rb_bcast(to_bytes("m"));
  for (std::uint32_t p = 0; p < 4; ++p) (void)cluster[p].rb_recv();
  const Metrics m = cluster[0].metrics();
  EXPECT_GE(m.rb_started_payload, 1u);
  EXPECT_GT(m.msgs_sent, 0u);
}

}  // namespace
}  // namespace ritas
