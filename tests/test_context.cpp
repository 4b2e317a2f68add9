// End-to-end tests of the public ritas::Context API over real TCP sockets:
// four in-process "nodes", each with its own poll thread, running the
// paper's service calls (rb/eb/ab broadcast + bc/mvc/vc consensus).
#include "ritas/context.h"

#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <mutex>
#include <set>
#include <string>
#include <thread>

#include "net_helpers.h"

namespace ritas {
namespace {

using test::free_ports;
using test::local_peers;

class ContextCluster {
 public:
  explicit ContextCluster(std::uint32_t n) {
    const auto peers = local_peers(free_ports(n));
    for (std::uint32_t p = 0; p < n; ++p) {
      Context::Options o;
      o.n = n;
      o.self = p;
      o.peers = peers;
      o.master_secret = to_bytes("context-test-master");
      o.rng_seed = 1000 + p;
      ctxs_.push_back(std::make_unique<Context>(o));
    }
    std::vector<std::thread> starters;
    for (auto& c : ctxs_) {
      starters.emplace_back([&c] { c->start(); });
    }
    for (auto& t : starters) t.join();
  }

  Context& operator[](std::uint32_t p) { return *ctxs_[p]; }
  std::uint32_t n() const { return static_cast<std::uint32_t>(ctxs_.size()); }

 private:
  std::vector<std::unique_ptr<Context>> ctxs_;
};

TEST(Context, ReliableBroadcastRoundTrip) {
  ContextCluster cluster(4);
  cluster[0].rb_bcast(to_bytes("hello rb"));
  for (std::uint32_t p = 0; p < 4; ++p) {
    const auto d = cluster[p].rb_recv();
    EXPECT_EQ(d.origin, 0u);
    EXPECT_EQ(to_string(d.payload), "hello rb");
  }
}

TEST(Context, EchoBroadcastRoundTrip) {
  ContextCluster cluster(4);
  cluster[2].eb_bcast(to_bytes("hello eb"));
  for (std::uint32_t p = 0; p < 4; ++p) {
    const auto d = cluster[p].eb_recv();
    EXPECT_EQ(d.origin, 2u);
    EXPECT_EQ(to_string(d.payload), "hello eb");
  }
}

TEST(Context, SequentialReliableBroadcastsStayOrderedPerOrigin) {
  ContextCluster cluster(4);
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
  ContextCluster cluster(4);
  std::vector<std::thread> threads;
  std::array<bool, 4> decision{};
  for (std::uint32_t p = 0; p < 4; ++p) {
    threads.emplace_back([&cluster, &decision, p] {
      decision[p] = cluster[p].bc(true);
    });
  }
  for (auto& t : threads) t.join();
  for (bool d : decision) EXPECT_TRUE(d);
}

TEST(Context, BinaryConsensusMixedAgrees) {
  ContextCluster cluster(4);
  std::vector<std::thread> threads;
  std::array<bool, 4> decision{};
  for (std::uint32_t p = 0; p < 4; ++p) {
    threads.emplace_back([&cluster, &decision, p] {
      decision[p] = cluster[p].bc(p % 2 == 0);
    });
  }
  for (auto& t : threads) t.join();
  for (std::uint32_t p = 1; p < 4; ++p) EXPECT_EQ(decision[p], decision[0]);
}

TEST(Context, MultiValuedConsensusUnanimous) {
  ContextCluster cluster(4);
  std::vector<std::thread> threads;
  std::array<std::optional<Bytes>, 4> decision;
  for (std::uint32_t p = 0; p < 4; ++p) {
    threads.emplace_back([&cluster, &decision, p] {
      decision[p] = cluster[p].mvc(to_bytes("the value"));
    });
  }
  for (auto& t : threads) t.join();
  for (std::uint32_t p = 0; p < 4; ++p) {
    ASSERT_TRUE(decision[p].has_value());
    EXPECT_EQ(to_string(*decision[p]), "the value");
  }
}

TEST(Context, VectorConsensusAgrees) {
  ContextCluster cluster(4);
  std::vector<std::thread> threads;
  std::array<std::vector<std::optional<Bytes>>, 4> decision;
  for (std::uint32_t p = 0; p < 4; ++p) {
    threads.emplace_back([&cluster, &decision, p] {
      decision[p] = cluster[p].vc(to_bytes("prop" + std::to_string(p)));
    });
  }
  for (auto& t : threads) t.join();
  for (std::uint32_t p = 1; p < 4; ++p) EXPECT_EQ(decision[p], decision[0]);
  std::uint32_t filled = 0;
  for (const auto& e : decision[0]) {
    if (e.has_value()) ++filled;
  }
  EXPECT_GE(filled, 3u);  // n - f
}

TEST(Context, AtomicBroadcastTotalOrder) {
  ContextCluster cluster(4);
  constexpr int kPer = 5;
  std::vector<std::thread> threads;
  for (std::uint32_t p = 0; p < 4; ++p) {
    threads.emplace_back([&cluster, p] {
      for (int i = 0; i < kPer; ++i) {
        cluster[p].ab_bcast(to_bytes("ab" + std::to_string(p) + "-" + std::to_string(i)));
      }
    });
  }
  for (auto& t : threads) t.join();

  std::array<std::vector<std::string>, 4> order;
  for (std::uint32_t p = 0; p < 4; ++p) {
    for (int i = 0; i < 4 * kPer; ++i) {
      order[p].push_back(to_string(cluster[p].ab_recv().payload));
    }
  }
  for (std::uint32_t p = 1; p < 4; ++p) {
    EXPECT_EQ(order[p], order[0]) << "total order violated at node " << p;
  }
}

TEST(Context, ConsensusSequence) {
  // Repeated consensus calls use fresh numbered instances; results must be
  // independent and consistent.
  ContextCluster cluster(4);
  for (int round = 0; round < 3; ++round) {
    std::vector<std::thread> threads;
    std::array<std::optional<Bytes>, 4> decision;
    const std::string v = "round-" + std::to_string(round);
    for (std::uint32_t p = 0; p < 4; ++p) {
      threads.emplace_back([&cluster, &decision, &v, p] {
        decision[p] = cluster[p].mvc(to_bytes(v));
      });
    }
    for (auto& t : threads) t.join();
    for (std::uint32_t p = 0; p < 4; ++p) {
      ASSERT_TRUE(decision[p].has_value());
      EXPECT_EQ(to_string(*decision[p]), v);
    }
  }
}

TEST(Context, SubscribeModeDeliversInOrder) {
  // ab_subscribe switches node 3 to push delivery: the callback runs on
  // the reactor thread in total order, and the queue-based receivers on
  // the other nodes see the same order.
  ContextCluster cluster(4);
  std::vector<std::string> pushed;
  std::mutex mu;
  cluster[3].ab_subscribe([&](Context::AbDelivery d) {
    std::lock_guard<std::mutex> lock(mu);
    pushed.push_back(to_string(d.payload));
  });
  for (std::uint32_t p = 0; p < 4; ++p) {
    cluster[p].ab_bcast(to_bytes("sub" + std::to_string(p)));
  }
  std::vector<std::string> polled;
  for (int i = 0; i < 4; ++i) polled.push_back(to_string(cluster[0].ab_recv().payload));
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::minutes(1);
  while (std::chrono::steady_clock::now() < deadline) {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (pushed.size() >= 4) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(pushed, polled);
  // The subscriber bypasses the queue entirely.
  EXPECT_FALSE(cluster[3].ab_try_recv().has_value());
}

TEST(Context, BatchedAtomicBroadcastTotalOrder) {
  // Same burst as AtomicBroadcastTotalOrder, but with payload batching
  // enabled at every node: messages are packed into shared dissemination
  // broadcasts on the wire yet still deliver one-by-one in total order.
  const auto peers = local_peers(free_ports(4));
  std::vector<std::unique_ptr<Context>> nodes;
  for (std::uint32_t p = 0; p < 4; ++p) {
    Context::Options o;
    o.n = 4;
    o.self = p;
    o.peers = peers;
    o.master_secret = to_bytes("context-test-master");
    o.rng_seed = 1500 + p;
    o.batch.enabled = true;
    o.batch.max_msgs = 4;
    nodes.push_back(std::make_unique<Context>(o));
  }
  {
    std::vector<std::thread> starters;
    for (auto& c : nodes) starters.emplace_back([&c] { c->start(); });
    for (auto& t : starters) t.join();
  }
  constexpr int kPer = 6;
  for (std::uint32_t p = 0; p < 4; ++p) {
    for (int i = 0; i < kPer; ++i) {
      nodes[p]->ab_bcast(to_bytes("bt" + std::to_string(p) + "-" + std::to_string(i)));
    }
    nodes[p]->ab_flush();
  }
  std::array<std::vector<std::string>, 4> order;
  for (std::uint32_t p = 0; p < 4; ++p) {
    for (int i = 0; i < 4 * kPer; ++i) {
      order[p].push_back(to_string(nodes[p]->ab_recv().payload));
    }
  }
  for (std::uint32_t p = 1; p < 4; ++p) {
    EXPECT_EQ(order[p], order[0]) << "batched total order violated at node " << p;
  }
  // Batching actually engaged: fewer dissemination broadcasts than
  // messages, and the seal/unpack accounting matches the burst. Each
  // ab_bcast round-trips to the reactor, so any single node can lose every
  // "next message posted before the open batch's RB completes" race under
  // unlucky scheduling; aggregating over all four nodes keeps the assertion
  // meaningful (somewhere, batching packed messages) without that race.
  std::uint64_t sealed = 0;
  std::uint64_t batch_msgs = 0;
  for (std::uint32_t p = 0; p < 4; ++p) {
    const Metrics m = nodes[p]->metrics();
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
  ContextCluster cluster(4);
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
  const auto peers = local_peers(free_ports(4));
  std::vector<std::unique_ptr<Context>> nodes;
  for (std::uint32_t p = 0; p < 4; ++p) {
    Context::Options o;
    o.n = 4;
    o.self = p;
    o.peers = peers;
    o.master_secret = to_bytes("context-test-master");
    o.rng_seed = 1700 + p;
    if (p == 3) o.recv_window = 2;
    nodes.push_back(std::make_unique<Context>(o));
  }
  {
    std::vector<std::thread> starters;
    for (std::uint32_t p = 0; p < 3; ++p) {
      starters.emplace_back([&nodes, p] { nodes[p]->start(); });
    }
    for (auto& t : starters) t.join();
  }
  for (int i = 0; i < 10; ++i) nodes[0]->rb_bcast(to_bytes("w" + std::to_string(i)));
  for (std::uint32_t p = 0; p < 3; ++p) {
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(nodes[p]->rb_recv_for(std::chrono::seconds(30)).has_value());
    }
  }
  nodes[3]->start();
  std::set<std::string> got;
  for (int i = 0; i < 10; ++i) {
    const auto d = nodes[3]->rb_recv_for(std::chrono::seconds(30));
    ASSERT_TRUE(d.has_value()) << "only " << i << " of 10 delivered";
    EXPECT_EQ(d->origin, 0u);
    got.insert(to_string(d->payload));
  }
  EXPECT_EQ(got.size(), 10u);
  const Metrics m = nodes[3]->metrics();
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
  const auto peers = local_peers(free_ports(4));
  std::vector<std::unique_ptr<Context>> nodes;
  for (std::uint32_t p = 0; p < 4; ++p) {
    Context::Options o;
    o.n = 4;
    o.self = p;
    o.peers = peers;
    o.master_secret = to_bytes("context-test-master");
    o.rng_seed = 1800 + p;
    nodes.push_back(std::make_unique<Context>(o));
  }
  {
    std::vector<std::thread> starters;
    for (std::uint32_t p = 0; p < 3; ++p) {
      starters.emplace_back([&nodes, p] { nodes[p]->start(); });
    }
    for (auto& t : starters) t.join();
  }
  for (int i = 0; i < kMsgs; ++i) {
    nodes[i % 3]->ab_bcast(to_bytes("late" + std::to_string(i)));
  }
  std::array<std::vector<std::string>, 4> order;
  for (std::uint32_t p = 0; p < 3; ++p) {
    for (int i = 0; i < kMsgs; ++i) {
      const auto d = nodes[p]->ab_recv_for(std::chrono::seconds(30));
      ASSERT_TRUE(d.has_value()) << "node " << p << " got " << i;
      order[p].push_back(std::to_string(d->origin) + "/" + to_string(d->payload));
    }
  }
  nodes[3]->start();
  for (int i = 0; i < kMsgs; ++i) {
    const auto d = nodes[3]->ab_recv_for(std::chrono::seconds(30));
    ASSERT_TRUE(d.has_value()) << "late starter got only " << i << " of " << kMsgs;
    order[3].push_back(std::to_string(d->origin) + "/" + to_string(d->payload));
  }
  for (std::uint32_t p = 1; p < 4; ++p) {
    EXPECT_EQ(order[p], order[0]) << "total order violated at node " << p;
  }
}

TEST(Context, MetricsVisible) {
  ContextCluster cluster(4);
  cluster[0].rb_bcast(to_bytes("m"));
  for (std::uint32_t p = 0; p < 4; ++p) (void)cluster[p].rb_recv();
  const Metrics m = cluster[0].metrics();
  EXPECT_GE(m.rb_started_payload, 1u);
  EXPECT_GT(m.msgs_sent, 0u);
}

}  // namespace
}  // namespace ritas
