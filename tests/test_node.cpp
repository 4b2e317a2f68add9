// ritas::Node — the runtime Context and ShardedNode share: option checks,
// the task lane onto the poll thread, the per-group pumps, and a stop()
// that still runs every task posted before it; plus a ShardedNode cluster
// on a real loopback mesh.
#include "ritas/node.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "net_helpers.h"
#include "ritas/sharded_node.h"

namespace ritas {
namespace {

using test::free_ports;
using test::local_peers;

Node::Options options(const std::vector<net::PeerAddr>& peers, ProcessId self) {
  Node::Options o;
  o.n = static_cast<std::uint32_t>(peers.size());
  o.self = self;
  o.peers = peers;
  o.master_secret = to_bytes("node-test");
  o.rng_seed = 11;
  return o;
}

/// Four nodes on a loopback mesh; node 0 serves two groups, the first with
/// a pump that records where it ran.
struct Mesh {
  std::vector<std::unique_ptr<Node>> nodes;
  std::atomic<std::uint64_t> pumps0{0};
  std::atomic<std::size_t> pump0_tid{0};

  Mesh() {
    const auto peers = local_peers(free_ports(4));
    for (ProcessId p = 0; p < 4; ++p) {
      nodes.push_back(std::make_unique<Node>("test", options(peers, p)));
    }
    nodes[0]->serve([this] {
      pump0_tid.store(std::hash<std::thread::id>{}(std::this_thread::get_id()));
      ++pumps0;
    });
    nodes[0]->serve([] {});
    std::vector<std::thread> starters;
    for (auto& n : nodes) {
      starters.emplace_back([&n] { n->start([](ProcessId, Slice) {}); });
    }
    for (auto& t : starters) t.join();
  }
  ~Mesh() {
    for (auto& n : nodes) n->stop();
  }
};

std::size_t this_tid() {
  return std::hash<std::thread::id>{}(std::this_thread::get_id());
}

TEST(Node, RejectsInconsistentOptions) {
  const auto peers = local_peers(free_ports(4));
  Node::Options o = options(peers, 0);
  o.n = 3;
  EXPECT_THROW(Node("test", o), std::invalid_argument);
  o = options(peers, 4);
  EXPECT_THROW(Node("test", o), std::invalid_argument);
  o = options(peers, 0);
  o.peers.pop_back();
  try {
    Node node("who", o);
    FAIL() << "peers.size() != n accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()).rfind("who: ", 0), 0u) << e.what();
  }
}

TEST(Node, RunBeforeStartIsALogicError) {
  const auto peers = local_peers(free_ports(4));
  Node node("test", options(peers, 0));
  EXPECT_FALSE(node.running());
  EXPECT_THROW(node.run([] {}), std::logic_error);
}

TEST(Node, InlineTasksAndPumpsRunOnThePollThread) {
  Mesh m;
  Node& node = *m.nodes[0];
  std::size_t first = 0, second = 0;
  node.run([&] { first = this_tid(); });
  node.run([&] { second = this_tid(); });
  EXPECT_NE(first, this_tid());
  EXPECT_EQ(first, second) << "one thread runs every task";
  const std::uint64_t before = m.pumps0.load();
  node.run([] {});
  node.run([] {});  // the first task's pump ran before this one
  EXPECT_GT(m.pumps0.load(), before);
  EXPECT_EQ(m.pump0_tid.load(), first);
}

TEST(Node, RunRethrowsOnTheCallingThread) {
  Mesh m;
  EXPECT_THROW(m.nodes[0]->run([] { throw std::out_of_range("boom"); }),
               std::out_of_range);
  // The poll thread survived the throw.
  bool ran = false;
  m.nodes[0]->run([&] { ran = true; });
  EXPECT_TRUE(ran);
}

TEST(Node, StopStillRunsTasksPostedBeforeIt) {
  Mesh m;
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) m.nodes[0]->post([&ran] { ++ran; });
  m.nodes[0]->stop();
  EXPECT_EQ(ran.load(), 100);
  EXPECT_FALSE(m.nodes[0]->running());
}

TEST(ShardedNode, ClusterReachesAgreementOverTcp) {
  constexpr std::uint32_t kN = 4;
  constexpr std::uint32_t kShards = 2;
  const auto peers = local_peers(free_ports(kN));
  std::vector<std::unique_ptr<ShardedNode>> nodes(kN);
  std::vector<std::thread> starters;
  for (std::uint32_t p = 0; p < kN; ++p) {
    ShardedNode::Options o;
    o.n = kN;
    o.self = p;
    o.peers = peers;
    o.master_secret = to_bytes("sharded-node");
    o.groups = kShards;
    o.rng_seed = 42;
    nodes[p] = std::make_unique<ShardedNode>(std::move(o));
    // start() blocks until the partial mesh is up; bring all nodes up in
    // parallel like a real deployment.
    starters.emplace_back([&nodes, p] { nodes[p]->start(); });
  }
  for (auto& t : starters) t.join();

  constexpr std::uint64_t kOps = 12;
  std::set<smr::ShardId> shards_used;
  for (std::uint64_t i = 0; i < kOps; ++i) {
    const std::string op = "put k" + std::to_string(i) + " v" + std::to_string(i);
    shards_used.insert(nodes[i % kN]->submit(/*client=*/7, /*seq=*/i,
                                             to_bytes(op)));
  }
  EXPECT_GT(shards_used.size(), 1u) << "keys should spread across shards";
  for (std::uint32_t p = 0; p < kN; ++p) {
    EXPECT_TRUE(nodes[p]->wait_applied_at_least(kOps, std::chrono::seconds(60)))
        << "node " << p << " applied " << nodes[p]->applied_total();
  }
  // Every replica of every shard converged on the same state.
  for (smr::ShardId s = 0; s < kShards; ++s) {
    const Bytes snap = nodes[0]->service().snapshot(s);
    for (std::uint32_t p = 1; p < kN; ++p) {
      EXPECT_EQ(nodes[p]->service().snapshot(s), snap) << "shard " << s;
    }
  }
  for (std::uint32_t p = 0; p < kN; ++p) {
    EXPECT_EQ(nodes[p]->service().misrouted_dropped(), 0u) << "node " << p;
  }
  for (auto& n : nodes) n->stop();
}

}  // namespace
}  // namespace ritas
