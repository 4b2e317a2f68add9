// ritas::Node — the runtime Context and ShardedNode share: option checks,
// the task lane onto the poll thread, the per-group stacks (their seed
// rule and their pumps), a stop() that still runs every task posted before
// it, a run() racing stop() that never hangs and a stop() racing start()
// that ends it at once; plus a ShardedNode cluster on a real loopback
// mesh.
#include "ritas/node.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "net_helpers.h"
#include "ritas/context.h"
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

/// Four nodes on a loopback mesh; node 0 runs two groups.
struct Mesh {
  std::vector<std::unique_ptr<Node>> nodes;

  Mesh() {
    const auto peers = local_peers(free_ports(4));
    for (ProcessId p = 0; p < 4; ++p) {
      nodes.push_back(
          std::make_unique<Node>("test", options(peers, p), p == 0 ? 2 : 1));
    }
    std::vector<std::thread> starters;
    for (auto& n : nodes) {
      starters.emplace_back([&n] { n->start(); });
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

/// A root that records where and how often its stack's pump ran its
/// deferred garbage collection: defer_gc() work runs only in a pump.
class PumpProbe final : public Protocol {
 public:
  PumpProbe(ProtocolStack& stack, std::uint64_t k)
      : Protocol(stack, nullptr,
                 InstanceId::root(ProtocolType::kReliableBroadcast, k)) {}
  void on_message(ProcessId, std::uint8_t, const Slice&) override {}
  void collect_garbage() override {
    tid = this_tid();
    ++runs;
  }
  std::size_t tid = 0;
  int runs = 0;
};

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
  o = options(peers, 0);
  EXPECT_THROW(Node("test", o, 0), std::invalid_argument);
  // A zero batch limit would seal every message alone; ShardedNode refuses
  // it before any socket exists, as Context does (test_api_edges).
  for (const bool zero_msgs : {false, true}) {
    ShardedNode::Options so;
    static_cast<Node::Options&>(so) = options(peers, 0);
    so.stack.ab_batch.enabled = true;
    (zero_msgs ? so.stack.ab_batch.max_batch_msgs
               : so.stack.ab_batch.max_batch_bytes) = 0;
    so.groups = 2;
    EXPECT_THROW(ShardedNode{so}, std::invalid_argument) << zero_msgs;
  }
}

TEST(Node, EveryGroupStackDrawsFromTheSharedSeedRule) {
  // The rule sim::Cluster uses: group g of process p draws from
  // Rng(stack_seed(seed, p, g)), on a Context's one stack as on each of a
  // ShardedNode's.
  const auto peers = local_peers(free_ports(4));
  const auto first_draw = [](std::uint64_t seed) { return Rng(seed).next(); };
  Context::Options c;
  static_cast<Node::Options&>(c) = options(peers, 2);
  Context ctx(c);
  EXPECT_EQ(ctx.node().groups(), 1u);
  EXPECT_EQ(ctx.node().stack().rng().next(), first_draw(stack_seed(11, 2, 0)));

  ShardedNode::Options so;
  static_cast<Node::Options&>(so) = options(peers, 1);
  so.groups = 3;
  ShardedNode sharded(so);
  ASSERT_EQ(sharded.node().groups(), 3u);
  for (GroupId g = 0; g < 3; ++g) {
    EXPECT_EQ(sharded.node().stack(g).rng().next(),
              first_draw(stack_seed(11, 1, g)))
        << "group " << g;
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
  ASSERT_EQ(node.groups(), 2u);
  std::size_t first = 0, second = 0;
  node.run([&] { first = this_tid(); });
  node.run([&] { second = this_tid(); });
  EXPECT_NE(first, this_tid());
  EXPECT_EQ(first, second) << "one thread runs every task";
  // Probes live on the poll thread, which owns the stacks they register in.
  std::vector<std::unique_ptr<PumpProbe>> probes;
  node.run([&] {
    for (GroupId g = 0; g < node.groups(); ++g) {
      probes.push_back(std::make_unique<PumpProbe>(node.stack(g), g));
      node.stack(g).defer_gc(probes.back().get());
    }
  });
  node.run([] {});  // the first task's pumps ran before this one
  node.run([&] {
    for (GroupId g = 0; g < node.groups(); ++g) {
      EXPECT_EQ(probes[g]->runs, 1) << "group " << g;
      EXPECT_EQ(probes[g]->tid, first) << "group " << g;
    }
    probes.clear();
  });
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

TEST(Node, RunRacingStopRunsOrThrowsNeverHangs) {
  // Threads call run() back to back while stop() runs. Each call either
  // runs its task or throws logic_error; a task queued after the poll
  // thread's last drain would block its caller forever, so a watchdog
  // turns a hang into a failure rather than a stuck suite.
  constexpr int kMeshes = 5;
  constexpr int kRacers = 3;
  std::atomic<bool> finished{false};
  std::thread watchdog([&finished] {
    const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (!finished.load()) {
      if (std::chrono::steady_clock::now() > give_up) {
        std::fprintf(stderr, "Node::run() still blocked 60 s after stop()\n");
        std::_Exit(1);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });
  std::atomic<std::uint64_t> ran{0};
  std::atomic<std::uint64_t> refused{0};
  for (int i = 0; i < kMeshes; ++i) {
    Mesh m;
    for (auto& node : m.nodes) {
      std::vector<std::thread> racers;
      for (int r = 0; r < kRacers; ++r) {
        racers.emplace_back([&node, &ran, &refused] {
          for (;;) {
            try {
              node->run([] {});
              ++ran;
            } catch (const std::logic_error&) {
              ++refused;
              return;
            }
          }
        });
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      node->stop();
      for (auto& t : racers) t.join();
    }
  }
  finished.store(true);
  watchdog.join();
  EXPECT_EQ(refused.load(), std::uint64_t{kMeshes} * 4 * kRacers);
  EXPECT_GT(ran.load(), 0u);
}

TEST(Node, StopRacingStartEndsItPromptly) {
  // Node 3 dials peers that never start, so its start() waits below its
  // link threshold for the 15 s connect timeout. A stop() from another
  // thread lands before start() begins, during its first poll, before or
  // after the poll thread exists, or while it waits; every start() must
  // throw within 1 s, and the node stays stopped.
  using std::chrono::microseconds;
  for (const microseconds delay :
       {microseconds(0), microseconds(50), microseconds(1000),
        microseconds(20'000)}) {
    for (int i = 0; i < 20; ++i) {
      Node node("test", options(local_peers(free_ports(4)), 3));
      bool threw = false;
      std::chrono::steady_clock::duration took{};
      std::thread starter([&] {
        const auto t0 = std::chrono::steady_clock::now();
        try {
          node.start();
        } catch (const std::runtime_error&) {
          threw = true;
        }
        took = std::chrono::steady_clock::now() - t0;
      });
      std::this_thread::sleep_for(delay);
      node.stop();
      starter.join();
      EXPECT_TRUE(threw) << delay.count() << " us, run " << i;
      EXPECT_LT(took, std::chrono::seconds(1))
          << delay.count() << " us, run " << i;
      EXPECT_THROW(node.start(), std::runtime_error) << "stopped for good";
      EXPECT_FALSE(node.post([] {}));
      EXPECT_FALSE(node.running());
    }
  }
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
    EXPECT_EQ(nodes[p]->service().stats().misrouted_dropped, 0u) << "node " << p;
    // The node's counters cover every shard's stack.
    const Metrics m = nodes[p]->metrics();
    EXPECT_GT(m.msgs_received, 0u) << "node " << p;
    EXPECT_EQ(m.ooc_evicted, 0u) << "node " << p;
    EXPECT_EQ(m.malformed_dropped, 0u) << "node " << p;
    EXPECT_EQ(m.foreign_group_dropped, 0u) << "node " << p;
  }
  for (auto& n : nodes) n->stop();
}

}  // namespace
}  // namespace ritas
