// ritas::Node — the runtime Context and ShardedNode share: option checks,
// the task lane onto the thread that owns a group, the per-group pumps,
// and a stop() that still runs every task posted before it.
#include "ritas/node.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "net_helpers.h"

namespace ritas {
namespace {

using test::free_ports;
using test::local_peers;

Node::Options options(const std::vector<net::PeerAddr>& peers, ProcessId self,
                      std::uint32_t reactor_threads) {
  Node::Options o;
  o.n = static_cast<std::uint32_t>(peers.size());
  o.self = self;
  o.peers = peers;
  o.master_secret = to_bytes("node-test");
  o.reactor_threads = reactor_threads;
  o.rng_seed = 11;
  return o;
}

/// Four nodes on a loopback mesh, node 0 with `threads` reactors; every
/// node serves groups 0 and 1 with a pump that records where it ran.
struct Mesh {
  std::vector<std::unique_ptr<Node>> nodes;
  std::atomic<std::uint64_t> pumps0{0};
  std::atomic<std::size_t> pump0_tid{0};

  explicit Mesh(std::uint32_t threads) {
    const auto peers = local_peers(free_ports(4));
    for (ProcessId p = 0; p < 4; ++p) {
      nodes.push_back(std::make_unique<Node>(
          "test", options(peers, p, p == 0 ? threads : 0)));
    }
    nodes[0]->serve(0, [this] {
      pump0_tid.store(std::hash<std::thread::id>{}(std::this_thread::get_id()));
      ++pumps0;
    });
    nodes[0]->serve(1, [] {});
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
  Node::Options o = options(peers, 0, 0);
  o.n = 3;
  EXPECT_THROW(Node("test", o), std::invalid_argument);
  o = options(peers, 4, 0);
  EXPECT_THROW(Node("test", o), std::invalid_argument);
  o = options(peers, 0, 0);
  o.peers.pop_back();
  EXPECT_THROW(Node("test", o), std::invalid_argument);
  o = options(peers, 0, 65);
  try {
    Node node("who", o);
    FAIL() << "reactor_threads = 65 accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()).rfind("who: ", 0), 0u) << e.what();
  }
}

TEST(Node, RunBeforeStartIsALogicError) {
  const auto peers = local_peers(free_ports(4));
  Node node("test", options(peers, 0, 0));
  EXPECT_FALSE(node.running());
  EXPECT_THROW(node.run(0, [] {}), std::logic_error);
}

TEST(Node, InlineTasksAndPumpsRunOnThePollThread) {
  Mesh m(0);
  Node& node = *m.nodes[0];
  std::size_t first = 0, second = 0;
  node.run(0, [&] { first = this_tid(); });
  node.run(1, [&] { second = this_tid(); });
  EXPECT_NE(first, this_tid());
  EXPECT_EQ(first, second) << "inline mode: one thread owns every group";
  const std::uint64_t before = m.pumps0.load();
  node.run(0, [] {});
  node.run(0, [] {});  // the first task's pump ran before this one
  EXPECT_GT(m.pumps0.load(), before);
  EXPECT_EQ(m.pump0_tid.load(), first);
  EXPECT_EQ(node.pool().stats().tasks_run, 0u);
}

TEST(Node, PipelineTasksAndPumpsRunOnTheOwningReactor) {
  Mesh m(2);
  Node& node = *m.nodes[0];
  std::size_t g0 = 0, g0_again = 0, g1 = 0;
  node.run(0, [&] { g0 = this_tid(); });
  node.run(1, [&] { g1 = this_tid(); });
  node.run(0, [&] { g0_again = this_tid(); });
  EXPECT_EQ(g0, g0_again);
  EXPECT_NE(g0, g1) << "groups 0 and 1 default to reactors 0 and 1";
  EXPECT_EQ(m.pump0_tid.load(), g0);
  EXPECT_GE(node.pool().stats().tasks_run, 3u);
}

TEST(Node, RunRethrowsOnTheCallingThread) {
  for (std::uint32_t threads : {0u, 2u}) {
    Mesh m(threads);
    EXPECT_THROW(m.nodes[0]->run(0, [] { throw std::out_of_range("boom"); }),
                 std::out_of_range)
        << "reactor_threads = " << threads;
    // The owning thread survived the throw.
    bool ran = false;
    m.nodes[0]->run(0, [&] { ran = true; });
    EXPECT_TRUE(ran);
  }
}

TEST(Node, StopStillRunsTasksPostedBeforeIt) {
  for (std::uint32_t threads : {0u, 2u}) {
    Mesh m(threads);
    std::atomic<int> ran{0};
    for (int i = 0; i < 100; ++i) m.nodes[0]->post(i % 2, [&ran] { ++ran; });
    m.nodes[0]->stop();
    EXPECT_EQ(ran.load(), 100) << "reactor_threads = " << threads;
    EXPECT_FALSE(m.nodes[0]->running());
  }
}

}  // namespace
}  // namespace ritas
