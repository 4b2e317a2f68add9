// Public-API edge cases: Context lifecycle (stop wakes blocked receivers,
// idempotent stop, errors after stop, stop ending a start() blocked on the
// mesh), the rb window (delivered broadcasts freed, stragglers dropped, a
// refused rb_bcast retried), and C-API buffer-size corners.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <future>
#include <thread>
#include <vector>

#include "net_helpers.h"
#include "ritas/context.h"
#include "ritas/ritas_c.h"

namespace ritas {
namespace {

using test::free_ports;
using test::local_peers;

/// The suite's mesh: four started nodes.
struct Mesh4 : test::ContextMesh {
  Mesh4() : ContextMesh(4, "edge-master", 2000) { start_all(); }
};

TEST(ContextLifecycle, StopWakesBlockedReceiver) {
  Mesh4 cluster;
  std::atomic<bool> woke{false};
  std::thread blocked([&] {
    try {
      (void)cluster[0].ab_recv();  // nothing will ever arrive
      ADD_FAILURE() << "recv returned without a delivery";
    } catch (const std::runtime_error&) {
      woke.store(true);  // the documented stop signal
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(woke.load());
  cluster[0].stop();
  blocked.join();
  EXPECT_TRUE(woke.load());
}

TEST(ContextLifecycle, StopIsIdempotent) {
  Mesh4 cluster;
  cluster[1].stop();
  cluster[1].stop();  // second stop: no-op, no crash
  SUCCEED();
}

TEST(ContextLifecycle, ServiceCallAfterStopThrows) {
  Mesh4 cluster;
  cluster[2].stop();
  EXPECT_THROW(cluster[2].rb_bcast(to_bytes("late")), std::logic_error);
}

TEST(ContextLifecycle, StopWakesBlockedConsensusCaller) {
  Mesh4 cluster;
  std::promise<void> woke;
  auto woken = woke.get_future();
  std::thread blocked([&] {
    try {
      (void)cluster[0].bc(true);  // a lone proposer never decides
      ADD_FAILURE() << "bc decided with one proposer";
    } catch (const ShutdownError&) {
    }
    woke.set_value();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  cluster[0].stop();
  if (woken.wait_for(std::chrono::seconds(10)) != std::future_status::ready) {
    // The caller is stuck for good and still references the cluster, so
    // it can be neither joined nor detached safely: fail the run now.
    ADD_FAILURE() << "bc still blocked 10 s after stop()";
    std::_Exit(1);
  }
  blocked.join();
  EXPECT_THROW((void)cluster[0].bc(true), std::logic_error);
}

/// A node's stack instance count, read on its poll thread.
std::size_t instance_count(Context& c) {
  std::size_t count = 0;
  c.node().run([&c, &count] { count = c.node().stack().instance_count(); });
  return count;
}

/// Polls a node's instance count for up to 5 s until it reads `want`.
std::size_t settle_instance_count(Context& c, std::size_t want) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  std::size_t count = instance_count(c);
  while (count != want && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    count = instance_count(c);
  }
  return count;
}

TEST(ContextLifecycle, DeliveredBroadcastRootsAreFreed) {
  // The broadcasts of a delivered stream must be destroyed (deferred GC),
  // keeping the instance count bounded during long streams: a broadcast
  // lives from its first reference until its delivery, and an origin may
  // run at most recv_window (64) broadcasts ahead of the last one
  // delivered.
  Mesh4 cluster;
  const std::size_t baseline = instance_count(cluster[3]);
  const Metrics before = cluster[3].metrics();
  for (int i = 0; i < 40; ++i) {
    cluster[0].rb_bcast(to_bytes("gc-probe"));
    (void)cluster[3].rb_recv();
  }
  EXPECT_GE(cluster[3].metrics().msgs_received, before.msgs_received + 40);
  EXPECT_EQ(settle_instance_count(cluster[3], baseline), baseline);
  // More than one window of traffic from another origin.
  for (int i = 0; i < 80; ++i) {
    cluster[1].rb_bcast(to_bytes("beyond-one-window"));
    (void)cluster[3].rb_recv();
  }
  EXPECT_EQ(settle_instance_count(cluster[3], baseline), baseline);
}

TEST(ContextLifecycle, RefusedBroadcastDoesNotUseUpItsSequenceNumber) {
  // Node 0 may run one rb broadcast ahead of its last delivered one. Only
  // nodes 0 and 1 run at first, too few to deliver anything, so a second
  // rb_bcast is refused for certain. The refusal must leave k alone: once
  // nodes 2 and 3 join and "a" is delivered, the retry is broadcast 1,
  // which every node admits and delivers, and no broadcast is left behind.
  test::ContextMesh cluster(4, "edge-master", 2100, [](Context::Options& o) {
    o.min_start_links = 1;
    if (o.self == 0) o.recv_window = 1;
  });
  cluster.start({0, 1});
  // Every node holds the same roots before the burst.
  const std::size_t baseline = instance_count(cluster[0]);
  cluster[0].rb_bcast(to_bytes("a"));
  EXPECT_THROW(cluster[0].rb_bcast(to_bytes("b")), std::logic_error);
  cluster.start({2, 3});
  for (ProcessId p = 0; p < 4; ++p) {
    const auto d = cluster[p].rb_recv_for(std::chrono::seconds(30));
    ASSERT_TRUE(d.has_value()) << "node " << p;
    EXPECT_EQ(to_string(d->payload), "a");
  }
  ASSERT_NO_THROW(cluster[0].rb_bcast(to_bytes("b")));
  for (ProcessId p = 0; p < 4; ++p) {
    const auto d = cluster[p].rb_recv_for(std::chrono::seconds(30));
    ASSERT_TRUE(d.has_value()) << "node " << p;
    EXPECT_EQ(d->origin, 0u);
    EXPECT_EQ(to_string(d->payload), "b");
  }
  for (ProcessId p = 0; p < 4; ++p) {
    EXPECT_EQ(settle_instance_count(cluster[p], baseline), baseline)
        << "node " << p;
  }
}

TEST(ContextLifecycle, LateFramesForDeliveredRootsAreDroppedNotParked) {
  // ECHO/READY frames that arrive after their broadcast was delivered and
  // its root destroyed are counted drops. Parking them out of context
  // would leak table entries that nothing ever drains, until the
  // per-sender quota starts evicting.
  Mesh4 cluster;
  for (int i = 0; i < 500; ++i) {
    cluster[i % 4].rb_bcast(to_bytes("straggler-probe"));
    for (ProcessId p = 0; p < 4; ++p) {
      ASSERT_TRUE(cluster[p].rb_recv_for(std::chrono::seconds(30)).has_value()) << i;
    }
  }
  std::uint64_t dropped = 0;
  for (std::uint32_t p = 0; p < 4; ++p) {
    const Metrics m = cluster[p].metrics();
    EXPECT_EQ(m.ooc_stored, 0u) << "p" << p;
    EXPECT_EQ(m.ooc_evicted, 0u) << "p" << p;
    dropped += m.unroutable_dropped;
  }
  EXPECT_GT(dropped, 0u);  // stragglers did arrive, and were counted
}

TEST(ContextOptions, InvalidMembershipFailsFast) {
  // Construction validates the membership instead of letting a broken
  // configuration reach the TCP mesh (where it used to surface as a
  // confusing connect failure or an out-of-range peer lookup). The valid
  // case listens on its own port from construction, so it needs a free one.
  const auto peers = local_peers(free_ports(4));
  auto base = [&peers] {
    Context::Options o;
    o.n = 4;
    o.self = 0;
    o.peers = peers;
    o.master_secret = to_bytes("v");
    return o;
  };
  {
    auto o = base();
    o.n = 3;
    o.peers.resize(3);  // n < 3f+1 for f = 1
    EXPECT_THROW(Context c(std::move(o)), std::invalid_argument);
  }
  {
    auto o = base();
    o.self = 4;  // self outside the group
    EXPECT_THROW(Context c(std::move(o)), std::invalid_argument);
  }
  {
    auto o = base();
    o.peers.resize(3);  // peer list shorter than n
    EXPECT_THROW(Context c(std::move(o)), std::invalid_argument);
  }
  {
    auto o = base();
    o.peers.push_back(net::PeerAddr{"127.0.0.1", 2});  // longer than n
    EXPECT_THROW(Context c(std::move(o)), std::invalid_argument);
  }
  {
    auto o = base();  // a valid membership constructs fine (no start())
    Context c(std::move(o));
  }
}

TEST(ContextOptions, NonsensicalKnobsFailFast) {
  const auto peers = local_peers(free_ports(4));
  auto base = [&peers] {
    Context::Options o;
    o.n = 4;
    o.self = 1;
    o.peers = peers;
    o.master_secret = to_bytes("v");
    return o;
  };
  {
    auto o = base();
    o.recv_window = 0;
    EXPECT_THROW(Context c(std::move(o)), std::invalid_argument);
  }
  {
    auto o = base();
    o.stack.ab_batch.enabled = true;
    o.stack.ab_batch.max_batch_msgs = 0;
    EXPECT_THROW(Context c(std::move(o)), std::invalid_argument);
  }
  {
    auto o = base();
    o.stack.ab_batch.enabled = true;
    o.stack.ab_batch.max_batch_bytes = 0;
    EXPECT_THROW(Context c(std::move(o)), std::invalid_argument);
  }
  {
    // Zero limits are harmless while batching is off.
    auto o = base();
    o.stack.ab_batch.max_batch_msgs = 0;
    o.stack.ab_batch.max_batch_bytes = 0;
    Context c(std::move(o));
  }
}

TEST(ContextLifecycle, TryRecvAndRecvForTimeout) {
  Mesh4 cluster;
  // Nothing queued: try_recv polls empty, recv_for times out (and both
  // return, rather than blocking like recv()).
  EXPECT_FALSE(cluster[0].ab_try_recv().has_value());
  EXPECT_FALSE(cluster[0].rb_try_recv().has_value());
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(cluster[0].ab_recv_for(std::chrono::milliseconds(30)).has_value());
  EXPECT_GE(std::chrono::steady_clock::now() - t0, std::chrono::milliseconds(25));

  // With a delivery queued, both modes return it.
  cluster.ab_bcast(1, to_bytes("poll-me"));
  const auto got = cluster[2].ab_recv_for(std::chrono::seconds(30));
  ASSERT_TRUE(got.has_value());
  cluster.delivered(2, *got);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  std::optional<Context::AbDelivery> polled;
  while (!polled && std::chrono::steady_clock::now() < deadline) {
    polled = cluster[3].ab_try_recv();
    if (!polled) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE(polled.has_value());
  cluster.delivered(3, *polled);
  // Both popped p1's message intact (no-creation). Nodes 0 and 1 never
  // pop, so validity is not judged.
  const auto r = cluster.check_ab(cluster.all(), /*complete=*/false);
  EXPECT_TRUE(r.ok()) << r.text();
}

TEST(ContextLifecycle, StopThrowsShutdownErrorSpecifically) {
  Mesh4 cluster;
  std::atomic<bool> typed{false};
  std::thread blocked([&] {
    try {
      (void)cluster[0].ab_recv();
    } catch (const ShutdownError&) {
      typed.store(true);  // the precise v2 type, not just runtime_error
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  cluster[0].stop();
  blocked.join();
  EXPECT_TRUE(typed.load());
  // After stop + drain, the non-blocking modes also report shutdown.
  EXPECT_THROW((void)cluster[0].ab_try_recv(), ShutdownError);
  EXPECT_THROW((void)cluster[0].ab_recv_for(std::chrono::milliseconds(1)),
               ShutdownError);
}

TEST(ContextLifecycle, StopEndsAStartBlockedOnTheMesh) {
  // Node 0's peers never start, so its start() waits below its link
  // threshold for up to connect_timeout_ms (15 s). A stop() from another
  // thread ends it at once, and the session stays stopped.
  Context::Options o;
  o.n = 4;
  o.self = 0;
  o.peers = local_peers(free_ports(4));
  o.master_secret = to_bytes("lonely-master");
  Context ctx(std::move(o));
  const auto t0 = std::chrono::steady_clock::now();
  std::thread stopper([&ctx] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    ctx.stop();
  });
  EXPECT_THROW(ctx.start(), std::runtime_error);
  const auto took = std::chrono::steady_clock::now() - t0;
  stopper.join();
  EXPECT_LT(took, std::chrono::seconds(1));
  EXPECT_THROW((void)ctx.rb_try_recv(), ShutdownError);
  EXPECT_THROW((void)ctx.eb_try_recv(), ShutdownError);
  EXPECT_THROW((void)ctx.ab_try_recv(), ShutdownError);
  EXPECT_THROW(ctx.ab_bcast(to_bytes("late")), std::logic_error);
  EXPECT_THROW(ctx.start(), std::runtime_error) << "stopped for good";
}

TEST(CApiEdges, MvcBufferTooSmall) {
  const auto ports = free_ports(4);
  std::array<ritas_t*, 4> r{};
  const std::uint8_t secret[] = "edge";
  for (std::uint32_t p = 0; p < 4; ++p) {
    r[p] = ritas_init(4, p, secret, sizeof(secret));
    for (std::uint32_t q = 0; q < 4; ++q) {
      ritas_proc_add_ipv4(r[p], q, "127.0.0.1", ports[q]);
    }
  }
  std::vector<std::thread> starters;
  for (auto* ctx : r) starters.emplace_back([ctx] { ritas_start(ctx); });
  for (auto& t : starters) t.join();

  const char* big = "a value that certainly does not fit in four bytes";
  std::array<long, 4> rc{};
  std::vector<std::thread> threads;
  for (std::uint32_t p = 0; p < 4; ++p) {
    threads.emplace_back([&, p] {
      std::uint8_t tiny[4];
      int bot = 0;
      rc[p] = ritas_mvc(r[p], reinterpret_cast<const std::uint8_t*>(big),
                        std::strlen(big), tiny, sizeof(tiny), &bot);
    });
  }
  for (auto& t : threads) t.join();
  for (long v : rc) EXPECT_EQ(v, RITAS_ETOOBIG);
  for (auto* ctx : r) ritas_destroy(ctx);
}

TEST(CApiEdges, NullArgumentsRejected) {
  EXPECT_EQ(ritas_rb_bcast(nullptr, nullptr, 0), RITAS_EINVAL);
  EXPECT_EQ(ritas_rb_recv(nullptr, nullptr, nullptr, 0), RITAS_EINVAL);
  EXPECT_EQ(ritas_bc(nullptr, 1), RITAS_EINVAL);
  EXPECT_EQ(ritas_vc(nullptr, nullptr, 0, nullptr, 0, nullptr), RITAS_EINVAL);
}

}  // namespace
}  // namespace ritas
