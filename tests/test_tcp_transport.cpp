// Real-socket transport tests: mesh setup, framing, HMAC integrity,
// session handshakes, anti-replay counters, oversize protection,
// adversarial wire peers, concurrent traffic.
#include "net/tcp_transport.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <map>
#include <mutex>
#include <set>
#include <thread>

#include "common/serialize.h"
#include "net_helpers.h"

namespace ritas::net {
namespace {

using test::free_ports;
using test::local_peers;
using test::RawPeer;

struct Node {
  std::unique_ptr<KeyChain> keys;
  std::unique_ptr<TcpTransport> transport;
  std::thread thread;
  std::mutex mutex;
  std::vector<std::pair<ProcessId, Bytes>> received;
  std::atomic<bool> stop{false};
  std::atomic<bool> started{false};
  std::atomic<bool> start_failed{false};

  /// start() needs only a partial mesh, so a node must begin polling the
  /// moment its own start() returns — peers below threshold depend on it
  /// to finish their in-flight handshakes.
  void start_and_run() {
    try {
      transport->start();
      started.store(true);
    } catch (const std::exception&) {
      start_failed.store(true);
      return;
    }
    while (!stop.load()) transport->poll_once(20);
  }
  std::size_t count() {
    std::lock_guard<std::mutex> lock(mutex);
    return received.size();
  }
};

std::unique_ptr<Node> make_node(std::uint32_t n, ProcessId p,
                                const std::vector<PeerAddr>& peers,
                                const Bytes& master, bool authenticate = true,
                                int connect_timeout_ms = 15'000) {
  auto node = std::make_unique<Node>();
  node->keys = std::make_unique<KeyChain>(KeyChain::deal(master, n, p));
  TcpTransport::Options o;
  o.n = n;
  o.self = p;
  o.peers = peers;
  o.authenticate = authenticate;
  o.connect_timeout_ms = connect_timeout_ms;
  node->transport = std::make_unique<TcpTransport>(o, *node->keys);
  Node* raw = node.get();
  raw->transport->set_sink([raw](ProcessId from, Slice frame) {
    std::lock_guard<std::mutex> lock(raw->mutex);
    raw->received.emplace_back(from, frame.to_bytes());
  });
  return node;
}

bool wait_until(const std::function<bool()>& cond, int timeout_ms = 5000) {
  for (int waited = 0; waited < timeout_ms; waited += 5) {
    if (cond()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return cond();
}

/// Spins up an n-node mesh on localhost; each node starts and polls in its
/// own thread.
class Mesh {
 public:
  explicit Mesh(std::uint32_t n, bool authenticate = true,
                const Bytes& master = to_bytes("mesh-master")) {
    const auto ports = free_ports(n);
    const auto peers = local_peers(ports);
    nodes_.resize(n);
    for (std::uint32_t p = 0; p < n; ++p) {
      nodes_[p] = make_node(n, p, peers, master, authenticate);
      nodes_[p]->thread =
          std::thread([raw = nodes_[p].get()] { raw->start_and_run(); });
    }
    for (auto& node : nodes_) {
      if (!wait_until([&] { return node->started.load() || node->start_failed.load(); },
                      20'000) ||
          node->start_failed.load()) {
        throw std::runtime_error("Mesh: node failed to start");
      }
    }
  }

  ~Mesh() {
    for (auto& node : nodes_) {
      node->stop.store(true);
      node->transport->wakeup();
    }
    for (auto& node : nodes_) {
      if (node->thread.joinable()) node->thread.join();
      node->transport->stop();
    }
  }

  Node& node(std::uint32_t p) { return *nodes_[p]; }

  bool wait_for(std::uint32_t p, std::size_t count, int timeout_ms = 5000) {
    return wait_until([&] { return node(p).count() >= count; }, timeout_ms);
  }

 private:
  std::vector<std::unique_ptr<Node>> nodes_;
};

TEST(TcpTransport, MeshDeliversFrames) {
  Mesh mesh(4);
  mesh.node(0).transport->send(1, to_bytes("zero to one"));
  mesh.node(3).transport->send(1, to_bytes("three to one"));
  ASSERT_TRUE(mesh.wait_for(1, 2));
  std::lock_guard<std::mutex> lock(mesh.node(1).mutex);
  std::set<std::string> got;
  for (auto& [from, frame] : mesh.node(1).received) {
    got.insert(to_string(frame));
  }
  EXPECT_TRUE(got.contains("zero to one"));
  EXPECT_TRUE(got.contains("three to one"));
}

TEST(TcpTransport, FifoPerPair) {
  Mesh mesh(4);
  for (int i = 0; i < 200; ++i) {
    mesh.node(2).transport->send(0, Bytes{static_cast<std::uint8_t>(i)});
  }
  ASSERT_TRUE(mesh.wait_for(0, 200));
  std::lock_guard<std::mutex> lock(mesh.node(0).mutex);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(mesh.node(0).received[static_cast<std::size_t>(i)].second[0], i);
  }
}

TEST(TcpTransport, LargeFrames) {
  Mesh mesh(4);
  const Bytes big(2 * 1024 * 1024, 0xab);
  mesh.node(0).transport->send(2, Bytes(big));
  ASSERT_TRUE(mesh.wait_for(2, 1, 15000));
  std::lock_guard<std::mutex> lock(mesh.node(2).mutex);
  EXPECT_EQ(mesh.node(2).received[0].second, big);
}

TEST(TcpTransport, WorksWithoutAuthentication) {
  Mesh mesh(4, /*authenticate=*/false);
  mesh.node(1).transport->send(0, to_bytes("plain"));
  ASSERT_TRUE(mesh.wait_for(0, 1));
}

TEST(TcpTransport, LinkStatesReachFullMesh) {
  Mesh mesh(4);
  for (std::uint32_t p = 0; p < 4; ++p) {
    ASSERT_TRUE(wait_until(
        [&] { return mesh.node(p).transport->links_up() == 3; }, 10'000))
        << "node " << p << " never completed its mesh";
    const auto states = mesh.node(p).transport->link_states();
    ASSERT_EQ(states.size(), 4u);
    for (std::uint32_t q = 0; q < 4; ++q) {
      EXPECT_EQ(states[q], LinkState::kUp) << "p=" << p << " q=" << q;
    }
  }
}

TEST(TcpTransport, MismatchedKeysCannotJoinTheMesh) {
  // Node 3 holds a different master secret. With authenticated session
  // handshakes it can never bring up a single link: every REPLY it
  // receives fails its MAC check. The good nodes reach their partial-mesh
  // threshold among themselves and traffic flows normally.
  const auto ports = free_ports(4);
  const auto peers = local_peers(ports);
  std::vector<std::unique_ptr<Node>> nodes(4);
  for (std::uint32_t p = 0; p < 4; ++p) {
    const Bytes master = p == 3 ? to_bytes("evil") : to_bytes("good");
    nodes[p] = make_node(4, p, peers, master, /*authenticate=*/true,
                         /*connect_timeout_ms=*/p == 3 ? 1500 : 15'000);
    nodes[p]->thread = std::thread([raw = nodes[p].get()] { raw->start_and_run(); });
  }
  for (std::uint32_t p = 0; p < 3; ++p) {
    ASSERT_TRUE(wait_until([&] { return nodes[p]->started.load(); }, 20'000));
  }
  // The imposter's start() must time out below threshold, never connect.
  ASSERT_TRUE(wait_until([&] { return nodes[3]->start_failed.load(); }, 20'000));
  EXPECT_EQ(nodes[3]->transport->links_up(), 0u);
  EXPECT_GE(nodes[3]->transport->stats().handshake_failures, 1u);

  nodes[1]->transport->send(0, to_bytes("legit"));
  ASSERT_TRUE(wait_until([&] { return nodes[0]->count() >= 1; }));
  {
    std::lock_guard<std::mutex> lock(nodes[0]->mutex);
    ASSERT_EQ(nodes[0]->received.size(), 1u);
    EXPECT_EQ(to_string(nodes[0]->received[0].second), "legit");
    EXPECT_EQ(nodes[0]->received[0].first, 1u);
  }

  for (auto& node : nodes) {
    node->stop.store(true);
    node->transport->wakeup();
  }
  for (auto& node : nodes) {
    node->thread.join();
    node->transport->stop();
  }
}

TEST(TcpTransport, StatsCountTraffic) {
  Mesh mesh(4);
  mesh.node(0).transport->send(1, to_bytes("counted"));
  ASSERT_TRUE(mesh.wait_for(1, 1));
  // The sender counts a frame after its sendmsg returns, which can trail
  // the peer's delivery of that frame (docs/OBSERVABILITY.md).
  wait_until([&] { return mesh.node(0).transport->stats().frames_sent > 0; });
  EXPECT_EQ(mesh.node(0).transport->stats().frames_sent, 1u);
  EXPECT_GT(mesh.node(0).transport->stats().bytes_sent, 7u);
  EXPECT_EQ(mesh.node(1).transport->stats().frames_received, 1u);
}

TEST(TcpTransport, SendToSelfOrOutOfRangeIgnored) {
  Mesh mesh(4);
  mesh.node(0).transport->send(0, to_bytes("self"));
  mesh.node(0).transport->send(99, to_bytes("nowhere"));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(mesh.node(0).transport->stats().frames_sent, 0u);
}

TEST(TcpTransport, ConcurrentSendersToOneReceiver) {
  Mesh mesh(4);
  constexpr int kPer = 100;
  std::vector<std::thread> senders;
  for (std::uint32_t p = 1; p < 4; ++p) {
    senders.emplace_back([&mesh, p] {
      for (int i = 0; i < kPer; ++i) {
        Writer w;
        w.u32(p);
        w.u32(static_cast<std::uint32_t>(i));
        mesh.node(p).transport->send(0, std::move(w).take());
      }
    });
  }
  for (auto& t : senders) t.join();
  ASSERT_TRUE(mesh.wait_for(0, 3 * kPer, 15000));
  // Per-sender FIFO even with interleaving.
  std::lock_guard<std::mutex> lock(mesh.node(0).mutex);
  std::map<ProcessId, std::uint32_t> next;
  for (auto& [from, frame] : mesh.node(0).received) {
    Reader r(frame);
    const std::uint32_t claimed_from = r.u32();
    const std::uint32_t seq = r.u32();
    EXPECT_EQ(claimed_from, from);
    EXPECT_EQ(seq, next[from]++);
  }
}

TEST(TcpTransport, ConcurrentSendersExerciseTheAnyThreadContract) {
  // The documented threading contract: send() is callable from ANY number
  // of threads concurrently, racing the poll thread, with per-link FIFO
  // preserved. Several app threads send to the same destination AND to
  // distinct ones while the mesh's poll threads run — under ASan/TSan this
  // is the focused race test for the per-Conn mutex.
  Mesh mesh(4);
  constexpr int kPer = 150;
  constexpr int kThreadsPerNode = 2;
  std::vector<std::thread> senders;
  for (std::uint32_t p = 1; p < 4; ++p) {
    for (int t = 0; t < kThreadsPerNode; ++t) {
      senders.emplace_back([&mesh, p, t] {
        for (int i = 0; i < kPer; ++i) {
          Writer w;
          w.u32(p * 16 + static_cast<std::uint32_t>(t));
          w.u32(static_cast<std::uint32_t>(i));
          mesh.node(p).transport->send(0, std::move(w).take());
          // Cross-traffic to a second destination from the same threads.
          mesh.node(p).transport->send(p == 1 ? 2 : 1, to_bytes("x"));
        }
      });
    }
  }
  for (auto& s : senders) s.join();
  ASSERT_TRUE(mesh.wait_for(0, 3 * kThreadsPerNode * kPer, 20'000));
  // Per (sender thread) FIFO: each stream's sequence numbers arrive
  // monotonically even though streams interleave arbitrarily.
  std::lock_guard<std::mutex> lock(mesh.node(0).mutex);
  std::map<std::uint32_t, std::uint32_t> next;
  for (auto& [from, frame] : mesh.node(0).received) {
    Reader r(frame);
    const std::uint32_t stream = r.u32();
    const std::uint32_t seq = r.u32();
    EXPECT_EQ(stream / 16, from);
    EXPECT_EQ(seq, next[stream]++);
  }
}

// --- adversarial wire peers ------------------------------------------------
// A lone victim node (n=2, self=0: partial-mesh threshold 1, no dials) and
// a RawPeer that speaks the wire protocol directly as process 1, holding
// the real pairwise key — the strongest position short of full compromise.

struct Victim {
  std::unique_ptr<Node> node;
  std::uint16_t port;
  Bytes peer_key;  // s_01, as the dealer would hand it to process 1

  Victim() {
    const auto ports = free_ports(2);
    const auto peers = local_peers(ports);
    port = ports[0];
    node = make_node(2, 0, peers, to_bytes("victim-master"));
    const KeyChain peer_chain = KeyChain::deal(to_bytes("victim-master"), 2, 1);
    peer_key.assign(peer_chain.key(0).begin(), peer_chain.key(0).end());
    node->thread = std::thread([raw = node.get()] { raw->start_and_run(); });
  }

  ~Victim() {
    node->stop.store(true);
    node->transport->wakeup();
    node->thread.join();
    node->transport->stop();
  }

  TcpTransport::Stats stats() const { return node->transport->stats(); }
};

TEST(TcpTransportAdversarial, TamperedMacIsCountedDrop) {
  Victim v;
  RawPeer peer(v.port, 1, 0, v.peer_key);
  peer.connect();
  ASSERT_TRUE(peer.handshake(/*nonce_d=*/0x1111));
  ASSERT_TRUE(wait_until([&] { return v.node->transport->links_up() == 1; }));

  peer.send_frame(0, to_bytes("good frame"));
  ASSERT_TRUE(wait_until([&] { return v.node->count() >= 1; }));

  // Flip one MAC bit on an otherwise valid frame: dropped and counted,
  // never delivered, never fatal to the session.
  Bytes forged = peer.make_frame(peer.sid(), 1, to_bytes("evil frame"));
  forged.back() ^= 0x01;
  peer.send_raw(forged);
  ASSERT_TRUE(wait_until([&] { return v.stats().mac_failures >= 1; }));

  // Same counter, honest MAC: the tampered frame must not have consumed it.
  peer.send_frame(1, to_bytes("still good"));
  ASSERT_TRUE(wait_until([&] { return v.node->count() >= 2; }));
  std::lock_guard<std::mutex> lock(v.node->mutex);
  EXPECT_EQ(to_string(v.node->received[0].second), "good frame");
  EXPECT_EQ(to_string(v.node->received[1].second), "still good");
}

TEST(TcpTransportAdversarial, TamperedMacInABurstDropsInPlace) {
  Victim v;
  RawPeer peer(v.port, 1, 0, v.peer_key);
  peer.connect();
  ASSERT_TRUE(peer.handshake(0x7777));

  // One TCP burst: good c0, tampered c1, good c2..c9. The bad frame is a
  // counted drop in place; every later frame still delivers, in order.
  Bytes burst = peer.make_frame(peer.sid(), 0, to_bytes("g0"));
  Bytes forged = peer.make_frame(peer.sid(), 1, to_bytes("evil"));
  forged.back() ^= 0x01;
  append(burst, forged);
  for (std::uint64_t c = 2; c < 10; ++c) {
    append(burst, peer.make_frame(peer.sid(), c, to_bytes("g" + std::to_string(c))));
  }
  peer.send_raw(burst);

  ASSERT_TRUE(wait_until([&] { return v.node->count() >= 9; }));
  EXPECT_EQ(v.stats().mac_failures, 1u);
  std::lock_guard<std::mutex> lock(v.node->mutex);
  ASSERT_EQ(v.node->received.size(), 9u);
  EXPECT_EQ(to_string(v.node->received[0].second), "g0");
  for (std::uint64_t c = 2; c < 10; ++c) {
    EXPECT_EQ(to_string(v.node->received[c - 1].second), "g" + std::to_string(c));
  }
}

TEST(TcpTransportAdversarial, OldSessionReplayIsRejected) {
  Victim v;
  RawPeer peer(v.port, 1, 0, v.peer_key);
  peer.connect();
  ASSERT_TRUE(peer.handshake(0x2222));
  const Bytes session_a_frame = peer.make_frame(peer.sid(), 0, to_bytes("pay"));
  peer.send_raw(session_a_frame);
  ASSERT_TRUE(wait_until([&] { return v.node->count() >= 1; }));
  const std::uint64_t sid_a = peer.sid();

  // New session: fresh nonces must yield a fresh session id.
  peer.connect();
  ASSERT_TRUE(peer.handshake(0x3333));
  EXPECT_NE(peer.sid(), sid_a);
  EXPECT_EQ(peer.acked(), 1u) << "REPLY should carry the victim's floor";

  // Replaying the old session's bytes — a valid MAC under a stale session
  // id — must be rejected without touching the counter floor or crashing.
  peer.send_raw(session_a_frame);
  ASSERT_TRUE(wait_until([&] { return v.stats().session_rejects >= 1; }));
  EXPECT_EQ(v.node->count(), 1u) << "replay must not deliver twice";

  // The new session continues from the resynced floor.
  peer.send_frame(peer.acked(), to_bytes("fresh"));
  ASSERT_TRUE(wait_until([&] { return v.node->count() >= 2; }));
  std::lock_guard<std::mutex> lock(v.node->mutex);
  EXPECT_EQ(to_string(v.node->received[1].second), "fresh");
}

TEST(TcpTransportAdversarial, StaleCounterFloodIsDropped) {
  Victim v;
  RawPeer peer(v.port, 1, 0, v.peer_key);
  peer.connect();
  ASSERT_TRUE(peer.handshake(0x4444));
  for (std::uint64_t c = 0; c < 3; ++c) {
    peer.send_frame(c, to_bytes("frame"));
  }
  ASSERT_TRUE(wait_until([&] { return v.node->count() >= 3; }));

  // Flood with frames below the floor: valid session, valid MACs, stale
  // counters. Every one is a counted replay drop; none delivers.
  for (int i = 0; i < 20; ++i) peer.send_frame(0, to_bytes("flood"));
  ASSERT_TRUE(wait_until([&] { return v.stats().replay_drops >= 20; }));
  EXPECT_EQ(v.node->count(), 3u);
  EXPECT_EQ(v.stats().frames_received, 3u);

  // And the session still works.
  peer.send_frame(3, to_bytes("after flood"));
  ASSERT_TRUE(wait_until([&] { return v.node->count() >= 4; }));
}

TEST(TcpTransportAdversarial, MalformedHandshakesAreCountedAndContained) {
  Victim v;
  // A healthy session first, so we can prove the garbage never hurt it.
  RawPeer good(v.port, 1, 0, v.peer_key);
  good.connect();
  ASSERT_TRUE(good.handshake(0x5555));

  const auto hello = [&](std::uint32_t magic, std::uint8_t version,
                         std::uint8_t flags, std::uint32_t id) {
    Writer w(18);
    w.u32(magic);
    w.u8(version);
    w.u8(flags);
    w.u32(id);
    w.u64(0xdead);
    return std::move(w).take();
  };
  const std::vector<Bytes> bad_hellos = {
      hello(0x00000000, 2, 1, 1),  // wrong magic
      hello(0x52495441, 1, 1, 1),  // stale wire version
      hello(0x52495441, 2, 0, 1),  // authentication flag mismatch
      hello(0x52495441, 2, 1, 0),  // claims the victim's own id
      hello(0x52495441, 2, 1, 7),  // id outside the group
  };
  std::uint64_t expected = v.stats().handshake_failures;
  for (const Bytes& h : bad_hellos) {
    RawPeer garbage(v.port, 1, 0, v.peer_key);
    garbage.connect();
    garbage.send_raw(h);
    ++expected;
    ASSERT_TRUE(wait_until([&] { return v.stats().handshake_failures >= expected; }))
        << "hello variant not counted";
  }

  // A CONFIRM forged without key knowledge must not bind (and must not
  // displace the healthy session either — it keeps delivering).
  {
    RawPeer outsider(v.port, 1, 0, Bytes(32, 0xee));  // wrong key
    outsider.connect();
    EXPECT_TRUE(outsider.handshake(0x6666));  // REPLY arrives; CONFIRM is forged
    ++expected;
    ASSERT_TRUE(wait_until([&] { return v.stats().handshake_failures >= expected; }));
  }
  good.send_frame(0, to_bytes("unharmed"));
  ASSERT_TRUE(wait_until([&] { return v.node->count() >= 1; }));
  std::lock_guard<std::mutex> lock(v.node->mutex);
  EXPECT_EQ(to_string(v.node->received[0].second), "unharmed");
}

TEST(TcpTransport, DialBeforePeerStartsNeverBacksOff) {
  // Every transport listens from construction, so node 3 dialing peers
  // whose start() runs 50 ms later lands in their accept backlog: no
  // refused connect, no failed attempt, no backoff. A failed dial would
  // trace a kLinkDown (sid 0) at the dialer.
  const auto peers = local_peers(free_ports(4));
  std::vector<std::unique_ptr<Tracer>> tracers;  // outlive the transports
  std::vector<std::unique_ptr<Node>> nodes;
  for (ProcessId p = 0; p < 4; ++p) {
    nodes.push_back(make_node(4, p, peers, to_bytes("listen-early")));
    tracers.push_back(std::make_unique<Tracer>(p));
    nodes[p]->transport->set_tracer(tracers[p].get());
  }
  nodes[3]->thread = std::thread([raw = nodes[3].get()] { raw->start_and_run(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  for (ProcessId p = 0; p < 3; ++p) {
    nodes[p]->thread = std::thread([raw = nodes[p].get()] { raw->start_and_run(); });
  }
  const bool meshed = wait_until(
      [&] {
        for (auto& node : nodes) {
          if (node->transport->links_up() != 3) return false;
        }
        return true;
      },
      20'000);
  for (auto& node : nodes) {
    node->stop.store(true);
    node->transport->wakeup();
  }
  // Join every poller before closing any socket: a peer still polling
  // would trace the teardown as a kLinkDown.
  for (auto& node : nodes) node->thread.join();
  for (auto& node : nodes) node->transport->stop();
  ASSERT_TRUE(meshed);
  for (ProcessId p = 0; p < 4; ++p) {
    EXPECT_FALSE(nodes[p]->start_failed.load()) << "p" << p;
    std::size_t ups = 0;
    for (const TraceEvent& e : tracers[p]->events()) {
      EXPECT_NE(e.kind, TraceEventKind::kLinkDown)
          << "p" << p << " dialer backed off on link to p" << e.peer;
      if (e.kind == TraceEventKind::kLinkUp) ++ups;
    }
    EXPECT_EQ(ups, 3u) << "p" << p;
  }
}

TEST(TcpTransport, StoppedPeerCountsAsPeerClosedNotAFault) {
  // Node 3 stops while nodes 1 and 2 keep sending to everyone. Node 0's
  // next data sendmsg to it fails with a reset: that is teardown, counted
  // in peer_closed, and no survivor sees a MAC failure.
  Mesh mesh(4);
  ASSERT_TRUE(wait_until(
      [&] {
        for (ProcessId p = 0; p < 4; ++p) {
          if (mesh.node(p).transport->links_up() != 3) return false;
        }
        return true;
      },
      20'000));
  std::atomic<bool> sending{true};
  std::vector<std::thread> senders;
  for (ProcessId p : {1u, 2u}) {
    senders.emplace_back([&mesh, &sending, p] {
      while (sending.load()) {
        for (ProcessId q = 0; q < 4; ++q) {
          mesh.node(p).transport->send(q, to_bytes("background"));
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
  }
  const auto halt = [](Node& node) {
    node.stop.store(true);
    node.transport->wakeup();
    node.thread.join();
  };
  Node& victim = mesh.node(3);
  Node& survivor = mesh.node(0);
  // Node 3 stops reading, so this frame stays unread in its socket and its
  // close() resets the stream instead of ending it with a FIN.
  halt(victim);
  const std::uint64_t sent = survivor.transport->stats().frames_sent;
  survivor.transport->send(3, to_bytes("unread"));
  ASSERT_TRUE(wait_until(
      [&] { return survivor.transport->stats().frames_sent > sent; }));
  // Hold node 0's poll thread across the close so its next cycle meets the
  // reset on the send path (top-of-cycle drain) before any read.
  halt(survivor);
  victim.transport->stop();
  survivor.transport->send(3, to_bytes("after close"));
  survivor.stop.store(false);
  survivor.thread = std::thread([&survivor] {
    while (!survivor.stop.load()) survivor.transport->poll_once(20);
  });
  EXPECT_TRUE(wait_until(
      [&] { return survivor.transport->stats().peer_closed >= 1; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  sending.store(false);
  for (auto& t : senders) t.join();
  for (ProcessId p = 0; p < 3; ++p) {
    EXPECT_EQ(mesh.node(p).transport->stats().mac_failures, 0u) << "p" << p;
  }
}

}  // namespace
}  // namespace ritas::net
