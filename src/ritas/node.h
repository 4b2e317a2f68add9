// ritas::Node — one process's real-TCP runtime, shared by the session
// fronts built on it (ritas::Context: one group behind the paper's API;
// ritas::ShardedNode: G KV shards over one mesh).
//
// A Node owns everything below the fronts' protocol roots: the pairwise
// keychain dealt from the master secret, the TcpTransport (listening from
// construction), one ProtocolStack per consensus group behind one
// GroupMux (the transport's sink), the poll thread and the task lane that
// carries application calls onto it. It is the TCP twin of one process of
// sim::Cluster: group g's stack draws from stack_seed(seed(), self, g),
// and metrics() sums every group. A front creates its roots on stack(g)
// and owns them.
//
// Thread ownership map:
//   poll thread  — sockets, link state machines, the mux and every
//                  stack's on_packet, every posted task, and after each
//                  drain every stack's pump (the safe point where
//                  protocols free what completed); one thread per node,
//                  as in the paper (§3). Only start()'s first, non-blocking
//                  poll runs on the caller, before the thread exists.
//   app threads  — post()/run(), metrics(), stats, waits
//
// Protocol work therefore always runs on exactly one thread, the
// invariant every stack is built on.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/group_mux.h"
#include "core/metrics.h"
#include "core/stack.h"
#include "crypto/keychain.h"
#include "net/tcp_transport.h"

namespace ritas {

class Node {
 public:
  /// The knobs every front shares; Context::Options and
  /// ShardedNode::Options extend this.
  struct Options {
    std::uint32_t n = 4;
    ProcessId self = 0;
    std::vector<net::PeerAddr> peers;  // one per process, index = id
    /// Shared secret all processes derive pairwise keys from (the trusted
    /// dealer of §2; distribute out of band).
    Bytes master_secret;
    /// start() needs this many links up (0 = auto: n - f - 1; see
    /// TcpTransport::started()); the remaining links keep dialing in the
    /// background and heal through the transport's backoff/reconnect.
    std::uint32_t min_start_links = 0;
    std::uint64_t rng_seed = 0;  // 0 = seed from std::random_device
    /// Template for every group's stack (n/self/group overwritten). Its
    /// protocol switches (ab_batch, variants, coin_mode) change the wire
    /// format, so every correct process must set them identically.
    StackConfig stack;
  };

  /// Throws std::invalid_argument, prefixed with `who`, on an inconsistent
  /// membership (n < 4, i.e. n < 3f+1 for f >= 1; self >= n;
  /// peers.size() != n), zero groups or zero batch limits; an unknown or
  /// incompatible variant selection throws from validate_variants.
  static void validate(const std::string& who, const Options& opts,
                       std::uint32_t groups = 1);

  /// Validates `opts`, deals the keychain, binds the listen socket and
  /// builds `groups` stacks (group g on stack g), so a wrong membership
  /// never reaches the mesh layer.
  Node(std::string who, const Options& opts, std::uint32_t groups = 1);
  ~Node();
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Sends the first dials, hands the transport to the poll thread and
  /// waits until it opens the task lane (TcpTransport::started()). Throws
  /// std::runtime_error when stop() lands first, or after the transport's
  /// connect timeout, which stops the node for good as stop() would.
  void start();
  /// Stops the poll thread — tasks already posted still run — then closes
  /// every socket; a start() still waiting throws, and so does any later
  /// one. Returns false when there was no poll thread to stop.
  bool stop();
  /// True from the moment the task lane opens until stop().
  bool running() const { return lane_ == Lane::kOpen; }

  /// Runs `fn` on the poll thread; callable from any thread. Returns false,
  /// dropping `fn`, while the task lane is not open: until start() sees
  /// the mesh ready, and from stop() on.
  bool post(std::function<void()> fn);
  /// post() and wait; an exception thrown by `fn` is rethrown here.
  /// Throws std::logic_error when post() refuses `fn`.
  void run(std::function<void()> fn);

  const KeyChain& keys() const { return keys_; }
  net::TcpTransport& transport() { return *transport_; }
  const net::TcpTransport& transport() const { return *transport_; }
  /// The session seed: Options::rng_seed, or a random one when that is 0.
  std::uint64_t seed() const { return seed_; }

  std::uint32_t groups() const {
    return static_cast<std::uint32_t>(stacks_.size());
  }
  /// Group g's stack. Poll thread only once start() has been called.
  ProtocolStack& stack(GroupId g = 0) { return *stacks_.at(g); }
  /// Sum of every group's stack counters, taken on the poll thread (so,
  /// like run(), it throws std::logic_error when the node is not running).
  Metrics metrics();

 private:
  void poll_loop();
  /// Runs every queued task, then pumps every stack.
  void drain_tasks();

  std::string who_;
  KeyChain keys_;
  std::uint64_t seed_;
  std::unique_ptr<net::TcpTransport> transport_;
  std::vector<std::unique_ptr<ProtocolStack>> stacks_;  // [group]
  GroupMux mux_;

  std::mutex tasks_mutex_;
  /// The task lane: kIdle until the poll thread sees the mesh ready, then
  /// kOpen; kClosed for good from stop(), which ends the poll loop. Written
  /// under tasks_mutex_, which lane_cv_ waits on for start().
  enum class Lane : std::uint8_t { kIdle, kOpen, kClosed };
  std::atomic<Lane> lane_{Lane::kIdle};
  std::condition_variable lane_cv_;
  std::deque<std::function<void()>> tasks_;
  std::thread poll_thread_;
};

}  // namespace ritas
