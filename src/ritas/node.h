// ritas::Node — one process's real-TCP runtime, shared by the session
// fronts built on it (ritas::Context: one group behind the paper's API;
// ritas::ShardedNode: G KV shards over one mesh).
//
// A Node owns everything that does not depend on the front: the pairwise
// keychain dealt from the master secret, the TcpTransport (listening from
// construction), the poll thread and the task lane that carries
// application calls onto it. The front owns its stacks and protocol roots,
// registers one pump per group with serve(), and hands start() the sink
// for inbound frames.
//
// Thread ownership map:
//   poll thread  — sockets, link state machines, the inbound sink (and so
//                  every stack's on_packet), every posted task and every
//                  pump; one thread per node, as in the paper (§3).
//                  Until start() returns, the thread calling it polls
//                  the mesh and plays this role.
//   app threads  — post()/run(), stats, waits
//
// Protocol work therefore always runs on exactly one thread, the
// invariant every stack is built on.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

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
    bool authenticate = true;  // HMAC frames (the "IPSec" switch)
    /// start() returns once this many links are up (0 = auto: n - f - 1);
    /// the remaining links keep dialing in the background and heal through
    /// the transport's backoff/reconnect machinery.
    std::uint32_t min_start_links = 0;
    /// Transport send batching (TcpTransport::Options::batch_sends): when
    /// on, send() stages frames and the poll thread flushes a whole queue
    /// per sendmsg; when off, every send drains inline (one syscall per
    /// frame). Local-only — changes no wire bytes.
    bool transport_batch = true;
    std::uint64_t rng_seed = 0;  // 0 = seed from std::random_device
  };

  using Sink = std::function<void(ProcessId from, Slice frame)>;

  /// Throws std::invalid_argument, prefixed with `who`, on an inconsistent
  /// membership (n < 4, i.e. n < 3f+1 for f >= 1; self >= n;
  /// peers.size() != n).
  static void validate(const std::string& who, const Options& opts);

  /// Validates `opts`, deals the keychain and binds the listen socket, so
  /// a wrong membership never reaches the mesh layer.
  Node(std::string who, const Options& opts);
  ~Node();
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Registers a group's pump, run on the poll thread after every batch
  /// of frames and tasks (stack->pump() plus any safe-point housekeeping).
  /// Call before start().
  void serve(std::function<void()> pump);

  /// Installs `sink` for inbound frames (called on the poll thread), dials
  /// the mesh (blocks until min_start_links links are up), starts the poll
  /// thread and returns after its first cycle.
  void start(Sink sink);
  /// Stops the poll thread — tasks already posted still run — then closes
  /// every socket. Returns false (and does nothing) when the node was not
  /// running.
  bool stop();
  bool running() const { return running_.load(); }

  /// Runs `fn` on the poll thread; callable from any thread.
  void post(std::function<void()> fn);
  /// post() and wait; an exception thrown by `fn` is rethrown here.
  /// Throws std::logic_error when the node is not running.
  void run(std::function<void()> fn);

  const KeyChain& keys() const { return keys_; }
  net::TcpTransport& transport() { return *transport_; }
  const net::TcpTransport& transport() const { return *transport_; }
  /// The session seed: Options::rng_seed, or a random one when that is 0.
  std::uint64_t seed() const { return seed_; }

 private:
  void poll_loop();
  /// Runs every queued task, then every pump.
  void drain_tasks();

  std::string who_;
  KeyChain keys_;
  std::uint64_t seed_;
  std::unique_ptr<net::TcpTransport> transport_;
  std::vector<std::function<void()>> pumps_;

  std::atomic<bool> running_{false};
  std::mutex tasks_mutex_;
  std::deque<std::function<void()>> tasks_;
  std::thread poll_thread_;
};

}  // namespace ritas
