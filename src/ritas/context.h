// ritas::Context — the application-facing session (the paper's `ritas_t`).
//
// Mirrors the C API of §3.1 in RAII C++: construct with the group
// membership (ritas_init + ritas_proc_add_ipv4), call the service
// functions as often as desired, destroy to tear everything down. Service
// calls follow the paper's blocking semantics:
//
//   rb_bcast / rb_recv     reliable broadcast        (ritas_rb_*)
//   eb_bcast / eb_recv     echo broadcast            (ritas_eb_*)
//   ab_bcast / ab_recv     atomic broadcast          (ritas_ab_*)
//   bc / mvc / vc          propose, block, decide    (ritas_bc/mvc/vc)
//
// The protocol stack runs in a single thread, independent of the
// application thread (§3: "the protocol stack runs in a single thread,
// independent of the application thread"): the poll thread of the shared
// ritas::Node runtime, which also owns the sockets and the stack; the
// Context owns the protocol roots on it. Application calls post
// work to that thread and block on queues (deliveries) or a decision slot
// (consensus).
//
// Instance naming convention (implicit agreement across processes): the
// k-th rb/eb broadcast by origin o is (kRB/kEB, o<<32|k), a child of the
// service root (kRB/kEB, 0) (ritas/broadcast_service.h); consensus calls
// are numbered by call order (all processes must invoke them in the same
// order, as with any consensus API); one atomic broadcast instance
// (kAB, 0) serves the whole session.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <vector>

#include "core/atomic_broadcast.h"
#include "core/stack.h"
#include "ritas/broadcast_service.h"
#include "ritas/node.h"

namespace ritas {

/// Thrown by the blocking receive and consensus calls when the session
/// stops underneath them (stop() or destruction). Derives from std::runtime_error so code
/// written against the v1 API keeps catching it.
class ShutdownError : public std::runtime_error {
 public:
  ShutdownError() : std::runtime_error("ritas::Context stopped") {}
};

class Context {
 public:
  /// Membership, secret, transport and stack knobs come from
  /// Node::Options (ritas/node.h). A session owns its mesh, so its one
  /// stack runs group 0 (the original wire format); several groups on one
  /// mesh is ShardedNode.
  struct Options : Node::Options {
    /// How far an origin's rb (and, separately, eb) broadcasts may run
    /// ahead of the last one delivered here: broadcast k of origin o is
    /// admitted while k < d + recv_window, with d one past the highest k
    /// of o delivered so far; frames further ahead wait out of context
    /// until deliveries catch up. Also bounds the local sender
    /// (rb_bcast/eb_bcast throw std::logic_error beyond it, using up no
    /// k). Instances are created on first reference, not up front.
    std::uint32_t recv_window = 64;
  };

  struct Delivery {
    ProcessId origin;
    Bytes payload;
  };
  struct AbDelivery {
    ProcessId origin;
    std::uint64_t rbid;
    Bytes payload;
  };

  /// Validates `opts` up front — throws std::invalid_argument on a zero
  /// recv_window or on anything Node::validate rejects (an inconsistent
  /// membership, zero batch limits) instead of letting it reach the mesh
  /// layer.
  explicit Context(Options opts);
  ~Context();

  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  /// Establishes the TCP mesh and starts the poll thread. Blocks until at
  /// least Options::min_start_links links are up (default: n - f - 1, the
  /// quorum the stack needs to make progress); stragglers keep connecting
  /// in the background. Frames that arrive meanwhile are already handled
  /// (the atomic broadcast root exists from construction). Call once
  /// before any service function. Throws std::runtime_error when the mesh
  /// times out, or when stop() (from any thread) cuts it short.
  void start();
  /// Ends the session: closes the receive queues (blocked receivers throw
  /// ShutdownError) and stops the poll thread, or a start() still dialing.
  void stop();

  // --- broadcast services -------------------------------------------------
  // Each service offers three receive modes: blocking recv() (the paper's
  // §3.1 semantics), non-blocking try_recv() (nullopt when nothing is
  // queued), and deadline recv_for() (nullopt on timeout). All of them
  // throw ShutdownError once the session has stopped and the queue has
  // drained.
  void rb_bcast(Bytes payload);
  Delivery rb_recv();
  std::optional<Delivery> rb_try_recv();
  std::optional<Delivery> rb_recv_for(std::chrono::milliseconds timeout);
  void eb_bcast(Bytes payload);
  Delivery eb_recv();
  std::optional<Delivery> eb_try_recv();
  std::optional<Delivery> eb_recv_for(std::chrono::milliseconds timeout);
  std::uint64_t ab_bcast(Bytes payload);
  AbDelivery ab_recv();
  std::optional<AbDelivery> ab_try_recv();
  std::optional<AbDelivery> ab_recv_for(std::chrono::milliseconds timeout);

  /// Seals the open atomic-broadcast batch immediately (no-op when
  /// batching is off or nothing is buffered).
  void ab_flush();

  /// Callback mode for atomic broadcast: once subscribed, deliveries are
  /// handed to `fn` on the poll thread (so it must not block or call
  /// back into the Context) instead of being queued for ab_recv().
  /// Deliveries queued before the subscription stay in the queue —
  /// drain them with ab_try_recv(). Subscribe before start() or after;
  /// pass nullptr to return to queue mode.
  using AbSubscriber = std::function<void(AbDelivery)>;
  void ab_subscribe(AbSubscriber fn);

  // --- consensus services -------------------------------------------------
  // Block until this process decides. A wait cut short by stop() throws
  // ShutdownError; a call after stop() throws std::logic_error, like the
  // broadcast services.
  bool bc(bool proposal);
  std::optional<Bytes> mvc(Bytes proposal);
  std::vector<std::optional<Bytes>> vc(Bytes proposal);

  /// Snapshot of the stack's counters (taken on the poll thread).
  Metrics metrics() { return node_.metrics(); }
  net::TcpTransport::Stats transport_stats() const {
    return node_.transport().stats();
  }
  /// Per-peer channel health (self entry reads kUp).
  std::vector<LinkState> link_states() const {
    return node_.transport().link_states();
  }
  /// The underlying transport — fault injection (kill_link) and
  /// link-level probes for tests and operational tooling.
  net::TcpTransport& transport() { return node_.transport(); }
  /// The runtime underneath: its one stack, seed and task lane.
  Node& node() { return node_; }
  ProcessId self() const { return opts_.self; }
  std::uint32_t n() const { return opts_.n; }

 private:
  template <typename T>
  class BlockingQueue {
   public:
    void push(T v) {
      {
        std::lock_guard<std::mutex> lock(m_);
        q_.push_back(std::move(v));
      }
      cv_.notify_one();
    }
    /// Blocks until an element arrives; throws ShutdownError if the queue
    /// is closed and drained (the session stopped).
    T pop() { return *pop_for(std::nullopt); }
    /// Non-blocking: nullopt when nothing is queued. Throws ShutdownError
    /// only once the queue is closed *and* drained.
    std::optional<T> try_pop() { return pop_for(std::chrono::milliseconds(0)); }
    /// Blocks up to `timeout` (nullopt: no limit); nullopt on timeout,
    /// ShutdownError when closed and drained.
    std::optional<T> pop_for(std::optional<std::chrono::milliseconds> timeout) {
      std::unique_lock<std::mutex> lock(m_);
      const auto ready = [this] { return !q_.empty() || closed_; };
      if (timeout) {
        cv_.wait_for(lock, *timeout, ready);
      } else {
        cv_.wait(lock, ready);
      }
      if (q_.empty()) {
        if (closed_) throw ShutdownError();
        return std::nullopt;
      }
      T v = std::move(q_.front());
      q_.pop_front();
      return v;
    }
    void close() {
      {
        std::lock_guard<std::mutex> lock(m_);
        closed_ = true;
      }
      cv_.notify_all();
    }

   private:
    std::mutex m_;
    std::condition_variable cv_;
    std::deque<T> q_;
    bool closed_ = false;
  };

  /// The consensus calls' one path: on the poll thread, numbers the call
  /// among those of `type`, creates its root, proposes and keeps the root
  /// in roots_; then blocks on the root's decision.
  template <typename Root, typename T, typename Proposal>
  T consensus(ProtocolType type, Proposal proposal);

  Options opts_;
  Node node_;

  // Poll-thread-owned protocol state: the session-wide AB and rb/eb
  // service roots, and one root per consensus call, kept for the session
  // (peers may still need our courtesy-round participation).
  std::map<InstanceId, std::unique_ptr<Protocol>> roots_;
  AtomicBroadcast* ab_ = nullptr;
  BroadcastService* rb_ = nullptr;
  BroadcastService* eb_ = nullptr;
  /// Per consensus type, the calls made so far: call k's root is
  /// (type, k).
  std::map<ProtocolType, std::uint64_t> consensus_calls_;

  BlockingQueue<Delivery> rb_rx_, eb_rx_;
  BlockingQueue<AbDelivery> ab_rx_;
  /// Poll-thread-owned after start() (ab_subscribe posts the swap there);
  /// when set, AB deliveries bypass ab_rx_.
  AbSubscriber ab_sub_;
};

}  // namespace ritas
