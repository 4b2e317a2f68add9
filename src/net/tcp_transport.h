// Real-socket transport: the paper's "TCP + IPSec AH" reliable channel,
// made self-healing.
//
// Every pair of processes is connected by one TCP stream (the higher id
// dials, the lower id accepts). TCP supplies reliability and FIFO while a
// connection lives; frame integrity and sender authentication come from an
// HMAC-SHA-256 trailer keyed with the pairwise secret, with the session id
// and a strictly increasing per-direction counter bound into the MAC
// (anti-replay) — the modern stand-in for the AH protocol the paper used.
//
// Unlike the paper's idealized channel, real links fail. Each link runs a
// small state machine (down / connecting / up / backoff, `net/link.h`):
// a lost connection moves the dialer into jittered exponential backoff and
// automatic redial, and every (re)connection performs an authenticated
// nonce handshake that derives a fresh session id and exchanges receive
// counters so the sender can retransmit exactly the frames the peer never
// got (counter resync). Frames from an old session are replay-dropped by
// session id, never accepted. While a link is down, sends land in a
// bounded per-link retained-frame queue (drop-oldest; drops of frames that
// never reached a socket are counted). `start()` needs only a partial mesh
// (>= n-f-1 links) to return; the rest keep dialing in the background.
// Wire formats: docs/PROTOCOLS.md "Reliable channel".
//
// Event loop: one epoll_wait (level-triggered) drives readiness for every
// link, the listen socket, pending accepts and the wakeup pipe; write
// interest (EPOLLOUT) is registered only while a link actually has queued
// output, and the reconnect/backoff + handshake deadlines fold into the
// wait timeout via the deterministic `Link` timeline. Linux only.
//
// Send fast path: frames enqueue onto the link's retained queue and a
// drain gathers consecutive ready frames into ONE sendmsg() of
// {header, shared body, MAC trailer} iovec triplets (net/batch_writer.h),
// bounded by IOV_MAX and Options::max_batch_bytes, resuming byte-exactly
// after short writes that land mid-header/mid-body/mid-MAC. Batching
// changes syscall counts only — the wire bytes are identical to the
// one-write-per-frame path (the framing is self-delimiting), and zero
// payload bytes are copied to assemble a batch (Stats::batch_copy_bytes,
// CI-gated at 0).
//
// Threading contract:
//   * send() may be called from ANY number of threads concurrently. Each
//     link's counter assignment, retained-queue update, and (with
//     batch_sends off) socket write happen under that link's Conn mutex,
//     so concurrent senders serialize per link: frames from one sender
//     thread keep their relative order, and the per-link counter sequence
//     is gap-free.
//     tests/test_tcp_transport.cpp (ConcurrentSenders*) enforces this
//     under ASan/TSan.
//   * Receiving and all link management happen in poll_once(), which the
//     owner (one thread — see ritas::Node) calls in its loop. Frames are
//     MAC-verified and handed to the sink inline from poll_once. With
//     batch_sends on, the poll thread also performs the batched drains
//     (senders only MAC, enqueue and wake it).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"
#include "common/trace.h"
#include "core/transport.h"
#include "crypto/keychain.h"
#include "crypto/sha256.h"
#include "net/frame_reassembler.h"
#include "net/link.h"

namespace ritas::net {

struct PeerAddr {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

/// RAII file descriptor.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }
  Fd(Fd&& o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
  Fd& operator=(Fd&& o) noexcept;
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void reset();

 private:
  int fd_ = -1;
};

class TcpTransport final : public Transport {
 public:
  struct Options {
    std::uint32_t n = 4;
    ProcessId self = 0;
    std::vector<PeerAddr> peers;  // size n; peers[self] = own listen address
    bool authenticate = true;     // HMAC frames + handshake (the "IPSec" switch)
    std::size_t max_frame = 16u << 20;
    int connect_timeout_ms = 15'000;
    /// start() returns once this many links are up; 0 = auto (n - f - 1,
    /// f = (n-1)/3): enough links that the local stack can make protocol
    /// progress while stragglers keep dialing in the background.
    std::uint32_t min_start_links = 0;
    /// Per-link retained-frame budget: recent frames kept for counter
    /// resync and frames queued while the link is down. Overflow drops the
    /// oldest; drops of frames that never reached a socket count in
    /// Stats::queue_drops.
    std::size_t send_queue_max_bytes = 8u << 20;
    /// Reconnect schedule (jittered exponential, see net/link.h).
    BackoffOptions backoff;
    /// Session handshakes must finish within this budget or the attempt is
    /// abandoned (and, on the dialer side, retried after backoff).
    int handshake_timeout_ms = 5'000;
    /// Seeds handshake nonces and backoff jitter; 0 = std::random_device.
    /// Tests pin it to make reconnect timelines reproducible.
    std::uint64_t rng_seed = 0;
    /// Batch sends per syscall: send() only MACs and enqueues, and the
    /// poll thread drains each link's backlog into multi-frame sendmsg()
    /// calls. Off = send() drains inline from the calling thread, one
    /// frame per syscall when the link is idle. The wire bytes are
    /// identical either way.
    bool batch_sends = true;
    /// Soft byte cap per batched sendmsg(); at least one frame is always
    /// offered (so 0 degenerates to one frame per syscall). IOV_MAX caps
    /// the iovec count independently.
    std::size_t max_batch_bytes = 256u << 10;
  };

  struct Stats {
    std::uint64_t frames_sent = 0;         // frames written to a socket
    std::uint64_t frames_received = 0;     // frames accepted and delivered
    std::uint64_t frames_retransmitted = 0;  // re-writes after counter resync
    std::uint64_t bytes_sent = 0;
    std::uint64_t mac_failures = 0;     // frame MAC mismatch (current session)
    std::uint64_t replay_drops = 0;     // counter below the expected floor
    std::uint64_t session_rejects = 0;  // frame tagged with a stale session id
    std::uint64_t counter_gaps = 0;     // frames skipped by a forward jump
    std::uint64_t oversize_drops = 0;
    std::uint64_t queue_drops = 0;        // never-sent frames evicted by the cap
    std::uint64_t link_reconnects = 0;    // handshakes that revived a dead link
    std::uint64_t handshake_failures = 0; // malformed/unauthentic handshakes
    std::uint64_t sendmsg_calls = 0;   // batched data-frame sendmsg() syscalls
    std::uint64_t bytes_to_kernel = 0; // bytes those syscalls moved (partial
                                       // frames included as they progress)
    std::uint64_t batch_copy_bytes = 0;  // payload bytes memcpy'd to assemble
                                         // a batch; the scatter-gather path
                                         // keeps this 0 (CI-gated)
    std::uint64_t peer_closed = 0;  // data sendmsg() failures with
                                    // ECONNRESET/EPIPE: the peer closed
    /// Frames per data sendmsg(): > 1 means batching is amortizing
    /// syscalls; 1.0 is the one-write-per-frame floor.
    double frames_per_syscall() const {
      return sendmsg_calls == 0
                 ? 0.0
                 : static_cast<double>(frames_sent) /
                       static_cast<double>(sendmsg_calls);
    }
  };

  /// Fault-injection hook for the churn tests: forcibly breaks the live
  /// connection to `peer`.
  enum class KillMode {
    kRst,        // SO_LINGER(0) + close: peer sees ECONNRESET
    kHalfClose,  // shutdown(SHUT_WR): peer sees EOF, teardown propagates back
  };

  /// Binds and listens on peers[self] and creates the epoll instance
  /// (throws std::runtime_error if the port is taken), so peers that dial
  /// before this node's start() queue in the accept backlog instead of
  /// being refused into backoff.
  TcpTransport(Options opts, const KeyChain& keys);
  ~TcpTransport() override;

  /// Dials the mesh (higher id connects, lower id accepts; an
  /// authenticated handshake identifies the peer and opens a session) and
  /// accepts the dials queued since construction. Blocks until at least
  /// min_start_links links are up (throws std::runtime_error on timeout);
  /// remaining links keep connecting in the background as long as
  /// poll_once keeps being called.
  void start();
  /// Closes every socket; subsequent sends are dropped silently.
  void stop();

  /// Sink for inbound frames, invoked from poll_once(). Each frame is one
  /// freshly-owned Buffer copied out of the stream-reassembly window (the
  /// single boundary copy of the receive path); the Slice covers it whole.
  void set_sink(std::function<void(ProcessId from, Slice frame)> sink) {
    sink_ = std::move(sink);
  }

  /// Optional link-event tracing (kLinkUp/kLinkDown/kLinkHandshake; a
  /// dial attempt that fails before its handshake is a kLinkDown with
  /// sid 0 and puts the dialer into backoff). The
  /// tracer is not thread-safe: events are recorded only from the polling
  /// thread, so share a tracer with the stack only when the stack runs on
  /// that same thread (as ritas::Context does).
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  /// Processes pending socket I/O and link-state timers (redials, expired
  /// handshakes); waits up to timeout_ms for activity.
  void poll_once(int timeout_ms);

  /// Wakes a blocked poll_once() from another thread.
  void wakeup();

  /// Enqueues one frame for `to`: assigns the link counter, retains the
  /// refcounted body for counter resync, computes its MAC, and either
  /// drains inline (batch_sends off) or leaves the write to the poll
  /// thread's batched drain. The body is never copied per peer — the
  /// batched sendmsg() points straight at the shared buffer. If the link
  /// is not up the frame stays queued for the next session's resync.
  void send(ProcessId to, Slice frame) override;

  /// Monotonic wall clock for trace timestamps (real transports are
  /// outside the deterministic core, so reading a clock here is fine).
  std::uint64_t now_ns() const override;

  /// Snapshot of every link's state; the self entry reads kUp.
  std::vector<LinkState> link_states() const override;

  /// Number of links currently in LinkState::kUp.
  std::uint32_t links_up() const;

  /// Counter snapshot (fields are updated concurrently; the snapshot is
  /// per-field atomic, not globally consistent).
  Stats stats() const;

  /// Breaks the connection to `peer` (see KillMode). The actual teardown
  /// runs on the polling thread; the link then heals through the normal
  /// backoff/reconnect path. Test-only chaos hook.
  void kill_link(ProcessId peer, KillMode mode);

 private:
  /// Handshake progress for one connection attempt.
  enum class HsPhase : std::uint8_t {
    kIdle,         // no socket
    kDialWait,     // dialer: non-blocking connect() in flight
    kHelloSent,    // dialer: HELLO written, waiting for REPLY
    kWaitConfirm,  // acceptor: REPLY written, waiting for CONFIRM
    kEstablished,  // session open, frames flow
  };

  /// A frame retained for retransmission: queued while the link is down,
  /// or recently written and kept until the next resync confirms receipt.
  /// The header/MAC prep is the stable storage the batched iovec triplet
  /// points at across short-write resumption; prep_sid pins the session it
  /// was built for (a re-handshake invalidates it by changing sid).
  struct Retained {
    std::uint64_t counter;
    Slice frame;
    bool written;      // fully handed to the kernel under the current session
    bool retx;         // rewrite under this session counts as a retransmission
    std::uint64_t prep_sid = 0;    // session the prep below was built for
    std::array<std::uint8_t, FrameReassembler::kHeaderSize> hdr{};
    Sha256::Digest mac_trailer{};
  };

  struct Conn {
    Conn(std::size_t max_frame, bool with_mac) : rx(max_frame, with_mac) {}
    // --- poll-thread-only unless noted ---
    Fd fd;
    HsPhase phase = HsPhase::kIdle;
    Bytes hs_rx;                     // accumulated handshake bytes
    std::uint64_t nonce_local = 0;
    std::uint64_t hs_deadline_ms = 0;
    FrameReassembler rx;             // stream reassembly window
    std::uint64_t rx_expected = 0;   // next counter expected (survives sessions)
    std::unique_ptr<LinkRetry> retry;  // dialed links only (peer < self)
    bool ever_up = false;
    // --- shared with sender threads; guarded by mutex ---
    std::mutex mutex;
    LinkState state = LinkState::kDown;
    std::uint64_t sid = 0;           // current session id (0 = none)
    std::uint64_t tx_next = 0;       // next counter to assign (survives sessions)
    std::deque<Retained> retained;
    std::size_t retained_bytes = 0;
    std::uint64_t tx_write_next = 0; // next counter the drain hands to the kernel
    std::size_t tx_partial = 0;      // bytes of frame tx_write_next already written
    bool tx_blocked = false;         // drain hit a short write: wants EPOLLOUT
    bool broken = false;             // send() hit a write error; poll thread reaps
    std::uint8_t kill_request = 0;   // 1 + KillMode; poll thread executes
  };

  /// An accepted socket working through the session handshake. It does not
  /// touch the peer's Conn slot until the CONFIRM authenticates — an
  /// unauthenticated hello must not be able to displace a healthy link.
  struct PendingAccept {
    Fd fd;
    Bytes rx;
    std::uint64_t deadline_ms = 0;
    bool got_hello = false;
    ProcessId claimed = 0;    // dialer id from the HELLO
    std::uint64_t nonce_d = 0;
    std::uint64_t nonce_a = 0;
  };

  struct Counters;  // atomic mirror of Stats

  std::uint64_t now_ms() const;
  std::uint32_t start_threshold() const;
  bool write_all(int fd, ByteView data);
  /// Builds (or refreshes, after a re-handshake) the entry's header and
  /// MAC for the current session. Caller holds c.mutex.
  void prep_entry(Conn& c, Retained& e, ProcessId to);
  /// Drains consecutive frames from tx_write_next into batched sendmsg()
  /// calls until the backlog is empty or the socket stops taking bytes
  /// (tx_blocked; EPOLLOUT resumes). Caller holds c.mutex.
  void drain_locked(Conn& c, ProcessId to);
  /// Poll thread: drains every up link with pending output.
  void drain_pending();
  void begin_dial(ProcessId peer);
  void on_dial_writable(ProcessId peer);
  void handshake_readable(ProcessId peer);
  void pending_accept_readable(PendingAccept& pa);
  /// Session established: derive sid, resync counters, flush the queue.
  void complete_handshake(ProcessId peer, std::uint64_t nonce_d,
                          std::uint64_t nonce_a, std::uint64_t peer_rx_expected);
  void link_down(ProcessId peer);
  void service_timers();
  void execute_kill(ProcessId peer);
  void handle_readable(ProcessId peer);
  void process_rx(ProcessId peer);
  void trace_link(TraceEventKind kind, ProcessId peer, std::uint64_t arg);
  /// Folds the nearest handshake/backoff/pending-accept deadline into the
  /// caller's timeout so the wait cannot oversleep a timer.
  int fold_timer_deadlines(int timeout_ms);
  /// Readiness dispatch. Owner encoding: -1 wake pipe, -2 listen socket,
  /// -(3+k) pending accept k, else peer id.
  void dispatch_event(std::int64_t owner, bool rin, bool rout, bool rerr);
  bool is_poll_thread() const;
  /// Drops a registration record before closing its fd (the kernel
  /// auto-deregisters on close; forgetting our record keeps a reused fd
  /// number from being mistaken for a still-registered socket).
  void forget_fd(int fd);
  void reset_fd(Fd& fd);
  void wait_with_epoll(int timeout_ms);

  Options opts_;
  const KeyChain& keys_;
  std::function<void(ProcessId, Slice)> sink_;
  Tracer* tracer_ = nullptr;
  std::unique_ptr<Rng> rng_;  // poll-thread-only (nonces)
  Fd listen_fd_;
  Fd wake_rx_, wake_tx_;
  std::vector<std::unique_ptr<Conn>> conns_;  // index = peer id; self unused
  std::vector<PendingAccept> pending_accepts_;
  std::unique_ptr<Counters> counters_;
  std::atomic<bool> stopped_{false};
  std::atomic<std::uint64_t> poll_tid_{0};  // hashed id of the polling thread
  std::uint64_t epoch_ns_ = 0;  // steady_clock origin for now_ms()
  struct EpollReg {
    std::uint32_t events = 0;
    std::int64_t owner = 0;
  };
  Fd epoll_fd_;  // created with the listen socket; poll-thread-only after
  std::unordered_map<int, EpollReg> epoll_regs_;  // poll-thread-only
};

}  // namespace ritas::net
