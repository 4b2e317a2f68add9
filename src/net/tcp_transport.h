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
// Unlike the paper's idealized channel, real links fail. Each link has
// one state (down / connecting / up / backoff, `Conn::state`): a lost
// connection moves the dialer into jittered exponential backoff
// (`net/link.h` holds the seeded retry schedule) and automatic redial,
// and every (re)connection performs an authenticated nonce handshake that
// derives a fresh session id and exchanges receive counters so the sender
// can retransmit exactly the frames the peer never got (counter resync).
// Frames from an old session are replay-dropped by session id, never
// accepted. While a link is down, sends land in a bounded per-link
// retained-frame queue (drop-oldest; drops of frames that never reached a
// socket are counted). `started()` needs only a partial mesh (>= n-f-1
// links); the rest keep dialing in the background.
// Wire formats: docs/PROTOCOLS.md "Reliable channel".
//
// Handshakes: a dial in flight and an accepted socket are the same
// record, a role-tagged `Handshake` that never touches the peer's `Conn`.
// One reader accumulates and verifies HELLO, REPLY and CONFIRM for both
// roles, every message is written with one non-blocking send(), and every
// failure takes one path (counted in handshake_failures once the TCP
// connection exists; a dialer then backs off). Success always runs
// complete_handshake, which adopts the socket into the `Conn`, so a `Conn`
// socket is always an established session.
//
// Event loop: one epoll_wait (level-triggered) drives readiness for every
// link, the listen socket, handshakes and the wakeup pipe. Interest is set
// where a socket's state changes, never recomputed per cycle: the wake
// pipe and listener once, a dialing socket for EPOLLOUT (connect
// completion), an accepted or HELLO-sent socket for EPOLLIN under its
// handshake's tag, re-tagged with the peer id when its session opens, and
// EPOLLOUT added while a drain is blocked on a full socket and dropped
// once it clears. Closing a socket drops its registration. The
// redial-backoff and handshake deadlines fold into the wait timeout.
// Linux only.
//
// Send fast path: send() only assigns the link counter and retains the
// frame. The drain, at the top and the bottom of every poll_once(), is the
// one place a frame's header and MAC are built (once per session) and
// written: it gathers consecutive ready frames into ONE sendmsg() of
// {header, shared body, MAC trailer} iovec triplets (net/batch_writer.h),
// bounded by IOV_MAX and a 256 KiB soft byte cap, resuming byte-exactly
// after short writes that land mid-header/mid-body/mid-MAC. The framing is
// self-delimiting, so the wire bytes do not depend on how frames are
// grouped into syscalls, and zero payload bytes are copied to assemble a
// batch (the iovecs point at the retained segments; test_transport_batch
// checks).
//
// Threading contract: one thread owns the transport, the one that calls
// poll_once(). Ownership moves to another thread only through something
// that orders the two, such as that thread's creation or a join (see
// ritas::Node::start()). The owner makes every other call — start(),
// started(), send(), set_sink(), set_tracer(), stop() — so a sender on
// another thread posts its send to the owner (ritas::Node's task lane).
// All socket I/O — receiving, the batched drains, handshakes and link
// management — happens in poll_once(), and none of it blocks: a handshake
// message the socket does not take whole fails that attempt. Frames are
// MAC-verified and handed to the sink inline from poll_once. Any thread
// may call wakeup(), request_stop(), kill_link() (the owner executes the
// kill) and the reads link_states(), links_up(), stats(), setup_timeout().
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/stats.h"
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

// The transport counter list: one X(field, c_id, unit, help) row per
// counter, c_id being its RITAS_STAT_* id in the C API (ritas/ritas_c.h).
// Stats, its atomic twin inside TcpTransport, the stats() snapshot,
// for_each() and ritas_stat's lookup are generated from it, and the
// "Transport counters" table in docs/OBSERVABILITY.md lists the same names
// and units (test_counter_docs checks). Add a counter here and nowhere
// else. C API ids 13-17 and 21 are retired and never reused.
#define RITAS_TRANSPORT_COUNTERS(X)                                           \
  X(frames_sent, 1, "frames", "frames written to a socket")                   \
  X(frames_received, 2, "frames",                                             \
    "frames accepted and delivered to the sink")                              \
  X(frames_retransmitted, 3, "frames",                                        \
    "re-writes after a counter resync (subset of frames_sent)")               \
  X(bytes_sent, 4, "bytes", "bytes of the frames written")                    \
  X(mac_failures, 5, "frames", "frame MAC mismatches in the current session") \
  X(replay_drops, 6, "frames",                                                \
    "frames with a counter below the receive floor")                          \
  X(session_rejects, 7, "frames", "frames tagged with a stale session id")    \
  X(counter_gaps, 8, "frames", "frames skipped by a forward counter jump")    \
  X(oversize_drops, 9, "frames", "frames declaring a body over 16 MiB")       \
  X(queue_drops, 10, "frames",                                                \
    "never-sent frames evicted by the send-queue cap")                        \
  X(link_reconnects, 11, "handshakes", "handshakes that revived a dead link") \
  X(handshake_failures, 12, "handshakes",                                     \
    "malformed, unauthentic, timed-out or aborted handshakes")                \
  X(sendmsg_calls, 18, "syscalls", "batched data-frame sendmsg() calls")      \
  X(bytes_to_kernel, 19, "bytes",                                             \
    "bytes those calls moved, partial frames included")                       \
  X(peer_closed, 20, "syscalls",                                              \
    "data sendmsg() failures with ECONNRESET/EPIPE: the peer closed")

class TcpTransport final : public Transport {
 public:
  struct Options {
    std::uint32_t n = 4;
    ProcessId self = 0;
    std::vector<PeerAddr> peers;  // size n; peers[self] = own listen address
    int connect_timeout_ms = 15'000;
    /// started() needs this many links up; 0 = auto (n - f - 1,
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
  };

  struct Stats {
#define RITAS_TRANSPORT_FIELD(field, c_id, unit, help) \
  std::uint64_t field = 0;
    RITAS_TRANSPORT_COUNTERS(RITAS_TRANSPORT_FIELD)
#undef RITAS_TRANSPORT_FIELD
    /// Frames per data sendmsg(): > 1 means batching is amortizing
    /// syscalls; 1.0 is the one-write-per-frame floor.
    double frames_per_syscall() const {
      return sendmsg_calls == 0
                 ? 0.0
                 : static_cast<double>(frames_sent) /
                       static_cast<double>(sendmsg_calls);
    }
    /// Calls f(CounterInfo, value) once per counter, in list order.
    template <typename F>
    void for_each(F&& f) const {
#define RITAS_TRANSPORT_VISIT(field, c_id, unit, help) \
  f(CounterInfo{#field, unit, help, c_id}, field);
      RITAS_TRANSPORT_COUNTERS(RITAS_TRANSPORT_VISIT)
#undef RITAS_TRANSPORT_VISIT
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

  /// Polls until started(); throws setup_timeout() after connect_timeout_ms
  /// and, after request_stop(), closes every socket and throws at once.
  /// ritas::Node does not call it; it serves owners that block in it.
  void start();
  /// At least min_start_links links are up, and either every link is up
  /// or no handshake is in flight.
  bool started() const;
  int connect_timeout_ms() const { return opts_.connect_timeout_ms; }
  /// "TcpTransport: mesh setup timed out (k/want links up)".
  std::runtime_error setup_timeout() const;
  /// Closes every socket; subsequent sends are dropped silently.
  void stop();
  /// Any thread: a start() in progress closes every socket and throws,
  /// and poll_once() returns at once; the owner's stop() does the
  /// teardown otherwise.
  void request_stop();

  /// Sink for inbound frames, invoked from poll_once(). Each frame is one
  /// freshly-owned Buffer copied out of the stream-reassembly window (the
  /// single boundary copy of the receive path); the Slice covers it whole.
  void set_sink(std::function<void(ProcessId from, Slice frame)> sink) {
    sink_ = std::move(sink);
  }

  /// Optional link-event tracing (kLinkUp/kLinkDown/kLinkHandshake; a
  /// dial attempt that fails before its handshake is a kLinkDown with
  /// sid 0 and puts the dialer into backoff). The
  /// tracer is not thread-safe: events are recorded only on the owner, so
  /// share a tracer with the stack only when the stack runs on that same
  /// thread (as ritas::Context does).
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  /// Processes pending socket I/O and link-state timers (redials, expired
  /// handshakes); waits up to timeout_ms for activity.
  void poll_once(int timeout_ms);

  /// Wakes a blocked poll_once() from another thread.
  void wakeup();

  /// Enqueues one frame for `to`: assigns the link counter and retains the
  /// refcounted body for counter resync; the next drain MACs and writes
  /// it. The body is never copied per peer — the batched sendmsg() points
  /// straight at the shared buffer. If the link is not up the frame stays
  /// queued for the next session's resync.
  void send(ProcessId to, Slice frame) override;

  /// Monotonic wall clock for trace timestamps (real transports are
  /// outside the deterministic core, so reading a clock here is fine).
  std::uint64_t now_ns() const override;

  /// Snapshot of every link's state; the self entry reads kUp.
  std::vector<LinkState> link_states() const override;

  /// Number of links currently in LinkState::kUp.
  std::uint32_t links_up() const;

  /// Counter snapshot (per-field atomic, not globally consistent).
  Stats stats() const;

  /// Breaks the established session to `peer` (see KillMode); a no-op
  /// while no session is up. The owner's next poll cycle runs the
  /// teardown; the link then heals through the normal backoff/reconnect
  /// path. Test-only chaos hook.
  void kill_link(ProcessId peer, KillMode mode);

 private:
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

  /// One link. `state` is its only lifecycle state: kDown until a first
  /// dial (dialer) or session (acceptor), and at the acceptor after a
  /// session ends; kConnecting while a dial or its handshake is in flight;
  /// kUp while `fd` holds the established session; kBackoff while a dialer
  /// waits out its retry delay.
  struct Conn {
    explicit Conn(std::size_t max_frame) : rx(max_frame) {}
    // --- owner-only ---
    FrameReassembler rx;             // stream reassembly window
    std::uint64_t rx_expected = 0;   // next counter expected (survives sessions)
    std::unique_ptr<LinkRetry> retry;  // dialed links only (peer < self)
    bool ever_up = false;
    bool tx_blocked = false;         // drain hit a short write: EPOLLOUT registered
    Fd fd;                           // the established session's socket
    std::uint64_t sid = 0;           // current session id (0 = none)
    std::uint64_t tx_next = 0;       // next counter to assign (survives sessions)
    std::deque<Retained> retained;
    std::size_t retained_bytes = 0;
    std::uint64_t tx_write_next = 0; // next counter the drain hands to the kernel
    std::size_t tx_partial = 0;      // bytes of frame tx_write_next already written
    bool broken = false;             // a drain hit a write error; next cycle reaps
    // --- written by the owner, read by any thread ---
    std::atomic<LinkState> state{LinkState::kDown};
    // --- set by any thread (kill_link), taken by the owner ---
    std::atomic<std::uint8_t> kill_request{0};  // 1 + KillMode
  };

  /// One session handshake in flight, in either role: a dial from its
  /// connect() to its CONFIRM, or an accepted socket from its HELLO to its
  /// CONFIRM. It does not touch the peer's Conn until it succeeds — an
  /// unauthenticated hello must not be able to displace a healthy link.
  struct Handshake {
    /// What the handshake waits for next.
    enum class Await : std::uint8_t { kConnect, kHello, kReply, kConfirm };
    std::uint64_t id = 0;     // stable epoll tag; see dispatch_event
    bool dialer = false;
    Await await = Await::kHello;
    Fd fd;
    Bytes rx;                 // received bytes not yet consumed
    std::uint64_t deadline_ms = 0;
    ProcessId peer = 0;       // the dialed peer, or the dialer a HELLO names
    std::uint64_t nonce_d = 0;
    std::uint64_t nonce_a = 0;
  };

  struct Counters;  // atomic mirror of Stats

  std::uint64_t now_ms() const;
  std::uint32_t start_threshold() const;
  /// epoll_ctl(op) for `fd` with `owner` as its tag (see dispatch_event).
  bool watch(int op, int fd, std::uint32_t events, std::int64_t owner);
  /// Builds (or refreshes, after a re-handshake) the entry's header and
  /// MAC for the current session; the drain's, and the only, MAC site.
  void prep_entry(Conn& c, Retained& e, ProcessId to);
  /// Drains consecutive frames from tx_write_next into batched sendmsg()
  /// calls until the backlog is empty or the socket stops taking bytes
  /// (tx_blocked; EPOLLOUT resumes).
  void drain(Conn& c, ProcessId to);
  /// Drains every up link with pending output.
  void drain_pending();
  void begin_dial(ProcessId peer);
  /// A dial's connect() finished: HELLO, or an uncounted failed connect.
  void on_connected(Handshake& hs);
  /// The one handshake reader, for both roles: accumulates, checks the
  /// header (magic, version, flags, id) and transcript MAC of each HELLO,
  /// REPLY or CONFIRM, answers it, and ends in complete_handshake or
  /// fail_handshake.
  void read_handshake(Handshake& hs);
  /// Writes this side's next message (`header`: magic, version, flags, id
  /// and nonce; `floor`: receive floor and transcript MAC) in one
  /// non-blocking send(); false unless the socket took every byte.
  bool send_handshake(const Handshake& hs, bool header, bool floor);
  Sha256::Digest transcript_mac(const Handshake& hs, char label,
                                std::uint64_t counter_field) const;
  /// The one failure path: counts the attempt once its TCP connection
  /// exists, closes it, and backs a dialer off.
  void fail_handshake(Handshake& hs);
  /// Session established: adopt the socket into the Conn, derive sid,
  /// resync counters, flush the queue, feed any bytes past the handshake.
  void complete_handshake(Handshake& hs, std::uint64_t peer_rx_expected);
  void link_down(ProcessId peer);
  void service_timers();
  void execute_kill(ProcessId peer);
  void handle_readable(ProcessId peer);
  void process_rx(ProcessId peer);
  void trace_link(TraceEventKind kind, ProcessId peer, std::uint64_t arg);
  /// Folds the nearest handshake or redial deadline into the caller's
  /// timeout so the wait cannot oversleep a timer.
  int fold_timer_deadlines(int timeout_ms);
  /// Readiness dispatch. Owner encoding: -1 wake pipe, -2 listen socket,
  /// -(3+id) the handshake with that id, else the peer id of an
  /// established session.
  void dispatch_event(std::int64_t owner, bool rin, bool rout, bool rerr);
  void wait_with_epoll(int timeout_ms);

  Options opts_;
  const KeyChain& keys_;
  std::function<void(ProcessId, Slice)> sink_;
  Tracer* tracer_ = nullptr;
  std::unique_ptr<Rng> rng_;  // nonces
  Fd listen_fd_;
  Fd wake_rx_, wake_tx_;  // created with the listen socket
  std::vector<std::unique_ptr<Conn>> conns_;  // index = peer id; self unused
  std::vector<Handshake> handshakes_;
  std::uint64_t next_handshake_id_ = 0;
  std::unique_ptr<Counters> counters_;
  std::atomic<bool> stopped_{false};
  std::uint64_t epoch_ns_ = 0;  // steady_clock origin for now_ms()
  Fd epoll_fd_;  // created with the listen socket
};

}  // namespace ritas::net
