#include "net/tcp_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <random>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/log.h"
#include "common/serialize.h"
#include "crypto/ct.h"
#include "crypto/hmac.h"
#include "net/batch_writer.h"

namespace ritas::net {

namespace {

// Session handshake wire constants (docs/PROTOCOLS.md "Reliable channel").
constexpr std::uint32_t kHandshakeMagic = 0x52495441;  // "RITA"
constexpr std::uint8_t kWireVersion = 2;               // v1 had no sessions
constexpr std::uint8_t kFlagAuthenticate = 0x01;
constexpr std::size_t kMacSize = Sha256::kDigestSize;
constexpr std::size_t kHelloSize = 4 + 1 + 1 + 4 + 8;
constexpr std::size_t kReplyBase = 4 + 1 + 1 + 4 + 8 + 8;
constexpr std::size_t kConfirmBase = 8;
constexpr std::size_t kFrameHeader = FrameReassembler::kHeaderSize;
// A pending accept that has not produced a well-formed HELLO within this
// many buffered bytes is garbage, whatever its timing.
constexpr std::size_t kMaxHandshakeRx = 4096;
// Frames gathered per sendmsg(); matches the iovec stack array in
// net/batch_writer.cpp (3 segments per frame).
constexpr std::size_t kMaxBatchFrames = 128;

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// The one expiry rule for handshake and pending-accept deadlines, shared
/// by service_timers() and fold_timer_deadlines(): a deadline the epoll
/// timeout folds to 0 ms must also be one service_timers() expires, or the
/// poll thread spins epoll_wait(0) until the clock passes it.
bool deadline_passed(std::uint64_t now_ms, std::uint64_t deadline_ms) {
  return now_ms >= deadline_ms;
}

/// Handshake transcript MACs. `label` domain-separates REPLY ("a"),
/// CONFIRM ("d") and the session-id derivation ("s").
Sha256::Digest hs_mac(const HmacSha256Key& key, char label,
                      std::uint32_t dialer, std::uint32_t acceptor,
                      std::uint64_t nonce_d, std::uint64_t nonce_a,
                      std::uint64_t counter_field) {
  Writer w(40);
  w.raw(to_bytes("RITAS-hs-"));
  w.u8(static_cast<std::uint8_t>(label));
  w.u32(dialer);
  w.u32(acceptor);
  w.u64(nonce_d);
  w.u64(nonce_a);
  w.u64(counter_field);
  return key.mac(w.data());
}

/// Session id bound to both nonces (and, when authenticating, the pairwise
/// key): frames from any previous session carry a different sid and are
/// rejected before their counters can confuse the anti-replay floor.
std::uint64_t derive_sid(const HmacSha256Key& key, std::uint32_t dialer,
                         std::uint32_t acceptor, std::uint64_t nonce_d,
                         std::uint64_t nonce_a) {
  const auto mac = hs_mac(key, 's', dialer, acceptor, nonce_d, nonce_a, 0);
  Reader r(ByteView(mac.data(), mac.size()));
  const std::uint64_t sid = r.u64();
  return sid == 0 ? 1 : sid;  // 0 is reserved for "no session"
}

}  // namespace

struct TcpTransport::Counters {
  std::atomic<std::uint64_t> frames_sent{0};
  std::atomic<std::uint64_t> frames_received{0};
  std::atomic<std::uint64_t> frames_retransmitted{0};
  std::atomic<std::uint64_t> bytes_sent{0};
  std::atomic<std::uint64_t> mac_failures{0};
  std::atomic<std::uint64_t> replay_drops{0};
  std::atomic<std::uint64_t> session_rejects{0};
  std::atomic<std::uint64_t> counter_gaps{0};
  std::atomic<std::uint64_t> oversize_drops{0};
  std::atomic<std::uint64_t> queue_drops{0};
  std::atomic<std::uint64_t> link_reconnects{0};
  std::atomic<std::uint64_t> handshake_failures{0};
  std::atomic<std::uint64_t> sendmsg_calls{0};
  std::atomic<std::uint64_t> bytes_to_kernel{0};
  std::atomic<std::uint64_t> batch_copy_bytes{0};
  std::atomic<std::uint64_t> peer_closed{0};
};

Fd& Fd::operator=(Fd&& o) noexcept {
  if (this != &o) {
    reset();
    fd_ = o.fd_;
    o.fd_ = -1;
  }
  return *this;
}

void Fd::reset() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

TcpTransport::TcpTransport(Options opts, const KeyChain& keys)
    : opts_(std::move(opts)), keys_(keys), counters_(std::make_unique<Counters>()) {
  if (opts_.peers.size() != opts_.n) {
    throw std::invalid_argument("TcpTransport: need one address per process");
  }
  std::uint64_t seed = opts_.rng_seed;
  if (seed == 0) {
    std::random_device rd;
    seed = (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
  }
  rng_ = std::make_unique<Rng>(seed);
  conns_.reserve(opts_.n);
  for (ProcessId p = 0; p < opts_.n; ++p) {
    conns_.push_back(std::make_unique<Conn>(opts_.max_frame, opts_.authenticate));
    if (p < opts_.self) {
      // We dial every lower id; each link's jitter stream is independent.
      conns_[p]->retry =
          std::make_unique<LinkRetry>(opts_.backoff, seed ^ (0x9e3779b97f4a7c15ULL * (p + 1)));
    }
  }
  epoch_ns_ = now_ns();

  // Listen before anyone dials: a peer that dials us before our start()
  // lands in the accept backlog instead of hitting ECONNREFUSED and a
  // backoff. The handshake completes once start() polls.
  Fd lfd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!lfd.valid()) throw std::runtime_error("socket() failed");
  int one = 1;
  ::setsockopt(lfd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(opts_.peers[opts_.self].port);
  addr.sin_addr.s_addr = INADDR_ANY;
  if (::bind(lfd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    throw std::runtime_error("bind() failed on port " +
                             std::to_string(opts_.peers[opts_.self].port));
  }
  if (::listen(lfd.get(), 64) != 0) throw std::runtime_error("listen() failed");
  set_nonblocking(lfd.get());
  listen_fd_ = std::move(lfd);
  epoll_fd_ = Fd(::epoll_create1(EPOLL_CLOEXEC));
  if (!epoll_fd_.valid()) throw std::runtime_error("epoll_create1() failed");
}

TcpTransport::~TcpTransport() { stop(); }

std::uint64_t TcpTransport::now_ns() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t TcpTransport::now_ms() const { return (now_ns() - epoch_ns_) / 1'000'000; }

std::uint32_t TcpTransport::start_threshold() const {
  const std::uint32_t want = opts_.n - 1;
  if (opts_.min_start_links != 0) {
    return opts_.min_start_links < want ? opts_.min_start_links : want;
  }
  const std::uint32_t f = (opts_.n - 1) / 3;
  return want - f;  // n - f - 1
}

void TcpTransport::start() {
  // Wakeup pipe so other threads can interrupt poll_once().
  int pipefd[2];
  if (::pipe(pipefd) != 0) throw std::runtime_error("pipe() failed");
  wake_rx_ = Fd(pipefd[0]);
  wake_tx_ = Fd(pipefd[1]);
  set_nonblocking(wake_rx_.get());

  // Partial-mesh startup: pump the reactor until enough links are up; the
  // stragglers keep dialing from poll_once() for the session's lifetime.
  const std::uint64_t deadline =
      now_ms() + static_cast<std::uint64_t>(opts_.connect_timeout_ms);
  const std::uint32_t want = start_threshold();
  while (links_up() < want) {
    if (stopped_.load()) throw std::runtime_error("TcpTransport: stopped during start");
    if (now_ms() > deadline) {
      throw std::runtime_error(
          "TcpTransport: mesh setup timed out (" + std::to_string(links_up()) +
          "/" + std::to_string(want) + " links up)");
    }
    poll_once(20);
  }
}

void TcpTransport::stop() {
  stopped_.store(true);
  wakeup();
  for (auto& c : conns_) {
    std::lock_guard<std::mutex> lock(c->mutex);
    c->fd.reset();
    c->state = LinkState::kDown;
    c->sid = 0;
    c->phase = HsPhase::kIdle;
  }
  pending_accepts_.clear();
  listen_fd_.reset();
  // The kernel dropped every registration when the sockets closed; the
  // mirror map must follow so a restart-free reuse cannot see stale owners.
  epoll_regs_.clear();
  epoll_fd_.reset();
}

void TcpTransport::wakeup() {
  if (wake_tx_.valid()) {
    const std::uint8_t b = 1;
    [[maybe_unused]] ssize_t k = ::write(wake_tx_.get(), &b, 1);
  }
}

bool TcpTransport::is_poll_thread() const {
  return poll_tid_.load(std::memory_order_relaxed) ==
         std::hash<std::thread::id>{}(std::this_thread::get_id());
}

void TcpTransport::trace_link(TraceEventKind kind, ProcessId peer,
                              std::uint64_t arg) {
  if (tracer_ == nullptr) return;
  TraceEvent e;
  e.ts_ns = now_ns();
  e.kind = kind;
  e.peer = peer;
  e.arg = arg;
  tracer_->record(e);
}

bool TcpTransport::write_all(int fd, ByteView data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t k = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (k > 0) {
      off += static_cast<std::size_t>(k);
      continue;
    }
    if (k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd pfd{fd, POLLOUT, 0};
      ::poll(&pfd, 1, 1000);
      continue;
    }
    if (k < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

void TcpTransport::prep_entry(Conn& c, Retained& e, ProcessId to) {
  if (e.prep_sid == c.sid) return;  // header + MAC already current
  if (opts_.authenticate) {
    Writer macin(24);
    macin.u32(opts_.self);
    macin.u32(to);
    macin.u64(c.sid);
    macin.u64(e.counter);
    e.mac_trailer = keys_.mac_key(to).mac(macin.data(), e.frame);
  }
  Writer hdr(kFrameHeader);
  hdr.u32(static_cast<std::uint32_t>(e.frame.size()));
  hdr.u64(c.sid);
  hdr.u64(e.counter);
  const ByteView hb = hdr.data();
  std::memcpy(e.hdr.data(), hb.data(), e.hdr.size());
  e.prep_sid = c.sid;
}

void TcpTransport::drain_locked(Conn& c, ProcessId to) {
  if (c.state != LinkState::kUp || c.broken || !c.fd.valid()) return;
  c.tx_blocked = false;
  for (;;) {
    if (c.retained.empty()) return;
    const std::uint64_t base = c.retained.front().counter;
    if (c.tx_write_next < base) {
      // Eviction outran the cursor: those frames are gone (queue_drops);
      // restart at the queue head. The partial-head eviction guard in
      // send() guarantees this never tears a half-written frame.
      c.tx_write_next = base;
      c.tx_partial = 0;
    }
    const std::uint64_t idx0 = c.tx_write_next - base;
    if (idx0 >= c.retained.size()) return;  // backlog fully written

    // Gather consecutive ready frames into iovec triplets pointing straight
    // at the retained header/body/MAC storage — zero payload copies.
    FrameImage imgs[kMaxBatchFrames];
    std::size_t nimg = 0;
    std::size_t batch_bytes = 0;
    for (std::size_t i = static_cast<std::size_t>(idx0);
         i < c.retained.size() && nimg < kMaxBatchFrames; ++i) {
      Retained& e = c.retained[i];
      prep_entry(c, e, to);
      FrameImage& img = imgs[nimg];
      img.parts[0] = ByteView(e.hdr.data(), e.hdr.size());
      img.parts[1] = e.frame;
      img.parts[2] = opts_.authenticate
                         ? ByteView(e.mac_trailer.data(), e.mac_trailer.size())
                         : ByteView{};
      batch_bytes += img.size();
      ++nimg;
      // Soft cap: at least one frame is always offered.
      if (batch_bytes >= opts_.max_batch_bytes) break;
    }

    const BatchWriteResult r = sendmsg_batch(c.fd.get(), imgs, nimg,
                                             c.tx_partial, batch_iov_budget());
    counters_->sendmsg_calls.fetch_add(1, std::memory_order_relaxed);
    if (r.status == BatchWriteResult::Status::kAgain) {
      c.tx_blocked = true;  // EPOLLOUT resumes byte-exactly from tx_partial
      return;
    }
    if (r.status == BatchWriteResult::Status::kError) {
      if (errno == ECONNRESET || errno == EPIPE) {
        // The peer closed its end (stopped or restarted): teardown, not a
        // fault.
        counters_->peer_closed.fetch_add(1, std::memory_order_relaxed);
        LOG_DEBUG("tcp batched send to p%u: peer closed (%s)", to,
                  std::strerror(errno));
      } else {
        LOG_WARN("tcp batched send to p%u failed: %s", to, std::strerror(errno));
      }
      c.broken = true;  // the poll thread reaps the stream and redials
      wakeup();
      return;
    }
    counters_->bytes_to_kernel.fetch_add(r.bytes, std::memory_order_relaxed);

    // Advance the cursor over fully-written frames; whatever is left is the
    // byte offset into the first unfinished frame (possibly mid-header or
    // mid-MAC — build_batch_iov resumes across segment boundaries).
    std::size_t acc = c.tx_partial + r.bytes;
    std::size_t fi = 0;
    while (fi < nimg && acc >= imgs[fi].size()) {
      acc -= imgs[fi].size();
      Retained& e = c.retained[static_cast<std::size_t>(idx0) + fi];
      e.written = true;
      counters_->frames_sent.fetch_add(1, std::memory_order_relaxed);
      counters_->bytes_sent.fetch_add(imgs[fi].size(), std::memory_order_relaxed);
      if (e.retx) {
        e.retx = false;
        counters_->frames_retransmitted.fetch_add(1, std::memory_order_relaxed);
      }
      ++c.tx_write_next;
      ++fi;
    }
    c.tx_partial = acc;
    if (r.bytes == 0) {
      c.tx_blocked = true;  // defensive: zero-byte progress, wait for POLLOUT
      return;
    }
    // Loop: more backlog past the frame/byte caps, or a partial head that
    // keeps pushing until the socket blocks (kAgain) or the queue drains.
  }
}

void TcpTransport::drain_pending() {
  for (ProcessId p = 0; p < opts_.n; ++p) {
    if (p == opts_.self) continue;
    Conn& c = *conns_[p];
    std::lock_guard<std::mutex> lock(c.mutex);
    drain_locked(c, p);
  }
}

void TcpTransport::send(ProcessId to, Slice frame) {
  if (stopped_.load() || to >= opts_.n || to == opts_.self) return;
  Conn& c = *conns_[to];
  bool need_wake = false;
  {
    std::lock_guard<std::mutex> lock(c.mutex);
    const std::uint64_t counter = c.tx_next++;

    // Retain the frame for counter resync before (or instead of) writing
    // it. Drop-oldest keeps the budget bounded; evicting a frame that never
    // reached a socket is real backpressure loss and is counted. The one
    // frame eviction must never touch is a half-written head — popping it
    // would tear the byte stream mid-frame.
    c.retained.push_back(Retained{counter, frame, false, false});
    c.retained_bytes += frame.size();
    while (c.retained_bytes > opts_.send_queue_max_bytes && c.retained.size() > 1) {
      const Retained& victim = c.retained.front();
      if (c.tx_partial != 0 && victim.counter == c.tx_write_next) break;
      if (!victim.written) counters_->queue_drops.fetch_add(1, std::memory_order_relaxed);
      c.retained_bytes -= victim.frame.size();
      c.retained.pop_front();
    }

    if (c.state != LinkState::kUp || c.broken || !c.fd.valid()) {
      return;  // queued; the next session's resync flushes it
    }
    // MAC on the sender thread (keeps multi-sender parallelism); the write
    // either happens here (batching off) or on the poll thread's next
    // batched drain.
    prep_entry(c, c.retained.back(), to);
    if (opts_.batch_sends) {
      need_wake = !is_poll_thread();
    } else {
      const bool was_blocked = c.tx_blocked;
      drain_locked(c, to);
      // A newly-blocked link needs the poll thread to register EPOLLOUT.
      need_wake = c.tx_blocked && !was_blocked && !is_poll_thread();
    }
  }
  if (need_wake) wakeup();
}

void TcpTransport::begin_dial(ProcessId peer) {
  Conn& c = *conns_[peer];
  c.retry->on_dialing();
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  bool failed = !fd.valid();
  sockaddr_in peer_addr{};
  if (!failed) {
    peer_addr.sin_family = AF_INET;
    peer_addr.sin_port = htons(opts_.peers[peer].port);
    failed = ::inet_pton(AF_INET, opts_.peers[peer].host.c_str(),
                         &peer_addr.sin_addr) != 1;
  }
  if (!failed) {
    set_nonblocking(fd.get());
    const int rc = ::connect(fd.get(), reinterpret_cast<sockaddr*>(&peer_addr),
                             sizeof(peer_addr));
    if (rc == 0 || errno == EINPROGRESS) {
      {
        std::lock_guard<std::mutex> lock(c.mutex);
        c.fd = std::move(fd);
        c.state = LinkState::kConnecting;
      }
      c.phase = HsPhase::kDialWait;
      c.hs_rx.clear();
      c.hs_deadline_ms = now_ms() + static_cast<std::uint64_t>(opts_.handshake_timeout_ms);
      if (rc == 0) on_dial_writable(peer);
      return;
    }
    failed = true;
  }
  if (failed) c.retry->on_down(now_ms());
}

void TcpTransport::on_dial_writable(ProcessId peer) {
  Conn& c = *conns_[peer];
  int err = 0;
  socklen_t len = sizeof(err);
  ::getsockopt(c.fd.get(), SOL_SOCKET, SO_ERROR, &err, &len);
  if (err != 0) {
    link_down(peer);
    return;
  }
  set_nodelay(c.fd.get());
  c.nonce_local = rng_->next();
  Writer hello(kHelloSize);
  hello.u32(kHandshakeMagic);
  hello.u8(kWireVersion);
  hello.u8(opts_.authenticate ? kFlagAuthenticate : 0);
  hello.u32(opts_.self);
  hello.u64(c.nonce_local);
  if (!write_all(c.fd.get(), hello.data())) {
    link_down(peer);
    return;
  }
  c.phase = HsPhase::kHelloSent;
}

void TcpTransport::handshake_readable(ProcessId peer) {
  // Dialer side only: accumulate the REPLY, verify it, CONFIRM, resync.
  Conn& c = *conns_[peer];
  std::uint8_t buf[4096];
  for (;;) {
    const ssize_t k = ::recv(c.fd.get(), buf, sizeof(buf), 0);
    if (k > 0) {
      c.hs_rx.insert(c.hs_rx.end(), buf, buf + k);
      continue;
    }
    if (k == 0 || (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)) {
      link_down(peer);
      return;
    }
    if (errno == EINTR) continue;
    break;  // EAGAIN: no more bytes for now
  }
  const std::size_t reply_size = kReplyBase + (opts_.authenticate ? kMacSize : 0);
  if (c.hs_rx.size() < reply_size) {
    if (c.hs_rx.size() > kMaxHandshakeRx) {
      counters_->handshake_failures.fetch_add(1, std::memory_order_relaxed);
      link_down(peer);
    }
    return;
  }
  Reader r(ByteView(c.hs_rx.data(), kReplyBase));
  const std::uint32_t magic = r.u32();
  const std::uint8_t version = r.u8();
  const std::uint8_t flags = r.u8();
  const std::uint32_t id = r.u32();
  const std::uint64_t nonce_a = r.u64();
  const std::uint64_t peer_rx_expected = r.u64();
  const std::uint8_t want_flags = opts_.authenticate ? kFlagAuthenticate : 0;
  bool ok = magic == kHandshakeMagic && version == kWireVersion &&
            flags == want_flags && id == peer;
  if (ok && opts_.authenticate) {
    const auto mac = hs_mac(keys_.mac_key(peer), 'a', opts_.self, peer,
                            c.nonce_local, nonce_a, peer_rx_expected);
    ok = ct_equal(ByteView(mac.data(), mac.size()),
                  ByteView(c.hs_rx.data() + kReplyBase, kMacSize));
  }
  if (!ok) {
    counters_->handshake_failures.fetch_add(1, std::memory_order_relaxed);
    link_down(peer);
    return;
  }
  Writer confirm(kConfirmBase + kMacSize);
  confirm.u64(c.rx_expected);
  if (opts_.authenticate) {
    const auto mac = hs_mac(keys_.mac_key(peer), 'd', opts_.self, peer,
                            c.nonce_local, nonce_a, c.rx_expected);
    confirm.raw(ByteView(mac.data(), mac.size()));
  }
  if (!write_all(c.fd.get(), confirm.data())) {
    link_down(peer);
    return;
  }
  // Bytes past the REPLY are already data frames of the new session.
  Bytes leftover(c.hs_rx.begin() + static_cast<std::ptrdiff_t>(reply_size),
                 c.hs_rx.end());
  c.hs_rx.clear();
  complete_handshake(peer, c.nonce_local, nonce_a, peer_rx_expected);
  if (!leftover.empty()) {
    c.rx.feed(leftover.data(), leftover.size());
    process_rx(peer);
  }
}

void TcpTransport::pending_accept_readable(PendingAccept& pa) {
  std::uint8_t buf[4096];
  for (;;) {
    const ssize_t k = ::recv(pa.fd.get(), buf, sizeof(buf), 0);
    if (k > 0) {
      pa.rx.insert(pa.rx.end(), buf, buf + k);
      continue;
    }
    if (k == 0 || (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)) {
      reset_fd(pa.fd);  // dialer went away mid-handshake
      return;
    }
    if (errno == EINTR) continue;
    break;
  }
  if (pa.rx.size() > kMaxHandshakeRx) {
    counters_->handshake_failures.fetch_add(1, std::memory_order_relaxed);
    reset_fd(pa.fd);
    return;
  }
  if (!pa.got_hello) {
    if (pa.rx.size() < kHelloSize) return;
    Reader r(ByteView(pa.rx.data(), kHelloSize));
    const std::uint32_t magic = r.u32();
    const std::uint8_t version = r.u8();
    const std::uint8_t flags = r.u8();
    const std::uint32_t id = r.u32();
    const std::uint64_t nonce_d = r.u64();
    const std::uint8_t want_flags = opts_.authenticate ? kFlagAuthenticate : 0;
    // Only higher ids dial us; anything else is a malformed or forged hello.
    if (magic != kHandshakeMagic || version != kWireVersion ||
        flags != want_flags || id <= opts_.self || id >= opts_.n) {
      counters_->handshake_failures.fetch_add(1, std::memory_order_relaxed);
      reset_fd(pa.fd);
      return;
    }
    pa.got_hello = true;
    pa.claimed = id;
    pa.nonce_d = nonce_d;
    pa.nonce_a = rng_->next();
    pa.rx.erase(pa.rx.begin(), pa.rx.begin() + kHelloSize);
    set_nodelay(pa.fd.get());
    // REPLY with our receive floor so the peer can resync its counters.
    // The established session (if any) stays untouched until the dialer
    // proves key knowledge with its CONFIRM — an unauthenticated hello
    // must not be able to take down a healthy link.
    const std::uint64_t rx_expected = conns_[pa.claimed]->rx_expected;
    Writer reply(kReplyBase + kMacSize);
    reply.u32(kHandshakeMagic);
    reply.u8(kWireVersion);
    reply.u8(want_flags);
    reply.u32(opts_.self);
    reply.u64(pa.nonce_a);
    reply.u64(rx_expected);
    if (opts_.authenticate) {
      const auto mac = hs_mac(keys_.mac_key(pa.claimed), 'a', pa.claimed,
                              opts_.self, pa.nonce_d, pa.nonce_a, rx_expected);
      reply.raw(ByteView(mac.data(), mac.size()));
    }
    if (!write_all(pa.fd.get(), reply.data())) {
      reset_fd(pa.fd);
      return;
    }
  }
  const std::size_t confirm_size = kConfirmBase + (opts_.authenticate ? kMacSize : 0);
  if (pa.rx.size() < confirm_size) return;
  Reader r(ByteView(pa.rx.data(), kConfirmBase));
  const std::uint64_t peer_rx_expected = r.u64();
  if (opts_.authenticate) {
    const auto mac = hs_mac(keys_.mac_key(pa.claimed), 'd', pa.claimed,
                            opts_.self, pa.nonce_d, pa.nonce_a, peer_rx_expected);
    if (!ct_equal(ByteView(mac.data(), mac.size()),
                  ByteView(pa.rx.data() + kConfirmBase, kMacSize))) {
      counters_->handshake_failures.fetch_add(1, std::memory_order_relaxed);
      reset_fd(pa.fd);
      return;
    }
  }
  // Authenticated: adopt the socket, replacing whatever the slot held (the
  // dialer redials only when its side of the old stream is dead).
  const ProcessId peer = pa.claimed;
  Conn& c = *conns_[peer];
  if (c.phase == HsPhase::kEstablished) link_down(peer);
  {
    std::lock_guard<std::mutex> lock(c.mutex);
    forget_fd(c.fd.get());  // a crossed dial may still be registered
    c.fd = std::move(pa.fd);
    c.state = LinkState::kConnecting;
  }
  c.phase = HsPhase::kWaitConfirm;
  c.rx.clear();
  Bytes leftover(pa.rx.begin() + static_cast<std::ptrdiff_t>(confirm_size),
                 pa.rx.end());
  complete_handshake(peer, pa.nonce_d, pa.nonce_a, peer_rx_expected);
  if (!leftover.empty()) {
    c.rx.feed(leftover.data(), leftover.size());
    process_rx(peer);
  }
}

void TcpTransport::complete_handshake(ProcessId peer, std::uint64_t nonce_d,
                                      std::uint64_t nonce_a,
                                      std::uint64_t peer_rx_expected) {
  Conn& c = *conns_[peer];
  const std::uint32_t dialer = peer < opts_.self ? opts_.self : peer;
  const std::uint32_t acceptor = peer < opts_.self ? peer : opts_.self;
  const HmacSha256Key unkeyed;
  const HmacSha256Key& sid_key =
      opts_.authenticate ? keys_.mac_key(peer) : unkeyed;
  const std::uint64_t sid = derive_sid(sid_key, dialer, acceptor, nonce_d, nonce_a);

  std::uint64_t flushed = 0;
  {
    std::lock_guard<std::mutex> lock(c.mutex);
    c.sid = sid;
    c.broken = false;
    c.tx_partial = 0;
    c.tx_blocked = false;
    // Counter resync: everything below the peer's receive floor was
    // delivered in a previous session; everything at or above it is
    // retransmitted under the new session id, oldest first, ahead of any
    // new sends (which queue behind this mutex). The sid change invalidates
    // every entry's prep (prep_sid mismatch), so the drain re-MACs each
    // frame inline under the new session.
    while (!c.retained.empty() && c.retained.front().counter < peer_rx_expected) {
      c.retained_bytes -= c.retained.front().frame.size();
      c.retained.pop_front();
    }
    for (Retained& e : c.retained) {
      if (e.written) {
        e.written = false;
        e.retx = true;  // rewrite under this session is a retransmission
      }
    }
    const std::uint64_t resync_base =
        c.retained.empty() ? c.tx_next : c.retained.front().counter;
    c.tx_write_next = resync_base;
    c.state = LinkState::kUp;
    drain_locked(c, peer);
    flushed = c.tx_write_next - resync_base;
  }
  c.phase = HsPhase::kEstablished;
  if (c.retry) c.retry->on_up();
  if (c.ever_up) counters_->link_reconnects.fetch_add(1, std::memory_order_relaxed);
  c.ever_up = true;
  trace_link(TraceEventKind::kLinkHandshake, peer, flushed);
  trace_link(TraceEventKind::kLinkUp, peer, sid);
}

void TcpTransport::link_down(ProcessId peer) {
  Conn& c = *conns_[peer];
  const bool was_up = c.phase == HsPhase::kEstablished;
  std::uint64_t old_sid = 0;
  {
    std::lock_guard<std::mutex> lock(c.mutex);
    old_sid = c.sid;
    reset_fd(c.fd);
    c.sid = 0;
    c.broken = false;
    c.kill_request = 0;
    c.tx_partial = 0;
    c.tx_blocked = false;
    c.state = c.retry ? LinkState::kBackoff : LinkState::kDown;
  }
  c.phase = HsPhase::kIdle;
  c.hs_rx.clear();
  c.rx.clear();
  if (c.retry) c.retry->on_down(now_ms());
  // A dialer's attempt that failed before its handshake traces with sid 0.
  if (was_up || c.retry) trace_link(TraceEventKind::kLinkDown, peer, old_sid);
}

void TcpTransport::execute_kill(ProcessId peer) {
  Conn& c = *conns_[peer];
  std::uint8_t req;
  int fd;
  {
    std::lock_guard<std::mutex> lock(c.mutex);
    req = c.kill_request;
    c.kill_request = 0;
    fd = c.fd.get();
  }
  if (req == 0 || fd < 0) return;
  const KillMode mode = static_cast<KillMode>(req - 1);
  if (mode == KillMode::kRst) {
    // Abortive close: the peer sees ECONNRESET, we tear down immediately.
    linger lg{1, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
    link_down(peer);
  } else {
    // Half-close: our FIN reaches the peer as EOF; it tears down its end
    // and the teardown propagates back to us as EOF too.
    ::shutdown(fd, SHUT_WR);
  }
}

void TcpTransport::kill_link(ProcessId peer, KillMode mode) {
  if (peer >= opts_.n || peer == opts_.self) return;
  Conn& c = *conns_[peer];
  {
    std::lock_guard<std::mutex> lock(c.mutex);
    c.kill_request = static_cast<std::uint8_t>(1 + static_cast<std::uint8_t>(mode));
  }
  wakeup();
}

void TcpTransport::service_timers() {
  const std::uint64_t now = now_ms();
  for (ProcessId p = 0; p < opts_.n; ++p) {
    if (p == opts_.self) continue;
    Conn& c = *conns_[p];
    bool broken, killed;
    {
      std::lock_guard<std::mutex> lock(c.mutex);
      broken = c.broken;
      killed = c.kill_request != 0;
    }
    if (killed) execute_kill(p);
    if (broken) link_down(p);
    if (c.phase != HsPhase::kIdle && c.phase != HsPhase::kEstablished &&
        deadline_passed(now, c.hs_deadline_ms)) {
      link_down(p);  // handshake stalled; dialer retries after backoff
    }
    if (c.retry && c.phase == HsPhase::kIdle && c.retry->should_dial(now)) {
      begin_dial(p);
    }
  }
  for (auto& pa : pending_accepts_) {
    if (pa.fd.valid() && deadline_passed(now, pa.deadline_ms)) {
      counters_->handshake_failures.fetch_add(1, std::memory_order_relaxed);
      reset_fd(pa.fd);
    }
  }
  pending_accepts_.erase(
      std::remove_if(pending_accepts_.begin(), pending_accepts_.end(),
                     [](const PendingAccept& pa) { return !pa.fd.valid(); }),
      pending_accepts_.end());
}

int TcpTransport::fold_timer_deadlines(int timeout_ms) {
  std::uint64_t nearest = ~0ULL;
  for (ProcessId p = 0; p < opts_.n; ++p) {
    if (p == opts_.self) continue;
    Conn& c = *conns_[p];
    if (c.phase != HsPhase::kIdle && c.phase != HsPhase::kEstablished &&
        c.hs_deadline_ms < nearest) {
      nearest = c.hs_deadline_ms;
    }
    if (c.retry && c.phase == HsPhase::kIdle &&
        c.retry->state() == LinkState::kBackoff && c.retry->retry_at_ms() < nearest) {
      nearest = c.retry->retry_at_ms();
    }
  }
  for (const auto& pa : pending_accepts_) {
    if (pa.deadline_ms < nearest) nearest = pa.deadline_ms;
  }
  // Never oversleep a redial or handshake deadline.
  int tmo = timeout_ms;
  if (nearest != ~0ULL) {
    const std::uint64_t now = now_ms();
    const std::uint64_t until = deadline_passed(now, nearest) ? 0 : nearest - now;
    if (tmo < 0 || static_cast<std::uint64_t>(tmo) > until) {
      tmo = static_cast<int>(until);
    }
  }
  return tmo;
}

void TcpTransport::dispatch_event(std::int64_t owner, bool rin, bool rout,
                                  bool rerr) {
  if (owner == -1) {
    if (rin || rerr) {
      std::uint8_t buf[256];
      while (::read(wake_rx_.get(), buf, sizeof(buf)) > 0) {
      }
    }
    return;
  }
  if (owner == -2) {
    for (;;) {
      Fd fd(::accept(listen_fd_.get(), nullptr, nullptr));
      if (!fd.valid()) break;
      set_nonblocking(fd.get());
      pending_accepts_.push_back(PendingAccept{
          std::move(fd), {},
          now_ms() + static_cast<std::uint64_t>(opts_.handshake_timeout_ms)});
    }
    return;
  }
  if (owner <= -3) {
    const std::size_t k = static_cast<std::size_t>(-3 - owner);
    if (k < pending_accepts_.size() && pending_accepts_[k].fd.valid() &&
        (rin || rerr)) {
      pending_accept_readable(pending_accepts_[k]);
    }
    return;
  }
  const ProcessId peer = static_cast<ProcessId>(owner);
  if (peer >= opts_.n || peer == opts_.self) return;
  Conn& c = *conns_[peer];
  switch (c.phase) {
    case HsPhase::kDialWait:
      if (rout || rerr) on_dial_writable(peer);
      break;
    case HsPhase::kHelloSent:
      if (rin || rerr) handshake_readable(peer);
      break;
    case HsPhase::kEstablished:
      if (rin || rerr) handle_readable(peer);
      // handle_readable may have torn the link down: re-check before the
      // write-side resume so a stale EPOLLOUT can't touch a dead stream.
      if (rout && c.phase == HsPhase::kEstablished) {
        std::lock_guard<std::mutex> lock(c.mutex);
        drain_locked(c, peer);
      }
      break;
    default:
      break;
  }
}

void TcpTransport::forget_fd(int fd) {
  if (fd >= 0) epoll_regs_.erase(fd);
}

void TcpTransport::reset_fd(Fd& fd) {
  forget_fd(fd.get());
  fd.reset();
}

void TcpTransport::wait_with_epoll(int timeout_ms) {
  // Desired interest set for this cycle (owner encoding: see
  // dispatch_event). Level-triggered; EPOLLOUT only while a link has
  // blocked output.
  std::vector<std::pair<int, EpollReg>> desired;
  desired.reserve(2 + pending_accepts_.size() + opts_.n);
  desired.emplace_back(wake_rx_.get(), EpollReg{EPOLLIN, -1});
  if (listen_fd_.valid()) {
    desired.emplace_back(listen_fd_.get(), EpollReg{EPOLLIN, -2});
  }
  for (std::size_t k = 0; k < pending_accepts_.size(); ++k) {
    if (!pending_accepts_[k].fd.valid()) continue;
    desired.emplace_back(pending_accepts_[k].fd.get(),
                         EpollReg{EPOLLIN, -3 - static_cast<std::int64_t>(k)});
  }
  for (ProcessId p = 0; p < opts_.n; ++p) {
    if (p == opts_.self) continue;
    Conn& c = *conns_[p];
    int fd;
    bool blocked;
    {
      std::lock_guard<std::mutex> lock(c.mutex);
      fd = c.fd.get();
      blocked = c.tx_blocked;
    }
    if (fd < 0 || c.phase == HsPhase::kIdle) continue;
    std::uint32_t events;
    if (c.phase == HsPhase::kDialWait) {
      events = EPOLLOUT;
    } else if (c.phase == HsPhase::kEstablished) {
      events = EPOLLIN | (blocked ? EPOLLOUT : 0);
    } else {
      events = EPOLLIN;
    }
    desired.emplace_back(fd, EpollReg{events, static_cast<std::int64_t>(p)});
  }

  // Mark-and-sweep reconcile against the registration mirror. The mirror is
  // kept honest by reset_fd(): every close of a possibly-registered fd
  // drops its record first, so a reused fd number is re-ADDed, never
  // mistaken for the old registration.
  for (auto it = epoll_regs_.begin(); it != epoll_regs_.end();) {
    bool still_wanted = false;
    for (const auto& d : desired) {
      if (d.first == it->first) {
        still_wanted = true;
        break;
      }
    }
    if (still_wanted) {
      ++it;
      continue;
    }
    ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, it->first, nullptr);
    it = epoll_regs_.erase(it);
  }
  for (const auto& [fd, reg] : desired) {
    const auto it = epoll_regs_.find(fd);
    if (it != epoll_regs_.end() && it->second.events == reg.events &&
        it->second.owner == reg.owner) {
      continue;  // cached: no syscall
    }
    epoll_event ev{};
    ev.events = reg.events;
    ev.data.u64 = static_cast<std::uint64_t>(reg.owner);
    int op = it == epoll_regs_.end() ? EPOLL_CTL_ADD : EPOLL_CTL_MOD;
    if (::epoll_ctl(epoll_fd_.get(), op, fd, &ev) != 0) {
      // EEXIST/ENOENT: the mirror drifted (e.g. dup'd fd corner); the
      // opposite op recovers.
      op = op == EPOLL_CTL_ADD ? EPOLL_CTL_MOD : EPOLL_CTL_ADD;
      if (::epoll_ctl(epoll_fd_.get(), op, fd, &ev) != 0) {
        epoll_regs_.erase(fd);
        continue;
      }
    }
    epoll_regs_[fd] = reg;
  }

  epoll_event evs[64];
  const int rc = ::epoll_wait(epoll_fd_.get(), evs, 64, timeout_ms);
  if (rc <= 0) return;
  for (int i = 0; i < rc; ++i) {
    const std::int64_t owner = static_cast<std::int64_t>(evs[i].data.u64);
    const std::uint32_t rev = evs[i].events;
    dispatch_event(owner, (rev & EPOLLIN) != 0, (rev & EPOLLOUT) != 0,
                   (rev & (EPOLLERR | EPOLLHUP)) != 0);
  }
}

void TcpTransport::poll_once(int timeout_ms) {
  if (stopped_.load()) return;
  poll_tid_.store(std::hash<std::thread::id>{}(std::this_thread::get_id()),
                  std::memory_order_relaxed);
  service_timers();
  // Top-of-cycle drain: flush frames enqueued (or MAC-completed) since the
  // last wait — the wakeup pipe got us here for exactly this.
  drain_pending();
  const int tmo = fold_timer_deadlines(timeout_ms);
  wait_with_epoll(tmo);
  // Flush-before-return: deliveries above may have triggered sends from
  // this thread (sink → protocol → send), which only enqueue when batching.
  drain_pending();
  // Bound handshakes may have completed or died; reap dead pending fds.
  pending_accepts_.erase(
      std::remove_if(pending_accepts_.begin(), pending_accepts_.end(),
                     [](const PendingAccept& pa) { return !pa.fd.valid(); }),
      pending_accepts_.end());
}

void TcpTransport::handle_readable(ProcessId peer) {
  Conn& c = *conns_[peer];
  std::uint8_t buf[64 * 1024];
  bool dead = false;
  for (;;) {
    const ssize_t k = ::recv(c.fd.get(), buf, sizeof(buf), 0);
    if (k > 0) {
      c.rx.feed(buf, static_cast<std::size_t>(k));
      continue;
    }
    if (k == 0) {
      dead = true;  // peer closed (EOF; also the far end of a half-close)
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    dead = true;  // ECONNRESET and friends
    break;
  }
  process_rx(peer);
  if (dead) link_down(peer);
}

void TcpTransport::process_rx(ProcessId peer) {
  Conn& c = *conns_[peer];
  FrameReassembler::Frame f;
  for (;;) {
    const FrameReassembler::Status st = c.rx.next(f);
    if (st == FrameReassembler::Status::kNeedMore) break;
    if (st == FrameReassembler::Status::kOversize) {
      counters_->oversize_drops.fetch_add(1, std::memory_order_relaxed);
      LOG_WARN("oversize frame from p%u; dropping connection", peer);
      c.rx.clear();
      link_down(peer);
      return;
    }
    bool ok = true;
    if (f.sid != c.sid) {
      // Replayed bytes from an earlier session (or a raced teardown): the
      // frame is structurally fine but cryptographically stale. Never let
      // it touch the counter floor.
      counters_->session_rejects.fetch_add(1, std::memory_order_relaxed);
      ok = false;
    }
    if (ok && opts_.authenticate) {
      Writer macin(24);
      macin.u32(peer);
      macin.u32(opts_.self);
      macin.u64(f.sid);
      macin.u64(f.counter);
      const auto mac = keys_.mac_key(peer).mac(macin.data(), f.body);
      if (!ct_equal(ByteView(mac.data(), mac.size()), f.mac)) {
        counters_->mac_failures.fetch_add(1, std::memory_order_relaxed);
        ok = false;
      }
    }
    if (ok) {
      if (f.counter < c.rx_expected) {
        // Stale counter under the current session id: a replay (the MAC
        // already proved sender and session, so this exact frame was
        // accepted before). Dropping it is what makes retransmit overlap
        // and replay floods idempotent — never a duplicate delivery.
        counters_->replay_drops.fetch_add(1, std::memory_order_relaxed);
        ok = false;
      } else if (f.counter > c.rx_expected) {
        // Forward jump: the sender's retained queue overflowed and frames
        // are gone for good. Account the loss and move the floor.
        counters_->counter_gaps.fetch_add(f.counter - c.rx_expected,
                                          std::memory_order_relaxed);
        c.rx_expected = f.counter;
      }
    }
    if (ok) {
      ++c.rx_expected;
      counters_->frames_received.fetch_add(1, std::memory_order_relaxed);
      // One boundary copy out of the reassembly window into a fresh Buffer;
      // everything downstream (decode, batch unpack, delivery) aliases it.
      if (sink_) sink_(peer, Slice(Bytes(f.body.begin(), f.body.end())));
    }
    c.rx.consume();
  }
  c.rx.compact();
}

std::vector<LinkState> TcpTransport::link_states() const {
  std::vector<LinkState> out(opts_.n, LinkState::kUp);
  for (ProcessId p = 0; p < opts_.n; ++p) {
    if (p == opts_.self) continue;
    Conn& c = *conns_[p];
    std::lock_guard<std::mutex> lock(c.mutex);
    out[p] = c.state;
  }
  return out;
}

std::uint32_t TcpTransport::links_up() const {
  std::uint32_t up = 0;
  for (ProcessId p = 0; p < opts_.n; ++p) {
    if (p == opts_.self) continue;
    Conn& c = *conns_[p];
    std::lock_guard<std::mutex> lock(c.mutex);
    if (c.state == LinkState::kUp) ++up;
  }
  return up;
}

TcpTransport::Stats TcpTransport::stats() const {
  Stats s;
  s.frames_sent = counters_->frames_sent.load(std::memory_order_relaxed);
  s.frames_received = counters_->frames_received.load(std::memory_order_relaxed);
  s.frames_retransmitted =
      counters_->frames_retransmitted.load(std::memory_order_relaxed);
  s.bytes_sent = counters_->bytes_sent.load(std::memory_order_relaxed);
  s.mac_failures = counters_->mac_failures.load(std::memory_order_relaxed);
  s.replay_drops = counters_->replay_drops.load(std::memory_order_relaxed);
  s.session_rejects = counters_->session_rejects.load(std::memory_order_relaxed);
  s.counter_gaps = counters_->counter_gaps.load(std::memory_order_relaxed);
  s.oversize_drops = counters_->oversize_drops.load(std::memory_order_relaxed);
  s.queue_drops = counters_->queue_drops.load(std::memory_order_relaxed);
  s.link_reconnects = counters_->link_reconnects.load(std::memory_order_relaxed);
  s.handshake_failures =
      counters_->handshake_failures.load(std::memory_order_relaxed);
  s.sendmsg_calls = counters_->sendmsg_calls.load(std::memory_order_relaxed);
  s.bytes_to_kernel = counters_->bytes_to_kernel.load(std::memory_order_relaxed);
  s.batch_copy_bytes = counters_->batch_copy_bytes.load(std::memory_order_relaxed);
  s.peer_closed = counters_->peer_closed.load(std::memory_order_relaxed);
  return s;
}

}  // namespace ritas::net
