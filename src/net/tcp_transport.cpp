#include "net/tcp_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <random>
#include <stdexcept>
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
// HELLO is the header (magic, version, flags, id, nonce); REPLY is the
// header plus the floor (the sender's receive counter) and its MAC;
// CONFIRM is the floor and its MAC.
constexpr std::size_t kHeaderSize = 4 + 1 + 1 + 4 + 8;
constexpr std::size_t kFloorSize = 8;
constexpr std::size_t kFrameHeader = FrameReassembler::kHeaderSize;
// Bytes one readiness event reads into a handshake; every handshake
// message is far shorter, so a full buffer always parses or fails.
constexpr std::size_t kMaxHandshakeRx = 4096;
// Largest frame body a receiver accepts; a longer declared body poisons
// the stream (Stats::oversize_drops).
constexpr std::size_t kMaxFrame = 16u << 20;
// Frames gathered per sendmsg(); matches the iovec stack array in
// net/batch_writer.cpp (3 segments per frame).
constexpr std::size_t kMaxBatchFrames = 128;
// Soft byte cap per batched sendmsg(); at least one frame is always
// offered. IOV_MAX caps the iovec count independently.
constexpr std::size_t kMaxBatchBytes = 256u << 10;
// epoll owner tags (epoll_event::data) that are not peer ids; the
// handshake with id k is tagged kHandshakeTag - k.
constexpr std::int64_t kWakeTag = -1;
constexpr std::int64_t kListenTag = -2;
constexpr std::int64_t kHandshakeTag = -3;

// Every socket the transport opens is non-blocking and close-on-exec: a
// process embedding the transport that forks and execs must not hand the
// child its listen socket (which would keep the port bound) or a link.
constexpr int kSockFlags = SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC;

std::int64_t handshake_tag(std::uint64_t id) {
  return kHandshakeTag - static_cast<std::int64_t>(id);
}

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// The one expiry rule for handshake deadlines (LinkRetry::should_dial
/// applies the same rule to redials), shared by service_timers() and
/// fold_timer_deadlines(): a deadline the epoll timeout folds to 0 ms must
/// also be one service_timers() expires, or the poll thread spins
/// epoll_wait(0) until the clock passes it.
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
#define RITAS_TRANSPORT_ATOMIC(field, c_id, unit, help) \
  std::atomic<std::uint64_t> field{0};
  RITAS_TRANSPORT_COUNTERS(RITAS_TRANSPORT_ATOMIC)
#undef RITAS_TRANSPORT_ATOMIC
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
    conns_.push_back(std::make_unique<Conn>(kMaxFrame));
    if (p < opts_.self) {
      // We dial every lower id; each link's jitter stream is independent.
      conns_[p]->retry =
          std::make_unique<LinkRetry>(opts_.backoff, seed ^ (0x9e3779b97f4a7c15ULL * (p + 1)));
    }
  }
  epoch_ns_ = now_ns();

  // Listen before anyone dials: a peer that dials us before our start()
  // lands in the accept backlog instead of hitting ECONNREFUSED and a
  // backoff. The handshake completes once our owner polls.
  Fd lfd(::socket(AF_INET, kSockFlags, 0));
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
  listen_fd_ = std::move(lfd);
  epoll_fd_ = Fd(::epoll_create1(EPOLL_CLOEXEC));
  // The wakeup pipe lets other threads interrupt poll_once() from here on.
  // Both ends are non-blocking: a write that finds the pipe full is a
  // wakeup already pending.
  int pipefd[2];
  if (!epoll_fd_.valid() || ::pipe2(pipefd, O_NONBLOCK | O_CLOEXEC) != 0) {
    throw std::runtime_error("epoll setup failed");
  }
  wake_rx_ = Fd(pipefd[0]);
  wake_tx_ = Fd(pipefd[1]);
  if (!watch(EPOLL_CTL_ADD, listen_fd_.get(), EPOLLIN, kListenTag) ||
      !watch(EPOLL_CTL_ADD, wake_rx_.get(), EPOLLIN, kWakeTag)) {
    throw std::runtime_error("epoll setup failed");
  }
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

bool TcpTransport::started() const {
  const std::uint32_t up = links_up();
  if (up < start_threshold()) return false;
  return up == opts_.n - 1 ||
         std::none_of(handshakes_.begin(), handshakes_.end(),
                      [](const Handshake& hs) { return hs.fd.valid(); });
}

std::runtime_error TcpTransport::setup_timeout() const {
  return std::runtime_error("TcpTransport: mesh setup timed out (" +
                            std::to_string(links_up()) + "/" +
                            std::to_string(start_threshold()) + " links up)");
}

void TcpTransport::start() {
  const std::uint64_t deadline =
      now_ms() + static_cast<std::uint64_t>(opts_.connect_timeout_ms);
  while (!started()) {
    if (stopped_.load()) {
      stop();  // this thread owns the sockets a request_stop() left open
      throw std::runtime_error("TcpTransport: stopped during start");
    }
    if (now_ms() > deadline) throw setup_timeout();
    poll_once(20);
  }
}

void TcpTransport::stop() {
  request_stop();
  for (auto& c : conns_) {
    c->fd.reset();
    c->state = LinkState::kDown;
    c->sid = 0;
  }
  handshakes_.clear();
  listen_fd_.reset();
  epoll_fd_.reset();
}

void TcpTransport::request_stop() {
  stopped_.store(true);
  wakeup();
}

void TcpTransport::wakeup() {
  const std::uint8_t b = 1;
  [[maybe_unused]] ssize_t k = ::write(wake_tx_.get(), &b, 1);
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

bool TcpTransport::watch(int op, int fd, std::uint32_t events, std::int64_t owner) {
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = static_cast<std::uint64_t>(owner);
  return ::epoll_ctl(epoll_fd_.get(), op, fd, &ev) == 0;
}

void TcpTransport::prep_entry(Conn& c, Retained& e, ProcessId to) {
  if (e.prep_sid == c.sid) return;  // header + MAC already current
  Writer macin(24);
  macin.u32(opts_.self);
  macin.u32(to);
  macin.u64(c.sid);
  macin.u64(e.counter);
  e.mac_trailer = keys_.mac_key(to).mac(macin.data(), e.frame);
  Writer hdr(kFrameHeader);
  hdr.u32(static_cast<std::uint32_t>(e.frame.size()));
  hdr.u64(c.sid);
  hdr.u64(e.counter);
  const ByteView hb = hdr.data();
  std::memcpy(e.hdr.data(), hb.data(), e.hdr.size());
  e.prep_sid = c.sid;
}

void TcpTransport::drain(Conn& c, ProcessId to) {
  if (c.state != LinkState::kUp || c.broken || !c.fd.valid()) return;
  bool blocked = false;
  for (;;) {
    if (c.retained.empty()) break;
    const std::uint64_t base = c.retained.front().counter;
    if (c.tx_write_next < base) {
      // Eviction outran the cursor: those frames are gone (queue_drops);
      // restart at the queue head. The partial-head eviction guard in
      // send() guarantees this never tears a half-written frame.
      c.tx_write_next = base;
      c.tx_partial = 0;
    }
    const std::uint64_t idx0 = c.tx_write_next - base;
    if (idx0 >= c.retained.size()) break;  // backlog fully written

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
      img.parts[2] = ByteView(e.mac_trailer.data(), e.mac_trailer.size());
      batch_bytes += img.size();
      ++nimg;
      // Soft cap: at least one frame is always offered.
      if (batch_bytes >= kMaxBatchBytes) break;
    }

    const BatchWriteResult r = sendmsg_batch(c.fd.get(), imgs, nimg,
                                             c.tx_partial, batch_iov_budget());
    counters_->sendmsg_calls.fetch_add(1, std::memory_order_relaxed);
    if (r.status == BatchWriteResult::Status::kAgain) {
      blocked = true;  // EPOLLOUT resumes byte-exactly from tx_partial
      break;
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
      c.broken = true;  // the next cycle reaps the stream and redials
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
      blocked = true;  // defensive: zero-byte progress, wait for POLLOUT
      break;
    }
    // Loop: more backlog past the frame/byte caps, or a partial head that
    // keeps pushing until the socket blocks (kAgain) or the queue drains.
  }
  // Ask for write readiness exactly while output is stuck in the kernel.
  // A failed MOD leaves tx_blocked as it was, so the next drain retries it.
  if (blocked != c.tx_blocked &&
      watch(EPOLL_CTL_MOD, c.fd.get(), blocked ? EPOLLIN | EPOLLOUT : EPOLLIN, to)) {
    c.tx_blocked = blocked;
  }
}

void TcpTransport::drain_pending() {
  for (ProcessId p = 0; p < opts_.n; ++p) {
    if (p != opts_.self) drain(*conns_[p], p);
  }
}

void TcpTransport::send(ProcessId to, Slice frame) {
  if (stopped_.load() || to >= opts_.n || to == opts_.self) return;
  Conn& c = *conns_[to];
  // Retain the frame for counter resync; the next drain MACs and writes
  // it, or, while the link is down, the next session's resync does.
  // Drop-oldest keeps the budget bounded; evicting a frame that never
  // reached a socket is real backpressure loss and is counted. The one
  // frame eviction must never touch is a half-written head — popping it
  // would tear the byte stream mid-frame.
  c.retained_bytes += frame.size();
  c.retained.push_back(Retained{c.tx_next++, std::move(frame), false, false});
  while (c.retained_bytes > opts_.send_queue_max_bytes && c.retained.size() > 1) {
    const Retained& victim = c.retained.front();
    if (c.tx_partial != 0 && victim.counter == c.tx_write_next) break;
    if (!victim.written) counters_->queue_drops.fetch_add(1, std::memory_order_relaxed);
    c.retained_bytes -= victim.frame.size();
    c.retained.pop_front();
  }
}

void TcpTransport::begin_dial(ProcessId peer) {
  Handshake hs;
  hs.id = next_handshake_id_++;
  hs.dialer = true;
  hs.await = Handshake::Await::kConnect;
  hs.peer = peer;
  hs.deadline_ms = now_ms() + static_cast<std::uint64_t>(opts_.handshake_timeout_ms);
  hs.fd = Fd(::socket(AF_INET, kSockFlags, 0));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(opts_.peers[peer].port);
  bool ok = hs.fd.valid() &&
            ::inet_pton(AF_INET, opts_.peers[peer].host.c_str(), &addr.sin_addr) == 1;
  int rc = -1;
  if (ok) {
    rc = ::connect(hs.fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    ok = (rc == 0 || errno == EINPROGRESS) &&
         watch(EPOLL_CTL_ADD, hs.fd.get(), EPOLLOUT, handshake_tag(hs.id));
  }
  if (!ok) {
    fail_handshake(hs);  // uncounted: no connection, no handshake
    return;
  }
  conns_[peer]->state = LinkState::kConnecting;
  handshakes_.push_back(std::move(hs));
  if (rc == 0) on_connected(handshakes_.back());
}

void TcpTransport::on_connected(Handshake& hs) {
  int err = 0;
  socklen_t len = sizeof(err);
  ::getsockopt(hs.fd.get(), SOL_SOCKET, SO_ERROR, &err, &len);
  if (err != 0) {
    fail_handshake(hs);
    return;
  }
  set_nodelay(hs.fd.get());
  hs.await = Handshake::Await::kReply;
  hs.nonce_d = rng_->next();
  if (!send_handshake(hs, /*header=*/true, /*floor=*/false) ||
      !watch(EPOLL_CTL_MOD, hs.fd.get(), EPOLLIN, handshake_tag(hs.id))) {
    fail_handshake(hs);
  }
}

Sha256::Digest TcpTransport::transcript_mac(const Handshake& hs, char label,
                                            std::uint64_t counter_field) const {
  return hs_mac(keys_.mac_key(hs.peer), label, hs.dialer ? opts_.self : hs.peer,
                hs.dialer ? hs.peer : opts_.self, hs.nonce_d, hs.nonce_a,
                counter_field);
}

bool TcpTransport::send_handshake(const Handshake& hs, bool header, bool floor) {
  Writer w(kHeaderSize + kFloorSize + kMacSize);
  if (header) {
    w.u32(kHandshakeMagic);
    w.u8(kWireVersion);
    w.u8(kFlagAuthenticate);
    w.u32(opts_.self);
    w.u64(hs.dialer ? hs.nonce_d : hs.nonce_a);
  }
  if (floor) {
    const std::uint64_t rx_expected = conns_[hs.peer]->rx_expected;
    w.u64(rx_expected);
    const auto mac = transcript_mac(hs, hs.dialer ? 'd' : 'a', rx_expected);
    w.raw(ByteView(mac.data(), mac.size()));
  }
  const ByteView msg = w.data();
  ssize_t k = -1;
  do {
    k = ::send(hs.fd.get(), msg.data(), msg.size(), MSG_NOSIGNAL);
  } while (k < 0 && errno == EINTR);
  return k == static_cast<ssize_t>(msg.size());
}

void TcpTransport::read_handshake(Handshake& hs) {
  std::uint8_t buf[kMaxHandshakeRx];
  bool eof = false;
  while (hs.rx.size() < kMaxHandshakeRx) {
    const ssize_t k = ::recv(hs.fd.get(), buf, sizeof(buf), 0);
    if (k > 0) {
      hs.rx.insert(hs.rx.end(), buf, buf + k);
      continue;
    }
    if (k < 0 && errno == EINTR) continue;
    eof = k == 0 || (errno != EAGAIN && errno != EWOULDBLOCK);
    break;
  }
  for (;;) {
    const bool header = hs.await != Handshake::Await::kConfirm;  // HELLO, REPLY
    const bool floor = hs.await != Handshake::Await::kHello;     // REPLY, CONFIRM
    const std::size_t size =
        (header ? kHeaderSize : 0) + (floor ? kFloorSize + kMacSize : 0);
    if (hs.rx.size() < size) {
      if (eof) fail_handshake(hs);  // the peer hung up mid-handshake
      return;
    }
    Reader r(ByteView(hs.rx.data(), size));
    bool ok = true;
    if (header) {
      const std::uint32_t magic = r.u32();
      const std::uint8_t version = r.u8();
      const std::uint8_t flags = r.u8();
      const std::uint32_t id = r.u32();
      const std::uint64_t nonce = r.u64();
      // A REPLY must come from the peer we dialed; a HELLO from a higher id
      // (only higher ids dial us).
      ok = magic == kHandshakeMagic && version == kWireVersion &&
           flags == kFlagAuthenticate &&
           (hs.dialer ? id == hs.peer : id > opts_.self && id < opts_.n);
      if (hs.dialer) {
        hs.nonce_a = nonce;
      } else {
        hs.peer = id;
        hs.nonce_d = nonce;
      }
    }
    std::uint64_t peer_rx_expected = 0;
    if (ok && floor) {
      peer_rx_expected = r.u64();
      const auto mac = transcript_mac(hs, hs.dialer ? 'a' : 'd', peer_rx_expected);
      ok = ct_equal(ByteView(mac.data(), mac.size()),
                    ByteView(hs.rx.data() + size - kMacSize, kMacSize));
    }
    if (!ok) {
      fail_handshake(hs);
      return;
    }
    hs.rx.erase(hs.rx.begin(), hs.rx.begin() + static_cast<std::ptrdiff_t>(size));
    if (hs.await == Handshake::Await::kHello) {
      // REPLY with our receive floor so the dialer can resync its counters.
      set_nodelay(hs.fd.get());
      hs.nonce_a = rng_->next();
      hs.await = Handshake::Await::kConfirm;
      if (!send_handshake(hs, /*header=*/true, /*floor=*/true)) {
        fail_handshake(hs);
        return;
      }
      continue;
    }
    if (hs.dialer && !send_handshake(hs, /*header=*/false, /*floor=*/true)) {
      fail_handshake(hs);  // the CONFIRM did not go out whole
      return;
    }
    complete_handshake(hs, peer_rx_expected);
    return;
  }
}

void TcpTransport::fail_handshake(Handshake& hs) {
  // A dial that never connected is a refused connect, not a handshake.
  if (hs.await != Handshake::Await::kConnect) {
    counters_->handshake_failures.fetch_add(1, std::memory_order_relaxed);
  }
  hs.fd.reset();
  if (hs.dialer) link_down(hs.peer);  // backoff; traces kLinkDown with sid 0
}

void TcpTransport::complete_handshake(Handshake& hs, std::uint64_t peer_rx_expected) {
  const ProcessId peer = hs.peer;
  Conn& c = *conns_[peer];
  // Authenticated: the new session replaces whatever the slot held (the
  // dialer redials only when its side of the old stream is dead).
  if (c.state == LinkState::kUp) link_down(peer);
  if (!watch(EPOLL_CTL_MOD, hs.fd.get(), EPOLLIN, peer)) {
    fail_handshake(hs);
    return;
  }
  const std::uint32_t dialer = hs.dialer ? opts_.self : peer;
  const std::uint32_t acceptor = hs.dialer ? peer : opts_.self;
  const std::uint64_t sid = derive_sid(keys_.mac_key(peer), dialer, acceptor,
                                      hs.nonce_d, hs.nonce_a);

  c.fd = std::move(hs.fd);
  c.sid = sid;
  c.broken = false;
  c.tx_partial = 0;
  c.tx_blocked = false;
  // Counter resync: everything below the peer's receive floor was
  // delivered in a previous session; everything at or above it is
  // retransmitted under the new session id, oldest first, ahead of any
  // new sends. The sid change invalidates every entry's prep (prep_sid
  // mismatch), so the drain re-MACs each frame under the new session.
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
  // Count the reconnect before the state store publishes the link: a
  // thread that sees it up (links_up(), link_states()) sees it counted.
  if (c.ever_up) counters_->link_reconnects.fetch_add(1, std::memory_order_relaxed);
  c.ever_up = true;
  c.state = LinkState::kUp;
  drain(c, peer);
  const std::uint64_t flushed = c.tx_write_next - resync_base;
  if (c.retry) c.retry->on_up();
  trace_link(TraceEventKind::kLinkHandshake, peer, flushed);
  trace_link(TraceEventKind::kLinkUp, peer, sid);
  // Bytes past the last handshake message are the new session's frames.
  if (!hs.rx.empty()) {
    c.rx.feed(hs.rx.data(), hs.rx.size());
    hs.rx.clear();
    process_rx(peer);
  }
}

void TcpTransport::link_down(ProcessId peer) {
  Conn& c = *conns_[peer];
  const bool was_up = c.state == LinkState::kUp;
  const std::uint64_t old_sid = c.sid;
  c.fd.reset();
  c.sid = 0;
  c.broken = false;
  c.kill_request = 0;
  c.tx_partial = 0;
  c.state = c.retry ? LinkState::kBackoff : LinkState::kDown;
  c.tx_blocked = false;
  c.rx.clear();
  if (c.retry) c.retry->on_down(now_ms());
  // A dialer's attempt that failed before its handshake traces with sid 0.
  if (was_up || c.retry) trace_link(TraceEventKind::kLinkDown, peer, old_sid);
}

void TcpTransport::execute_kill(ProcessId peer) {
  Conn& c = *conns_[peer];
  const std::uint8_t req = c.kill_request.exchange(0);
  const int fd = c.fd.get();
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
  conns_[peer]->kill_request = static_cast<std::uint8_t>(1 + static_cast<std::uint8_t>(mode));
  wakeup();
}

void TcpTransport::service_timers() {
  const std::uint64_t now = now_ms();
  for (ProcessId p = 0; p < opts_.n; ++p) {
    if (p == opts_.self) continue;
    Conn& c = *conns_[p];
    if (c.broken) {
      link_down(p);
    } else {
      execute_kill(p);  // a no-op unless kill_link() asked
    }
    if (c.retry && (c.state == LinkState::kDown || c.state == LinkState::kBackoff) &&
        c.retry->should_dial(now)) {
      begin_dial(p);
    }
  }
  for (Handshake& hs : handshakes_) {
    if (hs.fd.valid() && deadline_passed(now, hs.deadline_ms)) fail_handshake(hs);
  }
  // The one place finished and failed handshakes are reaped.
  handshakes_.erase(
      std::remove_if(handshakes_.begin(), handshakes_.end(),
                     [](const Handshake& hs) { return !hs.fd.valid(); }),
      handshakes_.end());
}

int TcpTransport::fold_timer_deadlines(int timeout_ms) {
  std::uint64_t nearest = ~0ULL;
  for (ProcessId p = 0; p < opts_.n; ++p) {
    if (p == opts_.self) continue;
    const Conn& c = *conns_[p];
    if (c.retry && c.state == LinkState::kBackoff) {
      nearest = std::min(nearest, c.retry->retry_at_ms());
    }
  }
  for (const Handshake& hs : handshakes_) {
    if (hs.fd.valid()) nearest = std::min(nearest, hs.deadline_ms);
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
  if (owner == kWakeTag) {
    if (rin || rerr) {
      std::uint8_t buf[256];
      while (::read(wake_rx_.get(), buf, sizeof(buf)) > 0) {
      }
    }
    return;
  }
  if (owner == kListenTag) {
    for (;;) {
      Fd fd(::accept4(listen_fd_.get(), nullptr, nullptr,
                      SOCK_NONBLOCK | SOCK_CLOEXEC));
      if (!fd.valid()) break;
      Handshake hs;
      hs.id = next_handshake_id_++;
      hs.fd = std::move(fd);
      hs.deadline_ms = now_ms() + static_cast<std::uint64_t>(opts_.handshake_timeout_ms);
      if (!watch(EPOLL_CTL_ADD, hs.fd.get(), EPOLLIN, handshake_tag(hs.id))) continue;
      handshakes_.push_back(std::move(hs));
    }
    return;
  }
  if (owner <= kHandshakeTag) {
    const auto id = static_cast<std::uint64_t>(kHandshakeTag - owner);
    for (Handshake& hs : handshakes_) {
      if (hs.id != id || !hs.fd.valid()) continue;
      if (hs.await == Handshake::Await::kConnect) {
        if (rout || rerr) on_connected(hs);
      } else if (rin || rerr) {
        read_handshake(hs);
      }
      break;
    }
    return;
  }
  // A peer tag is an established session (complete_handshake re-tags the
  // socket). An earlier event of this batch may have torn it down.
  const ProcessId peer = static_cast<ProcessId>(owner);
  if (peer >= opts_.n || peer == opts_.self) return;
  Conn& c = *conns_[peer];
  if (c.state != LinkState::kUp) return;
  if (rin || rerr) handle_readable(peer);
  // handle_readable may have torn the link down: re-check before the
  // write-side resume so a stale EPOLLOUT can't touch a dead stream.
  if (rout && c.state == LinkState::kUp) drain(c, peer);
}

void TcpTransport::wait_with_epoll(int timeout_ms) {
  epoll_event evs[64];
  const int rc = ::epoll_wait(epoll_fd_.get(), evs, 64, timeout_ms);
  for (int i = 0; i < rc; ++i) {
    const std::int64_t owner = static_cast<std::int64_t>(evs[i].data.u64);
    const std::uint32_t rev = evs[i].events;
    dispatch_event(owner, (rev & EPOLLIN) != 0, (rev & EPOLLOUT) != 0,
                   (rev & (EPOLLERR | EPOLLHUP)) != 0);
  }
}

void TcpTransport::poll_once(int timeout_ms) {
  if (stopped_.load()) return;
  service_timers();
  // Top-of-cycle drain: flush frames enqueued since the last cycle (by
  // tasks the owner ran between two polls).
  drain_pending();
  const int tmo = fold_timer_deadlines(timeout_ms);
  wait_with_epoll(tmo);
  // Flush-before-return: deliveries above may have triggered sends from
  // this thread (sink → protocol → send), which only enqueue.
  drain_pending();
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
    if (ok) {
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
    if (p != opts_.self) out[p] = conns_[p]->state;
  }
  return out;
}

std::uint32_t TcpTransport::links_up() const {
  std::uint32_t up = 0;
  for (ProcessId p = 0; p < opts_.n; ++p) {
    if (p != opts_.self && conns_[p]->state == LinkState::kUp) ++up;
  }
  return up;
}

TcpTransport::Stats TcpTransport::stats() const {
  Stats s;
#define RITAS_TRANSPORT_LOAD(field, c_id, unit, help) \
  s.field = counters_->field.load(std::memory_order_relaxed);
  RITAS_TRANSPORT_COUNTERS(RITAS_TRANSPORT_LOAD)
#undef RITAS_TRANSPORT_LOAD
  return s;
}

}  // namespace ritas::net
