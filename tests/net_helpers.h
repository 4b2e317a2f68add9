// Helpers for real-socket tests: free-port discovery on localhost and a
// hand-rolled wire peer for adversarial channel tests.
#pragma once

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "common/serialize.h"
#include "crypto/hmac.h"
#include "net/tcp_transport.h"

namespace ritas::test {

/// Reserves `count` distinct free TCP ports by binding to port 0. The
/// sockets are closed before returning, so a race with other processes is
/// possible but vanishingly rare in this environment.
inline std::vector<std::uint16_t> free_ports(std::size_t count) {
  std::vector<int> fds;
  std::vector<std::uint16_t> ports;
  for (std::size_t i = 0; i < count; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throw std::runtime_error("socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd);
      throw std::runtime_error("bind() failed");
    }
    socklen_t len = sizeof(addr);
    ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
    ports.push_back(ntohs(addr.sin_port));
    fds.push_back(fd);
  }
  for (int fd : fds) ::close(fd);
  return ports;
}

inline std::vector<net::PeerAddr> local_peers(const std::vector<std::uint16_t>& ports) {
  std::vector<net::PeerAddr> peers;
  for (auto p : ports) peers.push_back(net::PeerAddr{"127.0.0.1", p});
  return peers;
}

/// A hand-rolled wire peer that speaks the channel protocol of
/// docs/PROTOCOLS.md ("Reliable channel") from scratch — an independent
/// implementation of the handshake and frame formats, used both to
/// cross-check the wire spec and to inject adversarial traffic (tampered
/// MACs, stale counters, replays from old sessions, malformed handshakes)
/// that TcpTransport itself can never be coaxed into producing.
class RawPeer {
 public:
  /// Prepares a dialer impersonating process `self_id` toward the victim
  /// listening on `port`. `key` is the pairwise secret s_{self,victim}
  /// (pass the real one to model an insider, a wrong one for an outsider).
  RawPeer(std::uint16_t port, std::uint32_t self_id, std::uint32_t victim_id,
          Bytes key)
      : port_(port), self_(self_id), victim_(victim_id), key_(std::move(key)) {}

  ~RawPeer() { close(); }

  /// TCP-connects to the victim, retrying while its listener comes up.
  /// Throws on persistent failure.
  void connect(int timeout_ms = 5000) {
    close();
    for (int waited = 0;; waited += 10) {
      fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd_ < 0) throw std::runtime_error("RawPeer: socket() failed");
      int one = 1;
      ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      addr.sin_port = htons(port_);
      if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
        return;
      }
      ::close(fd_);
      fd_ = -1;
      if (waited >= timeout_ms) throw std::runtime_error("RawPeer: connect() failed");
      ::usleep(10'000);
    }
  }

  /// Runs the full dialer handshake (HELLO -> REPLY -> CONFIRM) with
  /// `nonce_d`, deriving the session id and learning the victim's receive
  /// floor. Returns false if the victim hung up or the REPLY is malformed.
  bool handshake(std::uint64_t nonce_d, std::uint64_t my_rx_expected = 0) {
    nonce_d_ = nonce_d;
    Writer hello(18);
    hello.u32(kMagic);
    hello.u8(kVersion);
    hello.u8(1);  // authenticate
    hello.u32(self_);
    hello.u64(nonce_d);
    send_raw(hello.data());
    Bytes reply(26 + 32);
    if (!recv_exact(reply.data(), reply.size())) return false;
    Reader r(ByteView(reply.data(), 26));
    if (r.u32() != kMagic || r.u8() != kVersion || r.u8() != 1) return false;
    if (r.u32() != victim_) return false;
    nonce_a_ = r.u64();
    acked_ = r.u64();
    sid_ = derive_sid();
    Writer confirm(8 + 32);
    confirm.u64(my_rx_expected);
    const auto mac = hs_mac('d', my_rx_expected);
    confirm.raw(ByteView(mac.data(), mac.size()));
    send_raw(confirm.data());
    return true;
  }

  /// Encodes one well-formed data frame (header, body, MAC) for the given
  /// session/counter. Tests mutate the result to forge variants.
  Bytes make_frame(std::uint64_t sid, std::uint64_t counter, ByteView body) const {
    Writer w(20 + body.size() + 32);
    w.u32(static_cast<std::uint32_t>(body.size()));
    w.u64(sid);
    w.u64(counter);
    w.raw(body);
    Writer macin(24);
    macin.u32(self_);
    macin.u32(victim_);
    macin.u64(sid);
    macin.u64(counter);
    const auto mac = hmac_sha256_2(key_, macin.data(), body);
    w.raw(ByteView(mac.data(), mac.size()));
    return std::move(w).take();
  }

  /// Sends a well-formed frame under the current session.
  void send_frame(std::uint64_t counter, ByteView body) {
    send_raw(make_frame(sid_, counter, body));
  }

  void send_raw(ByteView data) {
    std::size_t off = 0;
    while (off < data.size()) {
      const ssize_t k =
          ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
      if (k <= 0) throw std::runtime_error("RawPeer: send() failed");
      off += static_cast<std::size_t>(k);
    }
  }

  void close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  std::uint64_t sid() const { return sid_; }
  /// The victim's receive floor from the last REPLY (counters below this
  /// were already delivered to it).
  std::uint64_t acked() const { return acked_; }

 private:
  static constexpr std::uint32_t kMagic = 0x52495441;
  static constexpr std::uint8_t kVersion = 2;

  Sha256::Digest hs_mac(char label, std::uint64_t counter_field) const {
    Writer w(40);
    w.raw(to_bytes("RITAS-hs-"));
    w.u8(static_cast<std::uint8_t>(label));
    w.u32(self_);     // dialer
    w.u32(victim_);   // acceptor
    w.u64(nonce_d_);
    w.u64(nonce_a_);
    w.u64(counter_field);
    return hmac_sha256(key_, w.data());
  }

  std::uint64_t derive_sid() const {
    const auto mac = hs_mac('s', 0);
    Reader r(ByteView(mac.data(), 8));
    const std::uint64_t sid = r.u64();
    return sid == 0 ? 1 : sid;
  }

  bool recv_exact(std::uint8_t* buf, std::size_t len) {
    std::size_t off = 0;
    while (off < len) {
      const ssize_t k = ::recv(fd_, buf + off, len - off, 0);
      if (k <= 0) return false;
      off += static_cast<std::size_t>(k);
    }
    return true;
  }

  std::uint16_t port_;
  std::uint32_t self_, victim_;
  Bytes key_;
  int fd_ = -1;
  std::uint64_t nonce_d_ = 0, nonce_a_ = 0, sid_ = 0, acked_ = 0;
};

}  // namespace ritas::test
