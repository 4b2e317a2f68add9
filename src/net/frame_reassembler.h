// Incremental splitter for the reliable-channel byte stream.
//
// The data-frame format (docs/PROTOCOLS.md "Reliable channel") is
// self-delimiting: u32 body_len | u64 sid | u64 counter | body | 32 B mac.
// TCP delivers that stream at arbitrary byte boundaries, so the transport
// accumulates bytes here and pulls whole frames out. The class is pure and
// position-agnostic by construction: feeding a stream one byte at a time,
// at random split points, or whole produces the identical frame sequence
// and the identical oversize verdict (tests/test_transport_batch.cpp
// replays the malformed-frame corpus through it at every granularity).
//
// MAC verification, session/replay filtering and delivery stay in
// TcpTransport — this layer only finds frame boundaries, so it can be
// driven deterministically without sockets or keys.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/bytes.h"
#include "common/serialize.h"

namespace ritas::net {

class FrameReassembler {
 public:
  static constexpr std::size_t kHeaderSize = 4 + 8 + 8;  // len | sid | counter
  static constexpr std::size_t kMacSize = 32;

  struct Frame {
    std::uint64_t sid = 0;
    std::uint64_t counter = 0;
    // Views into the internal window; valid until consume()/feed()/clear().
    ByteView body;
    ByteView mac;
  };

  enum class Status {
    kNeedMore,  // not enough buffered bytes for the next frame
    kFrame,     // `out` holds the next frame; call consume() to advance
    kOversize,  // declared body_len exceeds max_frame: poison the stream
  };

  explicit FrameReassembler(std::size_t max_frame) : max_frame_(max_frame) {}

  void feed(const std::uint8_t* data, std::size_t len) {
    buf_.insert(buf_.end(), data, data + len);
  }
  void feed(ByteView data) { feed(data.data(), data.size()); }

  /// Parses the frame at the cursor without consuming it. The oversize
  /// check runs as soon as the header is complete — a Byzantine peer
  /// declaring a huge body is rejected before it can make us buffer it.
  Status next(Frame& out) {
    const std::size_t avail = buf_.size() - off_;
    if (avail < kHeaderSize) return Status::kNeedMore;
    Reader hdr(ByteView(buf_.data() + off_, kHeaderSize));
    const std::uint32_t body_len = hdr.u32();
    const std::uint64_t sid = hdr.u64();
    const std::uint64_t counter = hdr.u64();
    if (body_len > max_frame_) return Status::kOversize;
    const std::size_t total = kHeaderSize + body_len + kMacSize;
    if (avail < total) return Status::kNeedMore;
    out.sid = sid;
    out.counter = counter;
    out.body = ByteView(buf_.data() + off_ + kHeaderSize, body_len);
    out.mac = ByteView(buf_.data() + off_ + kHeaderSize + body_len, kMacSize);
    pending_ = total;
    return Status::kFrame;
  }

  /// Advances past the frame last returned by next().
  void consume() {
    off_ += pending_;
    pending_ = 0;
  }

  /// Drops the consumed prefix; call once per drain loop, not per frame,
  /// so a burst of small frames pays one memmove.
  void compact() {
    if (off_ == 0) return;
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(off_));
    off_ = 0;
  }

  void clear() {
    buf_.clear();
    off_ = 0;
    pending_ = 0;
  }

  /// Unconsumed bytes currently buffered.
  std::size_t buffered() const { return buf_.size() - off_; }

 private:
  Bytes buf_;
  std::size_t off_ = 0;      // consumed prefix
  std::size_t pending_ = 0;  // size of the frame last returned by next()
  std::size_t max_frame_;
};

}  // namespace ritas::net
