// The Merkle–Damgård driver of FIPS 180-4's 32-bit-word hashes (SHA-1,
// SHA-256): 64-byte block buffering, padding, the big-endian bit length and
// the big-endian digest, written once. A hash supplies only a Core:
//
//   struct Core {
//     static constexpr std::size_t kWords;           // state words
//     static constexpr std::uint32_t kIv[kWords];    // initial hash value
//     // Folds `count` consecutive 64-byte blocks into `state`.
//     static void compress(std::uint32_t* state, const std::uint8_t* blocks,
//                          std::size_t count);
//   };
//
// compress is the one seam a hardware-accelerated core would replace.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>

#include "common/bytes.h"

namespace ritas {

/// The big-endian 32-bit word at p (message schedule loads).
inline std::uint32_t load_be32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) << 24 |
         static_cast<std::uint32_t>(p[1]) << 16 |
         static_cast<std::uint32_t>(p[2]) << 8 |
         static_cast<std::uint32_t>(p[3]);
}

template <typename Core>
class MdHash {
 public:
  static constexpr std::size_t kDigestSize = 4 * Core::kWords;
  static constexpr std::size_t kBlockSize = 64;
  using Digest = std::array<std::uint8_t, kDigestSize>;

  MdHash() { reset(); }

  void reset() {
    std::memcpy(h_, Core::kIv, sizeof h_);
    buffered_ = 0;
    total_ = 0;
  }

  void update(ByteView data) {
    if (data.empty()) return;  // an empty view may carry a null data()
    total_ += data.size();
    const std::uint8_t* p = data.data();
    std::size_t left = data.size();
    if (buffered_ > 0) {
      const std::size_t take = std::min(left, kBlockSize - buffered_);
      std::memcpy(buffer_ + buffered_, p, take);
      buffered_ += take;
      p += take;
      left -= take;
      if (buffered_ < kBlockSize) return;
      Core::compress(h_, buffer_, 1);
      buffered_ = 0;
    }
    if (const std::size_t blocks = left / kBlockSize; blocks > 0) {
      Core::compress(h_, p, blocks);
      p += blocks * kBlockSize;
      left -= blocks * kBlockSize;
    }
    std::memcpy(buffer_, p, left);
    buffered_ = left;
  }

  /// Finalizes and returns the digest. The object must be reset() before
  /// further use.
  Digest finish() {
    const std::uint64_t bit_len = total_ * 8;
    // Pad in place: 0x80, zeros up to byte 56 (spilling into a second block
    // when fewer than 9 bytes are free), then the big-endian bit length.
    buffer_[buffered_++] = 0x80;
    if (buffered_ > kBlockSize - 8) {
      std::memset(buffer_ + buffered_, 0, kBlockSize - buffered_);
      Core::compress(h_, buffer_, 1);
      buffered_ = 0;
    }
    std::memset(buffer_ + buffered_, 0, kBlockSize - 8 - buffered_);
    for (int i = 0; i < 8; ++i) {
      buffer_[kBlockSize - 8 + i] =
          static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
    }
    Core::compress(h_, buffer_, 1);
    buffered_ = 0;
    Digest out;
    for (std::size_t i = 0; i < kDigestSize; ++i) {
      out[i] = static_cast<std::uint8_t>(h_[i / 4] >> (24 - 8 * (i % 4)));
    }
    return out;
  }

  /// One-shot convenience.
  static Digest hash(ByteView data) {
    MdHash ctx;
    ctx.update(data);
    return ctx.finish();
  }

 private:
  std::uint32_t h_[Core::kWords];
  std::uint8_t buffer_[kBlockSize];
  std::size_t buffered_ = 0;
  std::uint64_t total_ = 0;
};

}  // namespace ritas
