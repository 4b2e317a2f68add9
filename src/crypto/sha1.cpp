#include "crypto/sha1.h"

#include <cstring>

namespace ritas {

namespace {
inline std::uint32_t rotl32(std::uint32_t x, int k) {
  return (x << k) | (x >> (32 - k));
}
}  // namespace

void Sha1::reset() {
  h_[0] = 0x67452301u;
  h_[1] = 0xefcdab89u;
  h_[2] = 0x98badcfeu;
  h_[3] = 0x10325476u;
  h_[4] = 0xc3d2e1f0u;
  buffered_ = 0;
  total_ = 0;
}

void Sha1::update(ByteView data) {
  if (data.empty()) return;  // an empty view may carry a null data()
  total_ += data.size();
  std::size_t off = 0;
  if (buffered_ > 0) {
    const std::size_t need = kBlockSize - buffered_;
    const std::size_t take = data.size() < need ? data.size() : need;
    std::memcpy(buffer_ + buffered_, data.data(), take);
    buffered_ += take;
    off = take;
    if (buffered_ == kBlockSize) {
      process_block(buffer_);
      buffered_ = 0;
    }
  }
  while (data.size() - off >= kBlockSize) {
    process_block(data.data() + off);
    off += kBlockSize;
  }
  if (off < data.size()) {
    std::memcpy(buffer_, data.data() + off, data.size() - off);
    buffered_ = data.size() - off;
  }
}

Sha1::Digest Sha1::finish() {
  const std::uint64_t bit_len = total_ * 8;
  // Pad in place: 0x80, zeros up to byte 56 (spilling into a second block
  // when fewer than 9 bytes are free), then the big-endian bit length.
  buffer_[buffered_++] = 0x80;
  if (buffered_ > kBlockSize - 8) {
    std::memset(buffer_ + buffered_, 0, kBlockSize - buffered_);
    process_block(buffer_);
    buffered_ = 0;
  }
  std::memset(buffer_ + buffered_, 0, kBlockSize - 8 - buffered_);
  for (int i = 0; i < 8; ++i) {
    buffer_[kBlockSize - 8 + i] =
        static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  process_block(buffer_);
  buffered_ = 0;
  Digest out;
  for (int i = 0; i < 5; ++i) {
    out[4 * i + 0] = static_cast<std::uint8_t>(h_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(h_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(h_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(h_[i]);
  }
  return out;
}

Sha1::Digest Sha1::hash(ByteView data) {
  Sha1 ctx;
  ctx.update(data);
  return ctx.finish();
}

void Sha1::process_block(const std::uint8_t* block) {
  std::uint32_t w[80];
  for (int i = 0; i < 16; ++i) {
    w[i] = static_cast<std::uint32_t>(block[4 * i]) << 24 |
           static_cast<std::uint32_t>(block[4 * i + 1]) << 16 |
           static_cast<std::uint32_t>(block[4 * i + 2]) << 8 |
           static_cast<std::uint32_t>(block[4 * i + 3]);
  }
  for (int i = 16; i < 80; ++i) {
    w[i] = rotl32(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1);
  }
  std::uint32_t a = h_[0], b = h_[1], c = h_[2], d = h_[3], e = h_[4];
  for (int i = 0; i < 80; ++i) {
    std::uint32_t f, k;
    if (i < 20) {
      f = (b & c) | (~b & d);
      k = 0x5a827999u;
    } else if (i < 40) {
      f = b ^ c ^ d;
      k = 0x6ed9eba1u;
    } else if (i < 60) {
      f = (b & c) | (b & d) | (c & d);
      k = 0x8f1bbcdcu;
    } else {
      f = b ^ c ^ d;
      k = 0xca62c1d6u;
    }
    const std::uint32_t tmp = rotl32(a, 5) + f + e + k + w[i];
    e = d;
    d = c;
    c = rotl32(b, 30);
    b = a;
    a = tmp;
  }
  h_[0] += a;
  h_[1] += b;
  h_[2] += c;
  h_[3] += d;
  h_[4] += e;
}

}  // namespace ritas
