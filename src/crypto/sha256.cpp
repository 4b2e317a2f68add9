#include "crypto/sha256.h"

#include <cstring>

namespace ritas {

namespace {
inline std::uint32_t rotr32(std::uint32_t x, int k) {
  return (x >> k) | (x << (32 - k));
}

constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};
}  // namespace

void Sha256::reset() {
  h_[0] = 0x6a09e667u;
  h_[1] = 0xbb67ae85u;
  h_[2] = 0x3c6ef372u;
  h_[3] = 0xa54ff53au;
  h_[4] = 0x510e527fu;
  h_[5] = 0x9b05688cu;
  h_[6] = 0x1f83d9abu;
  h_[7] = 0x5be0cd19u;
  buffered_ = 0;
  total_ = 0;
}

void Sha256::update(ByteView data) {
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

Sha256::Digest Sha256::finish() {
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
  for (int i = 0; i < 8; ++i) {
    out[4 * i + 0] = static_cast<std::uint8_t>(h_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(h_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(h_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(h_[i]);
  }
  return out;
}

Sha256::Digest Sha256::hash(ByteView data) {
  Sha256 ctx;
  ctx.update(data);
  return ctx.finish();
}

void Sha256::process_block(const std::uint8_t* block) {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = static_cast<std::uint32_t>(block[4 * i]) << 24 |
           static_cast<std::uint32_t>(block[4 * i + 1]) << 16 |
           static_cast<std::uint32_t>(block[4 * i + 2]) << 8 |
           static_cast<std::uint32_t>(block[4 * i + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 =
        rotr32(w[i - 15], 7) ^ rotr32(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 =
        rotr32(w[i - 2], 17) ^ rotr32(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }
  std::uint32_t a = h_[0], b = h_[1], c = h_[2], d = h_[3];
  std::uint32_t e = h_[4], f = h_[5], g = h_[6], h = h_[7];
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr32(e, 6) ^ rotr32(e, 11) ^ rotr32(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t t1 = h + s1 + ch + kK[i] + w[i];
    const std::uint32_t s0 = rotr32(a, 2) ^ rotr32(a, 13) ^ rotr32(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t t2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }
  h_[0] += a;
  h_[1] += b;
  h_[2] += c;
  h_[3] += d;
  h_[4] += e;
  h_[5] += f;
  h_[6] += g;
  h_[7] += h;
}

}  // namespace ritas
