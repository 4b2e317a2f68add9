#include "crypto/sha1.h"

namespace ritas {

namespace {
inline std::uint32_t rotl32(std::uint32_t x, int k) {
  return (x << k) | (x >> (32 - k));
}
}  // namespace

void Sha1Core::compress(std::uint32_t* state, const std::uint8_t* blocks,
                        std::size_t count) {
  for (; count > 0; --count, blocks += 64) {
    std::uint32_t w[80];
    for (int i = 0; i < 16; ++i) w[i] = load_be32(blocks + 4 * i);
    for (int i = 16; i < 80; ++i) {
      w[i] = rotl32(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1);
    }
    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4];
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
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
  }
}

}  // namespace ritas
