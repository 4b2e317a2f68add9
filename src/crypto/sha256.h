// SHA-256 (FIPS 180-4), implemented from scratch.
//
// Used by the real-socket transport's HMAC integrity layer (the modern
// stand-in for IPSec AH), the dealt keys and the signed-echo baseline.
#pragma once

#include <cstdint>

#include "crypto/md_hash.h"

namespace ritas {

struct Sha256Core {
  static constexpr std::size_t kWords = 8;
  static constexpr std::uint32_t kIv[kWords] = {
      0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u, 0xa54ff53au,
      0x510e527fu, 0x9b05688cu, 0x1f83d9abu, 0x5be0cd19u};
  static void compress(std::uint32_t* state, const std::uint8_t* blocks,
                       std::size_t count);
};

using Sha256 = MdHash<Sha256Core>;

}  // namespace ritas
