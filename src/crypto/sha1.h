// SHA-1 (FIPS 180-4), implemented from scratch.
//
// RITAS uses SHA-1 where the paper does inside the protocols: the matrix
// echo broadcast's hash vectors H(m || s_ij) (§2.3) and the digests that
// reliable broadcast tallies. SHA-1 is cryptographically broken for
// collision resistance today; it is kept because the point of this codebase
// is to reproduce the 2006 system. The reliable channel's per-frame
// integrity (the IPSec AH stand-in) is HMAC-SHA-256 (crypto/sha256.h).
#pragma once

#include <cstdint>

#include "crypto/md_hash.h"

namespace ritas {

struct Sha1Core {
  static constexpr std::size_t kWords = 5;
  static constexpr std::uint32_t kIv[kWords] = {
      0x67452301u, 0xefcdab89u, 0x98badcfeu, 0x10325476u, 0xc3d2e1f0u};
  static void compress(std::uint32_t* state, const std::uint8_t* blocks,
                       std::size_t count);
};

using Sha1 = MdHash<Sha1Core>;

}  // namespace ritas
