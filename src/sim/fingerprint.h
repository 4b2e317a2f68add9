// Seed derivation and the streaming run fingerprint shared by the schedule
// explorer (sim/explore.cpp) and the WAN campaign (sim/campaign.cpp).
#pragma once

#include <cstdint>

#include "common/bytes.h"
#include "common/rng.h"

namespace ritas::sim {

/// Independent stream seed for `tag` under `seed`: each tool hashes its
/// seed with distinct tags so its streams never collide.
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t st = seed ^ tag;
  return splitmix64(st);
}

/// Order-dependent streaming hash over a run's observation stream.
struct Fingerprint {
  std::uint64_t h = 0x243f6a8885a308d3ull;
  void u64(std::uint64_t v) {
    std::uint64_t st = h ^ (v + 0x9e3779b97f4a7c15ull);
    h = splitmix64(st);
  }
  void bytes(ByteView b) {
    u64(b.size());
    std::uint64_t acc = 0;
    int k = 0;
    for (std::uint8_t c : b) {
      acc = (acc << 8) | c;
      if (++k == 8) {
        u64(acc);
        acc = 0;
        k = 0;
      }
    }
    if (k != 0) u64(acc);
  }
};

}  // namespace ritas::sim
