// Pairwise shared secret keys.
//
// The paper assumes "each pair of processes (p_i, p_j) shares a secret key
// s_ij", distributed out-of-band by a trusted dealer before the protocols
// run (§2). `KeyChain` reproduces that setup: a dealer derives the full
// triangle of pairwise keys from one master secret, and each process is
// given only its own row. Key distribution is explicitly outside the
// performance path, exactly as in the paper.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "crypto/hmac.h"

namespace ritas {

class KeyChain {
 public:
  static constexpr std::size_t kKeySize = 32;

  /// Dealer-side derivation: returns p_self's row of pairwise keys for a
  /// group of n processes, derived deterministically from `master`.
  /// Symmetry s_ij == s_ji holds across rows derived from the same master.
  static KeyChain deal(ByteView master, std::uint32_t n, std::uint32_t self);

  /// Builds a keychain from externally supplied keys (keys[j] = s_{self,j};
  /// keys[self] is unused but must be present).
  KeyChain(std::uint32_t self, std::vector<Bytes> keys);

  std::uint32_t self() const { return self_; }
  std::uint32_t size() const { return static_cast<std::uint32_t>(keys_.size()); }

  /// The secret shared with process j. Precondition: j < size(), j != self
  /// is allowed but the self key is also defined (useful for loopback MACs).
  ByteView key(std::uint32_t j) const;

  /// key(j) keyed for HMAC-SHA-256 once, at construction: the frame and
  /// handshake MACs on link j start from these states.
  const HmacSha256Key& mac_key(std::uint32_t j) const;

  /// Group-wide secret shared by ALL processes, dealt alongside the
  /// pairwise keys. Used by the Rabin-style dealt common coin (every
  /// process derives the same unpredictable-to-outsiders coin per round —
  /// the engineering stand-in for predistributed coin shares). Empty when
  /// the chain was built from externally supplied pairwise keys only.
  ByteView group_key() const { return group_key_; }
  /// group_key() keyed for HMAC-SHA-256 (the dealt coin's MAC).
  const HmacSha256Key& group_mac_key() const { return group_mac_key_; }
  void set_group_key(Bytes k) {
    group_key_ = std::move(k);
    group_mac_key_ = HmacSha256Key(group_key_);
  }

 private:
  std::uint32_t self_;
  std::vector<Bytes> keys_;
  std::vector<HmacSha256Key> mac_keys_;
  Bytes group_key_;
  HmacSha256Key group_mac_key_;
};

}  // namespace ritas
