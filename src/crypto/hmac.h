// HMAC (RFC 2104) over any of the project's hash functions.
//
// The TCP transport authenticates every frame with HMAC-SHA-256; tests also
// validate HMAC-SHA-1 against RFC 2202 vectors. The matrix echo broadcast
// deliberately does NOT use HMAC — it uses the paper's plain H(m || s_ij)
// construction (§2.3), which the paper describes as "a simple and efficient
// form of Message Authentication Code".
#pragma once

#include <cstring>
#include <type_traits>

#include "common/bytes.h"
#include "crypto/sha1.h"
#include "crypto/sha256.h"

namespace ritas {

/// An HMAC key with the key blocks already absorbed: the inner and outer
/// hash states after ipad and opad. Keying costs two compressions, so a
/// long-lived key (a pairwise link key, the group coin key) is keyed once
/// and every MAC under it then copies the two states instead of rehashing
/// the key blocks. Hash must expose kBlockSize, kDigestSize, Digest,
/// update(), finish() like Sha1 / Sha256, and be trivially copyable.
template <typename Hash>
class HmacKey {
  static_assert(std::is_trivially_copyable_v<Hash>);

 public:
  /// The empty key (all-zero key block).
  HmacKey() : HmacKey(ByteView{}) {}

  explicit HmacKey(ByteView key) {
    std::uint8_t key_block[Hash::kBlockSize] = {0};
    if (key.size() > Hash::kBlockSize) {
      const auto digest = Hash::hash(key);
      std::memcpy(key_block, digest.data(), digest.size());
    } else if (!key.empty()) {
      std::memcpy(key_block, key.data(), key.size());
    }
    std::uint8_t pad[Hash::kBlockSize];
    for (std::size_t i = 0; i < Hash::kBlockSize; ++i) {
      pad[i] = static_cast<std::uint8_t>(key_block[i] ^ 0x36);
    }
    inner_.update(ByteView(pad, Hash::kBlockSize));
    for (std::size_t i = 0; i < Hash::kBlockSize; ++i) {
      pad[i] = static_cast<std::uint8_t>(key_block[i] ^ 0x5c);
    }
    outer_.update(ByteView(pad, Hash::kBlockSize));
  }

  /// HMAC_Hash(key, msg1 ‖ msg2 ‖ ...). Accepting multiple views lets
  /// callers MAC a small header plus a shared frame body without
  /// materializing the concatenation (see TcpTransport::prep_entry).
  template <typename... Views>
  typename Hash::Digest mac(Views... msg) const {
    Hash inner = inner_;
    (inner.update(msg), ...);
    const auto inner_digest = inner.finish();
    Hash outer = outer_;
    outer.update(ByteView(inner_digest.data(), inner_digest.size()));
    return outer.finish();
  }

 private:
  Hash inner_;
  Hash outer_;
};

using HmacSha256Key = HmacKey<Sha256>;

/// One-shot HMAC_Hash(key, msg1 ‖ msg2 ‖ ...): keys, then MACs once.
template <typename Hash, typename... Views>
typename Hash::Digest hmac(ByteView key, Views... msg) {
  return HmacKey<Hash>(key).mac(msg...);
}

inline Sha1::Digest hmac_sha1(ByteView key, ByteView msg) {
  return hmac<Sha1>(key, msg);
}
inline Sha256::Digest hmac_sha256(ByteView key, ByteView msg) {
  return hmac<Sha256>(key, msg);
}
/// HMAC over header ‖ body without concatenating them.
inline Sha256::Digest hmac_sha256_2(ByteView key, ByteView header,
                                    ByteView body) {
  return hmac<Sha256>(key, header, body);
}

}  // namespace ritas
