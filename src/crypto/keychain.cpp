#include "crypto/keychain.h"

#include <stdexcept>

#include "common/serialize.h"
#include "crypto/hmac.h"

namespace ritas {

KeyChain KeyChain::deal(ByteView master, std::uint32_t n, std::uint32_t self) {
  if (self >= n) throw std::invalid_argument("KeyChain::deal: self out of range");
  const HmacSha256Key master_key(master);  // keyed once for n + 1 MACs
  std::vector<Bytes> keys;
  keys.reserve(n);
  for (std::uint32_t j = 0; j < n; ++j) {
    // Key for the unordered pair {self, j}: derive from the sorted pair so
    // both endpoints compute the same key.
    const std::uint32_t lo = self < j ? self : j;
    const std::uint32_t hi = self < j ? j : self;
    Writer w;
    w.str("ritas-pairwise-key");
    w.u32(lo);
    w.u32(hi);
    const auto digest = master_key.mac(w.data());
    keys.emplace_back(digest.begin(), digest.end());
  }
  KeyChain chain(self, std::move(keys));
  Writer gw;
  gw.str("ritas-group-coin-key");
  const auto group = master_key.mac(gw.data());
  chain.set_group_key(Bytes(group.begin(), group.end()));
  return chain;
}

KeyChain::KeyChain(std::uint32_t self, std::vector<Bytes> keys)
    : self_(self), keys_(std::move(keys)) {
  if (self_ >= keys_.size()) {
    throw std::invalid_argument("KeyChain: self out of range");
  }
  mac_keys_.reserve(keys_.size());
  for (const Bytes& k : keys_) mac_keys_.emplace_back(k);
}

ByteView KeyChain::key(std::uint32_t j) const {
  if (j >= keys_.size()) throw std::out_of_range("KeyChain::key: bad index");
  return keys_[j];
}

const HmacSha256Key& KeyChain::mac_key(std::uint32_t j) const {
  if (j >= mac_keys_.size()) {
    throw std::out_of_range("KeyChain::mac_key: bad index");
  }
  return mac_keys_[j];
}

}  // namespace ritas
