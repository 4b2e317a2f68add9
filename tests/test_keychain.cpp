#include "crypto/keychain.h"

#include <gtest/gtest.h>

#include <set>

namespace ritas {
namespace {

TEST(KeyChain, PairwiseSymmetry) {
  const Bytes master = to_bytes("master-secret");
  const std::uint32_t n = 7;
  std::vector<KeyChain> chains;
  for (std::uint32_t p = 0; p < n; ++p) chains.push_back(KeyChain::deal(master, n, p));
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = 0; j < n; ++j) {
      // s_ij as seen by p_i must equal s_ji as seen by p_j.
      EXPECT_TRUE(equal(chains[i].key(j), chains[j].key(i)))
          << "pair (" << i << "," << j << ")";
    }
  }
}

TEST(KeyChain, DistinctPairsGetDistinctKeys) {
  const Bytes master = to_bytes("master");
  const std::uint32_t n = 10;
  auto chain0 = KeyChain::deal(master, n, 0);
  std::set<Bytes> keys;
  for (std::uint32_t j = 0; j < n; ++j) {
    keys.insert(Bytes(chain0.key(j).begin(), chain0.key(j).end()));
  }
  EXPECT_EQ(keys.size(), n);  // including the self key, all distinct
}

TEST(KeyChain, DifferentMastersDiffer) {
  auto a = KeyChain::deal(to_bytes("m1"), 4, 0);
  auto b = KeyChain::deal(to_bytes("m2"), 4, 0);
  for (std::uint32_t j = 0; j < 4; ++j) {
    EXPECT_FALSE(equal(a.key(j), b.key(j)));
  }
}

TEST(KeyChain, Deterministic) {
  auto a = KeyChain::deal(to_bytes("m"), 4, 2);
  auto b = KeyChain::deal(to_bytes("m"), 4, 2);
  for (std::uint32_t j = 0; j < 4; ++j) {
    EXPECT_TRUE(equal(a.key(j), b.key(j)));
  }
}

TEST(KeyChain, KeySize) {
  auto c = KeyChain::deal(to_bytes("m"), 4, 0);
  EXPECT_EQ(c.key(1).size(), KeyChain::kKeySize);
}

TEST(KeyChain, SelfOutOfRangeThrows) {
  EXPECT_THROW(KeyChain::deal(to_bytes("m"), 4, 4), std::invalid_argument);
}

TEST(KeyChain, BadIndexThrows) {
  auto c = KeyChain::deal(to_bytes("m"), 4, 0);
  EXPECT_THROW(c.key(4), std::out_of_range);
}

TEST(KeyChain, ExternallySuppliedKeys) {
  std::vector<Bytes> keys = {to_bytes("k0"), to_bytes("k1"), to_bytes("k2"),
                             to_bytes("k3")};
  KeyChain c(1, keys);
  EXPECT_EQ(c.self(), 1u);
  EXPECT_EQ(c.size(), 4u);
  EXPECT_TRUE(equal(c.key(3), to_bytes("k3")));
  EXPECT_THROW(KeyChain(4, keys), std::invalid_argument);
}

TEST(KeyChain, CachedMacKeysMatchTheRawKeys) {
  const auto c = KeyChain::deal(to_bytes("m"), 4, 2);
  const Bytes msg = to_bytes("frame header and body");
  for (std::uint32_t j = 0; j < 4; ++j) {
    EXPECT_EQ(c.mac_key(j).mac(ByteView(msg)), hmac_sha256(c.key(j), msg)) << j;
  }
  EXPECT_EQ(c.group_mac_key().mac(ByteView(msg)), hmac_sha256(c.group_key(), msg));
  EXPECT_THROW(c.mac_key(4), std::out_of_range);
}

}  // namespace
}  // namespace ritas
