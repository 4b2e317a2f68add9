#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "common/bytes.h"
#include "common/rng.h"
#include "crypto/ct.h"
#include "crypto/hmac.h"
#include "crypto/sha1.h"
#include "crypto/sha256.h"

namespace ritas {
namespace {

template <std::size_t N>
std::string hex(const std::array<std::uint8_t, N>& d) {
  return to_hex(ByteView(d.data(), d.size()));
}

// --- SHA-1 known-answer tests (FIPS 180-4 / RFC 3174) ----------------------

TEST(Sha1, EmptyInput) {
  EXPECT_EQ(hex(Sha1::hash(Bytes{})), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST(Sha1, Abc) {
  EXPECT_EQ(hex(Sha1::hash(to_bytes("abc"))),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1, TwoBlockMessage) {
  EXPECT_EQ(hex(Sha1::hash(to_bytes(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1, MillionAs) {
  Sha1 ctx;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.update(chunk);
  EXPECT_EQ(hex(ctx.finish()), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

// --- SHA-256 known-answer tests (FIPS 180-4) --------------------------------

TEST(Sha256, EmptyInput) {
  EXPECT_EQ(hex(Sha256::hash(Bytes{})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(hex(Sha256::hash(to_bytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(hex(Sha256::hash(to_bytes(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 ctx;
  const Bytes chunk(10000, 'a');
  for (int i = 0; i < 100; ++i) ctx.update(chunk);
  EXPECT_EQ(hex(ctx.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

// --- The shared Merkle–Damgård driver, once per hash -----------------------

// Known answers per hash: "abc" (FIPS 180-4) and len x 0x5a digests from
// Python's hashlib at the padding edges (55/56 bytes leave 9/8 bytes free
// for the 0x80 and the length, 63/64/65 straddle one block, 119/120/128 two).
template <typename Hash>
struct Vectors;

template <>
struct Vectors<Sha1> {
  static constexpr const char* kAbc =
      "a9993e364706816aba3e25717850c26c9cd0d89d";
  static constexpr std::pair<std::size_t, const char*> kBoundaries[] = {
      {0u, "da39a3ee5e6b4b0d3255bfef95601890afd80709"},
      {55u, "55b80d96c523566d3c8a3b8de03a5549fd04915c"},
      {56u, "bfe3466cd0dcd5e29b11e7885010fa7c61b737a6"},
      {63u, "7db05d8e931f0a6731328e4923fbda65ced2f5db"},
      {64u, "eece723b8a411e8c53e7bf49514234da5d394236"},
      {65u, "f9619e0496c7fbeff2f2b4f3f93ed379329fe7d6"},
      {119u, "791fa3ef300032b7b8efab39b22dead4327cba55"},
      {120u, "856ffb270b6b9340b620653753dfc5bafaff0a1f"},
      {128u, "3f3bf5bb6111e4eb5a06c996ec9bad396384707b"},
  };
};

template <>
struct Vectors<Sha256> {
  static constexpr const char* kAbc =
      "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad";
  static constexpr std::pair<std::size_t, const char*> kBoundaries[] = {
      {0u, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {55u, "5f25f149aa92e3e13093aed8216072fae623f35e26ca605b6cce17e04b7ccf44"},
      {56u, "301c69927f1603720c9f847b7e5e3bef77a7b9f75344490fe9039f13c36b842a"},
      {63u, "939765b120205cbedae2ed31256b1967c38b6bdd9b0220535224cbc0b906d333"},
      {64u, "cc7321cce5e4409bd8077d58422e1214969059bbd40b4eeb0de0a642f40f7282"},
      {65u, "b8de0db62b6c87db61345504a8038bf973d987e8d2111abd8beb407c0bf3d9db"},
      {119u, "a96851d641310ce032ff832b6f08125878deed2a825fe515dd1ba414afe95f7e"},
      {120u, "60ec7f280e45d0c7bf77b70ff16958b1c1701a9fb7faa12b798207cf120ec6ee"},
      {128u, "349d65e9ba1de7b0a13f9a3eadcc5b0202f15d6008fe9477f2a7b80f6194b20f"},
  };
};

template <typename Hash>
class ShaDriver : public ::testing::Test {};

using Hashes = ::testing::Types<Sha1, Sha256>;
TYPED_TEST_SUITE(ShaDriver, Hashes);

TYPED_TEST(ShaDriver, IncrementalMatchesOneShot) {
  // Every split of a message longer than three blocks.
  const Bytes msg = to_bytes(std::string(200, 'x') + "suffix");
  const auto want = TypeParam::hash(msg);
  for (std::size_t split = 0; split <= msg.size(); ++split) {
    TypeParam ctx;
    ctx.update(ByteView(msg.data(), split));
    ctx.update(ByteView(msg.data() + split, msg.size() - split));
    EXPECT_EQ(ctx.finish(), want) << "split=" << split;
  }
}

TYPED_TEST(ShaDriver, ExactBlockBoundaries) {
  for (const auto& [len, want] : Vectors<TypeParam>::kBoundaries) {
    const Bytes msg(len, 0x5a);
    EXPECT_EQ(hex(TypeParam::hash(msg)), want) << "len=" << len;
    TypeParam bytewise;
    for (std::size_t i = 0; i < len; ++i) bytewise.update(ByteView(&msg[i], 1));
    EXPECT_EQ(hex(bytewise.finish()), want) << "len=" << len;
  }
}

TYPED_TEST(ShaDriver, ResetReusesObject) {
  TypeParam ctx;
  ctx.update(to_bytes("garbage"));
  (void)ctx.finish();
  ctx.reset();
  ctx.update(to_bytes("abc"));
  EXPECT_EQ(hex(ctx.finish()), Vectors<TypeParam>::kAbc);
}

// --- HMAC known-answer tests (RFC 2202 for SHA-1, RFC 4231 for SHA-256) ----

TEST(HmacSha1, Rfc2202Case1) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(hex(hmac_sha1(key, to_bytes("Hi There"))),
            "b617318655057264e28bc0b6fb378c8ef146be00");
}

TEST(HmacSha1, Rfc2202Case2) {
  EXPECT_EQ(hex(hmac_sha1(to_bytes("Jefe"), to_bytes("what do ya want for nothing?"))),
            "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79");
}

TEST(HmacSha1, Rfc2202Case3) {
  const Bytes key(20, 0xaa);
  const Bytes msg(50, 0xdd);
  EXPECT_EQ(hex(hmac_sha1(key, msg)), "125d7342b9ac11cd91a39af48aa17b4f63f175d3");
}

TEST(HmacSha1, Rfc2202LongKey) {
  const Bytes key(80, 0xaa);  // longer than the block size -> key is hashed
  EXPECT_EQ(hex(hmac_sha1(key, to_bytes("Test Using Larger Than Block-Size Key - Hash Key First"))),
            "aa4ae5e15272d00e95705637ce8a3b55ed402112");
}

TEST(HmacSha256, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(hex(hmac_sha256(key, to_bytes("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256, Rfc4231Case2) {
  EXPECT_EQ(hex(hmac_sha256(to_bytes("Jefe"), to_bytes("what do ya want for nothing?"))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacSha256, Rfc4231LongKeyLongData) {
  const Bytes key(131, 0xaa);
  EXPECT_EQ(hex(hmac_sha256(key, to_bytes(
                "This is a test using a larger than block-size key and a "
                "larger than block-size data. The key needs to be hashed "
                "before being used by the HMAC algorithm."))),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2");
}

TEST(Hmac, EmptyKeyAndMessage) {
  // Must not crash; spot-check against a stable value computed once.
  const auto d = hmac_sha256(Bytes{}, Bytes{});
  EXPECT_EQ(hex(d), "b613679a0814d9ec772f95d778c35fc5ff1697c493715653c6c712144292c5ad");
}

// --- keyed HMAC state (HmacSha256Key) ----------------------------------------

TEST(HmacSha256Key, Rfc4231VectorsMatchTheOneShotPath) {
  struct Vector {
    Bytes key;
    Bytes msg;
    const char* want;
  };
  const Vector vectors[] = {
      {Bytes(20, 0x0b), to_bytes("Hi There"),
       "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
      {to_bytes("Jefe"), to_bytes("what do ya want for nothing?"),
       "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
      {Bytes(131, 0xaa),
       to_bytes("This is a test using a larger than block-size key and a "
                "larger than block-size data. The key needs to be hashed "
                "before being used by the HMAC algorithm."),
       "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"},
  };
  for (const Vector& v : vectors) {
    const HmacSha256Key keyed(v.key);
    EXPECT_EQ(hex(hmac_sha256(v.key, v.msg)), v.want);
    // Twice: mac() must leave the cached states untouched.
    EXPECT_EQ(hex(keyed.mac(ByteView(v.msg))), v.want);
    EXPECT_EQ(hex(keyed.mac(ByteView(v.msg))), v.want);
    const ByteView m(v.msg);
    EXPECT_EQ(hex(keyed.mac(m.subspan(0, 5), m.subspan(5))), v.want);
  }
  EXPECT_EQ(hex(HmacSha256Key().mac(ByteView{})),
            hex(hmac_sha256(Bytes{}, Bytes{})));
}

/// RFC 2104 by concatenation, sharing nothing with HmacKey but Sha256.
Sha256::Digest reference_hmac(Bytes key, const Bytes& msg) {
  if (key.size() > Sha256::kBlockSize) {
    const auto d = Sha256::hash(key);
    key.assign(d.begin(), d.end());
  }
  key.resize(Sha256::kBlockSize, 0);
  Bytes inner, outer;
  for (std::uint8_t b : key) inner.push_back(b ^ 0x36);
  inner.insert(inner.end(), msg.begin(), msg.end());
  const auto id = Sha256::hash(inner);
  for (std::uint8_t b : key) outer.push_back(b ^ 0x5c);
  outer.insert(outer.end(), id.begin(), id.end());
  return Sha256::hash(outer);
}

TEST(HmacSha256Key, SeededDifferentialAgainstReference) {
  std::uint64_t s = 0x4d4143;
  const auto next = [&s](std::size_t bound) {
    return static_cast<std::size_t>(splitmix64(s) % bound);
  };
  const auto random_bytes = [&s](std::size_t len) {
    Bytes b(len);
    for (auto& x : b) x = static_cast<std::uint8_t>(splitmix64(s));
    return b;
  };
  for (std::size_t key_len = 0; key_len <= 100; ++key_len) {
    const Bytes key = random_bytes(key_len);
    const HmacSha256Key keyed(key);
    for (int trial = 0; trial < 4; ++trial) {
      const Bytes header = random_bytes(next(40));
      const Bytes body = random_bytes(next(300));
      Bytes whole = header;
      whole.insert(whole.end(), body.begin(), body.end());
      const std::string want = hex(reference_hmac(key, whole));
      EXPECT_EQ(hex(keyed.mac(ByteView(header), ByteView(body))), want)
          << "key_len=" << key_len;
      EXPECT_EQ(hex(hmac_sha256_2(key, header, body)), want)
          << "key_len=" << key_len;
    }
  }
}

// --- constant-time compare ---------------------------------------------------

TEST(CtEqual, EqualAndUnequal) {
  EXPECT_TRUE(ct_equal(to_bytes("secret"), to_bytes("secret")));
  EXPECT_FALSE(ct_equal(to_bytes("secret"), to_bytes("secreT")));
  EXPECT_FALSE(ct_equal(to_bytes("secret"), to_bytes("secre")));
  EXPECT_TRUE(ct_equal(Bytes{}, Bytes{}));
}

TEST(CtEqual, DetectsSingleBitFlip) {
  Bytes a(64, 0x41);
  for (std::size_t i = 0; i < a.size(); ++i) {
    Bytes b = a;
    b[i] ^= 0x01;
    EXPECT_FALSE(ct_equal(a, b)) << "byte " << i;
  }
}

}  // namespace
}  // namespace ritas
