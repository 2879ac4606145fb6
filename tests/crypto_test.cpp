// Crypto substrate tests (Appendix D): big-integer arithmetic identities,
// known-value checks, Miller-Rabin behaviour, and the Paillier homomorphic
// properties the encrypted-aggregation deployment relies on.
#include <gtest/gtest.h>

#include "crypto/bigint.hpp"
#include "crypto/paillier.hpp"

namespace switchml::crypto {
namespace {

TEST(BigInt, ConstructionAndHexRoundtrip) {
  EXPECT_EQ(BigInt(0).to_hex(), "0");
  EXPECT_EQ(BigInt(255).to_hex(), "ff");
  const std::string hex = "123456789abcdef0fedcba9876543210deadbeef";
  EXPECT_EQ(BigInt::from_hex(hex).to_hex(), hex);
  EXPECT_EQ(BigInt::from_hex("0x10").low64(), 16u);
}

TEST(BigInt, ComparisonOrdering) {
  EXPECT_LT(BigInt(3), BigInt(5));
  EXPECT_GT(BigInt::from_hex("10000000000000000"), BigInt(UINT64_MAX));
  EXPECT_EQ(BigInt(42), BigInt(42));
}

TEST(BigInt, AdditionCarriesAcrossLimbs) {
  const BigInt a(UINT64_MAX);
  EXPECT_EQ(a.add(BigInt(1)).to_hex(), "10000000000000000");
  EXPECT_EQ(a.add(a).to_hex(), "1fffffffffffffffe");
}

TEST(BigInt, SubtractionBorrowsAcrossLimbs) {
  const BigInt a = BigInt::from_hex("10000000000000000");
  EXPECT_EQ(a.sub(BigInt(1)).low64(), UINT64_MAX);
  EXPECT_THROW(BigInt(1).sub(BigInt(2)), std::invalid_argument);
}

TEST(BigInt, MultiplicationKnownValues) {
  EXPECT_EQ(BigInt(1000000007).mul(BigInt(998244353)).low64(), 1000000007ull * 998244353ull);
  const BigInt a = BigInt::from_hex("ffffffffffffffff"); // 2^64-1
  EXPECT_EQ(a.mul(a).to_hex(), "fffffffffffffffe0000000000000001");
}

TEST(BigInt, ShiftsAreInverse) {
  const BigInt a = BigInt::from_hex("deadbeefcafebabe1234");
  EXPECT_EQ(a.shifted_left(77).shifted_right(77), a);
  EXPECT_EQ(a.shifted_right(200).to_hex(), "0");
}

TEST(BigInt, DivModSmallDivisor) {
  const auto dm = BigInt::from_hex("ffffffffffffffffffffffffffffffff").divmod(BigInt(10));
  EXPECT_EQ(dm.remainder.low64(), 5u); // 2^128-1 = ...5 mod 10
}

TEST(BigInt, DivModPropertyRandomized) {
  sim::Rng rng = sim::Rng::stream(1, "divmod");
  for (int i = 0; i < 200; ++i) {
    const auto abits = static_cast<std::size_t>(rng.uniform_int(1, 512));
    const auto bbits = static_cast<std::size_t>(rng.uniform_int(1, 512));
    const BigInt a = BigInt::random_bits(abits, rng);
    const BigInt b = BigInt::random_bits(bbits, rng);
    const auto dm = a.divmod(b);
    // a == q*b + r and r < b: the defining identity, checked with
    // independent mul/add.
    EXPECT_EQ(dm.quotient.mul(b).add(dm.remainder), a);
    EXPECT_LT(dm.remainder, b);
  }
}

TEST(BigInt, DivByZeroThrows) { EXPECT_THROW(BigInt(1).divmod(BigInt(0)), std::invalid_argument); }

TEST(BigInt, PowmodMatchesSmallIntegers) {
  // 7^13 mod 1000 = 96889010407 mod 1000 = 407.
  EXPECT_EQ(BigInt(7).powmod(BigInt(13), BigInt(1000)).low64(), 407u);
  // Fermat: a^(p-1) = 1 mod p for prime p.
  const BigInt p(1000000007);
  EXPECT_EQ(BigInt(123456).powmod(p.sub(BigInt(1)), p).low64(), 1u);
}

TEST(BigInt, GcdLcmKnownValues) {
  EXPECT_EQ(BigInt::gcd(BigInt(48), BigInt(36)).low64(), 12u);
  EXPECT_EQ(BigInt::lcm(BigInt(4), BigInt(6)).low64(), 12u);
  EXPECT_EQ(BigInt::gcd(BigInt(17), BigInt(13)).low64(), 1u);
}

TEST(BigInt, ModInverseProperty) {
  sim::Rng rng = sim::Rng::stream(2, "inv");
  const BigInt m = BigInt::from_hex("fffffffb"); // prime 2^32-5
  for (int i = 0; i < 50; ++i) {
    const BigInt a = BigInt::random_below(m, rng);
    if (a.is_zero()) continue;
    const BigInt inv = BigInt::modinv(a, m);
    EXPECT_EQ(a.mulmod(inv, m).low64(), 1u);
  }
  EXPECT_THROW(BigInt::modinv(BigInt(6), BigInt(9)), std::invalid_argument);
}

TEST(BigInt, MillerRabinKnownPrimesAndComposites) {
  sim::Rng rng = sim::Rng::stream(3, "mr");
  for (std::uint64_t p : {2ull, 3ull, 17ull, 1000000007ull, 2147483647ull})
    EXPECT_TRUE(BigInt(p).is_probable_prime(rng)) << p;
  // 561 is a Carmichael number (fools Fermat, not Miller-Rabin).
  for (std::uint64_t c : {1ull, 4ull, 561ull, 1000000008ull, 1000000007ull * 3ull})
    EXPECT_FALSE(BigInt(c).is_probable_prime(rng)) << c;
  // A known 128-bit prime: 2^127 - 1 (Mersenne).
  const BigInt m127 = BigInt(1).shifted_left(127).sub(BigInt(1));
  EXPECT_TRUE(m127.is_probable_prime(rng));
  // ... and 2^128 - 1 = (2^64-1)(2^64+1) is composite.
  EXPECT_FALSE(BigInt(1).shifted_left(128).sub(BigInt(1)).is_probable_prime(rng));
}

TEST(BigInt, RandomPrimeHasRequestedSize) {
  sim::Rng rng = sim::Rng::stream(4, "prime");
  const BigInt p = BigInt::random_prime(96, rng);
  EXPECT_EQ(p.bit_length(), 96u);
  EXPECT_TRUE(p.is_probable_prime(rng));
}

// Differential testing against native 128-bit arithmetic: every operation on
// random small operands must agree exactly with __int128 math.
TEST(BigInt, DifferentialAgainstNative128) {
  sim::Rng rng = sim::Rng::stream(77, "diff");
  auto to_u128 = [](const BigInt& v) {
    unsigned __int128 r = 0;
    for (int limb = 1; limb >= 0; --limb)
      r = (r << 64) | v.shifted_right(static_cast<std::size_t>(limb) * 64)
                          .mod(BigInt::from_hex("10000000000000000"))
                          .low64();
    return r;
  };
  auto from_u128 = [](unsigned __int128 v) {
    BigInt hi(static_cast<std::uint64_t>(v >> 64));
    return hi.shifted_left(64).add(BigInt(static_cast<std::uint64_t>(v)));
  };
  for (int i = 0; i < 500; ++i) {
    const auto abits = static_cast<std::size_t>(rng.uniform_int(1, 100));
    const auto bbits = static_cast<std::size_t>(rng.uniform_int(1, 100));
    const BigInt a = BigInt::random_bits(abits, rng);
    const BigInt b = BigInt::random_bits(bbits, rng);
    const auto na = to_u128(a);
    const auto nb = to_u128(b);
    ASSERT_EQ(a.add(b), from_u128(na + nb));
    if (na >= nb) {
      ASSERT_EQ(a.sub(b), from_u128(na - nb));
    }
    if (abits + bbits <= 120) {
      ASSERT_EQ(a.mul(b), from_u128(na * nb));
    }
    const auto dm = a.divmod(b);
    ASSERT_EQ(dm.quotient, from_u128(na / nb));
    ASSERT_EQ(dm.remainder, from_u128(na % nb));
    ASSERT_EQ(BigInt::gcd(a, b), from_u128(std::__gcd(na, nb)));
  }
}

// ------------------------------------------------------------------ Paillier

struct PaillierFixture : public ::testing::Test {
  PaillierFixture() : rng(sim::Rng::stream(5, "paillier")), kp(paillier_keygen(256, rng)) {}
  sim::Rng rng;
  PaillierKeyPair kp;
};

TEST_F(PaillierFixture, EncryptDecryptRoundtrip) {
  for (std::uint64_t m : {0ull, 1ull, 42ull, 123456789ull}) {
    const BigInt c = kp.pub.encrypt(BigInt(m), rng);
    EXPECT_EQ(kp.priv.decrypt(c, kp.pub).low64(), m);
  }
}

TEST_F(PaillierFixture, EncryptionIsRandomized) {
  const BigInt c1 = kp.pub.encrypt(BigInt(7), rng);
  const BigInt c2 = kp.pub.encrypt(BigInt(7), rng);
  EXPECT_NE(c1, c2); // semantic security: same plaintext, fresh randomness
  EXPECT_EQ(kp.priv.decrypt(c1, kp.pub).low64(), 7u);
  EXPECT_EQ(kp.priv.decrypt(c2, kp.pub).low64(), 7u);
}

TEST_F(PaillierFixture, HomomorphicAdditionIsTheAppendixDIdentity) {
  // E(x) * E(y) = E(x + y) — the property that lets a modular-multiply
  // dataplane aggregate without decrypting.
  const BigInt cx = kp.pub.encrypt(BigInt(1234), rng);
  const BigInt cy = kp.pub.encrypt(BigInt(8766), rng);
  const BigInt csum = kp.pub.add_ciphertexts(cx, cy);
  EXPECT_EQ(kp.priv.decrypt(csum, kp.pub).low64(), 10000u);
}

TEST_F(PaillierFixture, ScalarMultiplication) {
  const BigInt c = kp.pub.encrypt(BigInt(21), rng);
  const BigInt c2 = kp.pub.scale_ciphertext(c, BigInt(2));
  EXPECT_EQ(kp.priv.decrypt(c2, kp.pub).low64(), 42u);
}

TEST_F(PaillierFixture, SignedEncodingSumsCorrectly) {
  // Quantized gradients are signed; wraparound encoding must survive sums.
  const std::int64_t xs[] = {1500, -700, -1200, 900};
  BigInt acc = kp.pub.encrypt_signed(xs[0], rng);
  for (int i = 1; i < 4; ++i)
    acc = kp.pub.add_ciphertexts(acc, kp.pub.encrypt_signed(xs[i], rng));
  EXPECT_EQ(kp.priv.decrypt_signed(acc, kp.pub), 500);
}

TEST_F(PaillierFixture, AggregatorSumsWorkerVectors) {
  EncryptedAggregator agg(kp.pub);
  const int n_workers = 4;
  const std::size_t d = 8;
  auto acc = agg.zero(d);
  std::vector<std::int64_t> expect(d, 0);
  sim::Rng vals = sim::Rng::stream(6, "vals");
  for (int w = 0; w < n_workers; ++w) {
    std::vector<BigInt> update(d);
    for (std::size_t i = 0; i < d; ++i) {
      const std::int64_t v = vals.uniform_int(-100000, 100000);
      expect[i] += v;
      update[i] = kp.pub.encrypt_signed(v, rng);
    }
    agg.accumulate(acc, update);
  }
  for (std::size_t i = 0; i < d; ++i)
    EXPECT_EQ(kp.priv.decrypt_signed(acc[i], kp.pub), expect[i]);
}

TEST_F(PaillierFixture, PlaintextOutOfRangeThrows) {
  EXPECT_THROW(kp.pub.encrypt(kp.pub.n, rng), std::invalid_argument);
}

TEST(Paillier, KeygenRejectsTinyModulus) {
  sim::Rng rng = sim::Rng::stream(7, "tiny");
  EXPECT_THROW(paillier_keygen(8, rng), std::invalid_argument);
}

} // namespace
} // namespace switchml::crypto
