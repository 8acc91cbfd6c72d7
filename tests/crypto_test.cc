// Tests for the from-scratch crypto substrate: SHA-256 against FIPS vectors,
// HMAC against RFC 4231, big-integer arithmetic (including randomized
// cross-checks against native 64-bit math), RSA sign/verify, Diffie-Hellman,
// and the endorsement/attestation key chain.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "src/common/rng.h"
#include "src/crypto/bignum.h"
#include "src/crypto/diffie_hellman.h"
#include "src/crypto/keys.h"
#include "src/crypto/rsa.h"
#include "src/crypto/sha256.h"

namespace snic::crypto {
namespace {

std::span<const uint8_t> Bytes(const std::string& s) {
  return {reinterpret_cast<const uint8_t*>(s.data()), s.size()};
}

TEST(Sha256Test, FipsVectorEmpty) {
  EXPECT_EQ(DigestToHex(Sha256::Hash(nullptr, 0)),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, FipsVectorAbc) {
  EXPECT_EQ(DigestToHex(Sha256::Hash("abc", 3)),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, FipsVectorTwoBlocks) {
  const std::string msg =
      "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
  EXPECT_EQ(DigestToHex(Sha256::Hash(Bytes(msg))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    h.Update(Bytes(chunk));
  }
  EXPECT_EQ(DigestToHex(h.Finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, StreamingMatchesOneShot) {
  const std::string msg = "the quick brown fox jumps over the lazy dog";
  Sha256 h;
  for (char c : msg) {
    h.Update(&c, 1);
  }
  EXPECT_EQ(h.Finalize(), Sha256::Hash(Bytes(msg)));
}

TEST(Sha256Test, BoundaryLengths) {
  // Lengths around the 64-byte block boundary must all round-trip the
  // padding logic.
  for (size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    const std::string msg(len, 'x');
    Sha256 split;
    split.Update(Bytes(msg.substr(0, len / 2)));
    split.Update(Bytes(msg.substr(len / 2)));
    EXPECT_EQ(split.Finalize(), Sha256::Hash(Bytes(msg))) << "len=" << len;
  }
}

TEST(HmacTest, Rfc4231Case2) {
  const std::string key = "Jefe";
  const std::string msg = "what do ya want for nothing?";
  EXPECT_EQ(DigestToHex(HmacSha256(Bytes(key), Bytes(msg))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, LongKeyHashedDown) {
  const std::string key(131, 0xaa);
  const std::string msg = "Test Using Larger Than Block-Size Key - Hash Key First";
  EXPECT_EQ(DigestToHex(HmacSha256(Bytes(key), Bytes(msg))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(BigUintTest, HexRoundTrip) {
  const BigUint v = BigUint::FromHex("deadbeefcafebabe0123456789");
  EXPECT_EQ(v.ToHex(), "deadbeefcafebabe0123456789");
}

TEST(BigUintTest, ZeroProperties) {
  BigUint z;
  EXPECT_TRUE(z.IsZero());
  EXPECT_EQ(z.BitLength(), 0u);
  EXPECT_EQ(z.ToHex(), "0");
  EXPECT_FALSE(z.IsOdd());
}

TEST(BigUintTest, BytesRoundTrip) {
  const BigUint v = BigUint::FromHex("0102030405060708090a");
  const auto bytes = v.ToBytes();
  EXPECT_EQ(bytes.size(), 10u);
  EXPECT_EQ(bytes[0], 0x01);
  EXPECT_EQ(BigUint::FromBytes(bytes), v);
}

TEST(BigUintTest, PaddedBytes) {
  const BigUint v(0x1234);
  const auto padded = v.ToBytesPadded(8);
  EXPECT_EQ(padded.size(), 8u);
  EXPECT_EQ(padded[6], 0x12);
  EXPECT_EQ(padded[7], 0x34);
  EXPECT_EQ(padded[0], 0x00);
}

TEST(BigUintTest, AddSubCarryChains) {
  const BigUint a = BigUint::FromHex("ffffffffffffffffffffffff");
  const BigUint one(1);
  const BigUint sum = BigUint::Add(a, one);
  EXPECT_EQ(sum.ToHex(), "1000000000000000000000000");
  EXPECT_EQ(BigUint::Sub(sum, one), a);
}

TEST(BigUintTest, MulKnownProduct) {
  const BigUint a = BigUint::FromHex("ffffffff");
  const BigUint b = BigUint::FromHex("ffffffff");
  EXPECT_EQ(BigUint::Mul(a, b).ToHex(), "fffffffe00000001");
}

TEST(BigUintTest, DivModBasics) {
  BigUint q, r;
  BigUint::DivMod(BigUint(100), BigUint(7), &q, &r);
  EXPECT_EQ(q.ToU64(), 14u);
  EXPECT_EQ(r.ToU64(), 2u);
}

TEST(BigUintTest, DivModSmallerDividend) {
  BigUint q, r;
  BigUint::DivMod(BigUint(3), BigUint(10), &q, &r);
  EXPECT_TRUE(q.IsZero());
  EXPECT_EQ(r.ToU64(), 3u);
}

// Randomized cross-check of multi-limb arithmetic against __int128 where the
// operands fit.
TEST(BigUintTest, RandomizedArithmeticAgainstNative) {
  Rng rng(77);
  for (int i = 0; i < 2000; ++i) {
    const uint64_t x = rng.NextU64() >> 1;
    const uint64_t y = (rng.NextU64() >> 1) | 1;  // nonzero
    const BigUint bx(x);
    const BigUint by(y);
    EXPECT_EQ(BigUint::Add(bx, by).ToU64(), x + y);
    if (x >= y) {
      EXPECT_EQ(BigUint::Sub(bx, by).ToU64(), x - y);
    }
    const unsigned __int128 prod =
        static_cast<unsigned __int128>(x) * static_cast<unsigned __int128>(y);
    const BigUint bprod = BigUint::Mul(bx, by);
    BigUint q, r;
    BigUint::DivMod(bprod, by, &q, &r);
    EXPECT_EQ(q.ToU64(), static_cast<uint64_t>(prod / y));
    EXPECT_TRUE(r.IsZero());
    EXPECT_EQ(BigUint::Mod(bx, by).ToU64(), x % y);
  }
}

TEST(BigUintTest, RandomizedDivModInvariant) {
  // For random big operands: a == q*b + r and r < b.
  Rng rng(78);
  for (int i = 0; i < 200; ++i) {
    const BigUint a = BigUint::RandomWithBits(256, rng);
    const BigUint b = BigUint::RandomWithBits(96 + i % 64, rng);
    BigUint q, r;
    BigUint::DivMod(a, b, &q, &r);
    EXPECT_TRUE(r < b);
    EXPECT_EQ(BigUint::Add(BigUint::Mul(q, b), r), a);
  }
}

TEST(BigUintTest, ShiftRoundTrip) {
  const BigUint v = BigUint::FromHex("123456789abcdef");
  for (size_t shift : {1u, 7u, 31u, 32u, 33u, 100u}) {
    EXPECT_EQ(v.ShiftLeft(shift).ShiftRight(shift), v) << shift;
  }
}

TEST(BigUintTest, PowModFermat) {
  // Fermat's little theorem: a^(p-1) = 1 mod p for prime p, a not divisible.
  const BigUint p(1000003);
  for (uint64_t a : {2ull, 17ull, 65537ull, 999999ull}) {
    EXPECT_EQ(
        BigUint::PowMod(BigUint(a), BigUint::Sub(p, BigUint(1)), p).ToU64(),
        1u)
        << a;
  }
}

TEST(BigUintTest, InvModMatchesDefinition) {
  Rng rng(79);
  const BigUint m(1000003);  // prime modulus: everything nonzero invertible
  for (int i = 0; i < 100; ++i) {
    const BigUint a(1 + rng.NextBounded(1000002));
    BigUint inv;
    ASSERT_TRUE(BigUint::InvMod(a, m, &inv));
    EXPECT_EQ(BigUint::MulMod(a, inv, m).ToU64(), 1u);
  }
}

TEST(BigUintTest, InvModRejectsNonCoprime) {
  BigUint inv;
  EXPECT_FALSE(BigUint::InvMod(BigUint(6), BigUint(9), &inv));
}

TEST(BigUintTest, MillerRabinKnownPrimesAndComposites) {
  Rng rng(80);
  for (uint64_t p : {2ull, 3ull, 5ull, 104729ull, 1000003ull, 2147483647ull}) {
    EXPECT_TRUE(BigUint::IsProbablePrime(BigUint(p), 20, rng)) << p;
  }
  for (uint64_t c : {1ull, 4ull, 100ull, 104730ull, 561ull, 41041ull}) {
    // 561 and 41041 are Carmichael numbers.
    EXPECT_FALSE(BigUint::IsProbablePrime(BigUint(c), 20, rng)) << c;
  }
}

TEST(BigUintTest, GeneratePrimeHasExactBitsAndIsPrime) {
  Rng rng(81);
  const BigUint p = BigUint::GeneratePrime(96, rng);
  EXPECT_EQ(p.BitLength(), 96u);
  EXPECT_TRUE(BigUint::IsProbablePrime(p, 30, rng));
}

TEST(RsaTest, SignVerifyRoundTrip) {
  Rng rng(42);
  const RsaKeyPair kp = GenerateRsaKeyPair(512, rng);
  const std::string msg = "attest me";
  const auto sig = RsaSign(kp.private_key, Bytes(msg));
  EXPECT_EQ(sig.size(), kp.public_key.ModulusBytes());
  EXPECT_TRUE(RsaVerify(kp.public_key, Bytes(msg), sig));
}

TEST(RsaTest, TamperedSignatureRejected) {
  Rng rng(43);
  const RsaKeyPair kp = GenerateRsaKeyPair(512, rng);
  const std::string msg = "attest me";
  auto sig = RsaSign(kp.private_key, Bytes(msg));
  sig[10] ^= 0x40;
  EXPECT_FALSE(RsaVerify(kp.public_key, Bytes(msg), sig));
}

TEST(RsaTest, TamperedMessageRejected) {
  Rng rng(44);
  const RsaKeyPair kp = GenerateRsaKeyPair(512, rng);
  const auto sig = RsaSign(kp.private_key, Bytes(std::string("hello")));
  EXPECT_FALSE(RsaVerify(kp.public_key, Bytes(std::string("hellp")), sig));
}

TEST(RsaTest, WrongKeyRejected) {
  Rng rng(45);
  const RsaKeyPair kp1 = GenerateRsaKeyPair(512, rng);
  const RsaKeyPair kp2 = GenerateRsaKeyPair(512, rng);
  const auto sig = RsaSign(kp1.private_key, Bytes(std::string("msg")));
  EXPECT_FALSE(RsaVerify(kp2.public_key, Bytes(std::string("msg")), sig));
}

TEST(RsaTest, DigestInterfaceMatchesMessageInterface) {
  Rng rng(46);
  const RsaKeyPair kp = GenerateRsaKeyPair(512, rng);
  const std::string msg = "digest path";
  const auto sig1 = RsaSign(kp.private_key, Bytes(msg));
  const auto sig2 = RsaSignDigest(kp.private_key, Sha256::Hash(Bytes(msg)));
  EXPECT_EQ(sig1, sig2);
  EXPECT_TRUE(RsaVerifyDigest(kp.public_key, Sha256::Hash(Bytes(msg)), sig1));
}

TEST(DhTest, SharedSecretAgrees) {
  Rng rng(47);
  const DhGroup group = SmallTestGroup();
  DhParticipant alice(group, rng);
  DhParticipant bob(group, rng);
  EXPECT_EQ(alice.ComputeSharedSecret(bob.public_value()),
            bob.ComputeSharedSecret(alice.public_value()));
  EXPECT_EQ(alice.DeriveChannelKey(bob.public_value()),
            bob.DeriveChannelKey(alice.public_value()));
}

TEST(DhTest, DistinctParticipantsDistinctKeys) {
  Rng rng(48);
  const DhGroup group = SmallTestGroup();
  DhParticipant alice(group, rng);
  DhParticipant bob(group, rng);
  DhParticipant eve(group, rng);
  EXPECT_NE(alice.DeriveChannelKey(bob.public_value()),
            alice.DeriveChannelKey(eve.public_value()));
}

TEST(DhTest, TestGroupPrimeIsPrime) {
  Rng rng(49);
  EXPECT_TRUE(BigUint::IsProbablePrime(SmallTestGroup().p, 30, rng));
  EXPECT_EQ(SmallTestGroup().p.BitLength(), 256u);
}

TEST(DhTest, Modp1536GroupShape) {
  const DhGroup g = Modp1536Group();
  EXPECT_EQ(g.p.BitLength(), 1536u);
  EXPECT_EQ(g.g.ToU64(), 2u);
  EXPECT_TRUE(g.p.IsOdd());
}

TEST(KeysTest, CertificateChainVerifies) {
  Rng rng(50);
  VendorAuthority vendor(512, rng);
  NicRootOfTrust rot(vendor, 512, rng);
  EXPECT_TRUE(VendorAuthority::VerifyCertificate(vendor.public_key(),
                                                 rot.ek_certificate()));
  EXPECT_TRUE(NicRootOfTrust::VerifyAkChain(
      vendor.public_key(), rot.ek_certificate(), rot.ak_public(),
      std::span<const uint8_t>(rot.ak_endorsement().data(),
                               rot.ak_endorsement().size())));
}

TEST(KeysTest, WrongVendorRejected) {
  Rng rng(51);
  VendorAuthority vendor(512, rng);
  VendorAuthority other(512, rng);
  NicRootOfTrust rot(vendor, 512, rng);
  EXPECT_FALSE(NicRootOfTrust::VerifyAkChain(
      other.public_key(), rot.ek_certificate(), rot.ak_public(),
      std::span<const uint8_t>(rot.ak_endorsement().data(),
                               rot.ak_endorsement().size())));
}

TEST(KeysTest, ForeignAkRejected) {
  Rng rng(52);
  VendorAuthority vendor(512, rng);
  NicRootOfTrust rot1(vendor, 512, rng);
  NicRootOfTrust rot2(vendor, 512, rng);
  // rot2's AK presented with rot1's endorsement must fail.
  EXPECT_FALSE(NicRootOfTrust::VerifyAkChain(
      vendor.public_key(), rot1.ek_certificate(), rot2.ak_public(),
      std::span<const uint8_t>(rot1.ak_endorsement().data(),
                               rot1.ak_endorsement().size())));
}

TEST(KeysTest, AkSignsPayloads) {
  Rng rng(53);
  VendorAuthority vendor(512, rng);
  NicRootOfTrust rot(vendor, 512, rng);
  const std::string payload = "quote-payload";
  const auto sig = rot.SignWithAk(Bytes(payload));
  EXPECT_TRUE(RsaVerify(rot.ak_public(), Bytes(payload), sig));
}

// ---- Differential tests: fast paths against the reference oracles --------

Sha256Digest HashWith(Sha256BlockFn block_fn, std::span<const uint8_t> data) {
  Sha256 h(block_fn);
  h.Update(data);
  return h.Finalize();
}

// The block functions under test on this host: always the reference, plus
// SHA-NI when the CPU has it.
std::vector<Sha256BlockFn> BlockFns() {
  std::vector<Sha256BlockFn> fns = {&Sha256BlocksReference};
  if (Sha256HasShaNi()) {
    fns.push_back(&Sha256BlocksShaNi);
  }
  return fns;
}

TEST(Sha256DifferentialTest, DefaultBlockFnFollowsCpu) {
  EXPECT_EQ(Sha256DefaultBlockFn(), Sha256HasShaNi() ? &Sha256BlocksShaNi
                                                     : &Sha256BlocksReference);
}

TEST(Sha256DifferentialTest, NistVectorsOnEveryBlockFn) {
  const std::string two_blocks =
      "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
  const std::string million_a(1000000, 'a');
  for (Sha256BlockFn fn : BlockFns()) {
    EXPECT_EQ(DigestToHex(HashWith(fn, {})),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    EXPECT_EQ(DigestToHex(HashWith(fn, Bytes("abc"))),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    EXPECT_EQ(DigestToHex(HashWith(fn, Bytes(two_blocks))),
              "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
    EXPECT_EQ(DigestToHex(HashWith(fn, Bytes(million_a))),
              "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
  }
}

TEST(Sha256DifferentialTest, RandomLengthsUnderRandomChunking) {
  constexpr size_t kMaxLen = 192 * 1024;
  Rng rng(0x5a256);
  std::vector<uint8_t> data(kMaxLen);
  for (auto& b : data) {
    b = static_cast<uint8_t>(rng.NextU32());
  }
  for (int trial = 0; trial < 1000; ++trial) {
    // Every other length is short, so block-boundary cases stay dense.
    const size_t len = static_cast<size_t>(
        rng.NextBounded(trial % 2 == 0 ? kMaxLen + 1 : 1024));
    const std::span<const uint8_t> msg(data.data(), len);
    const Sha256Digest want = HashWith(&Sha256BlocksReference, msg);
    for (Sha256BlockFn fn : BlockFns()) {
      Sha256 h(fn);
      for (size_t off = 0; off < len;) {
        const size_t max_chunk = rng.NextBounded(3) == 0 ? 64 : 4096;
        const size_t take = std::min<size_t>(
            len - off, static_cast<size_t>(rng.NextBounded(max_chunk + 1)));
        h.Update(msg.subspan(off, take));
        off += take;
      }
      ASSERT_EQ(h.Finalize(), want) << "len=" << len << " trial=" << trial;
    }
  }
}

// ---- Zero-run continuation: UpdateZeros against Update of a zero buffer -

// Run lengths around the block boundary, up to nf_launch's zero tail for a
// 3000-byte image on a 2 MiB page.
class Sha256ZeroRunDiffTest : public ::testing::TestWithParam<uint64_t> {};

// Every buffered length 0..63 on every block function, without a memo and
// through one (first a miss, then a hit). The prefix is one fixed block and
// then `buffered` fill bytes, so the midstate is the same for every
// buffered length; with fill 0x00 the memo keys differ only in the
// buffered length, which must therefore be part of the key.
TEST_P(Sha256ZeroRunDiffTest, MatchesZeroBufferAtEveryBufferedLength) {
  const uint64_t n = GetParam();
  const std::vector<uint8_t> zeros(static_cast<size_t>(n), 0);
  const std::vector<uint8_t> suffix = {0x5a, 0x01, 0x02, 0x03, 0x04};
  for (Sha256BlockFn fn : BlockFns()) {
    for (const uint8_t fill : {uint8_t{0x00}, uint8_t{0xab}}) {
      Sha256ZeroMemo memo;
      for (size_t buffered = 0; buffered < 64; ++buffered) {
        SCOPED_TRACE(testing::Message() << "fill=" << int{fill}
                                        << " buffered=" << buffered);
        std::vector<uint8_t> prefix(64 + buffered, fill);
        for (size_t i = 0; i < 64; ++i) {
          prefix[i] = static_cast<uint8_t>(i * 7 + 1);
        }
        Sha256 oracle(fn);
        oracle.Update(prefix);
        oracle.Update(zeros);
        oracle.Update(suffix);
        const Sha256Digest want = oracle.Finalize();

        auto zero_run = [&](Sha256ZeroMemo* m) {
          Sha256 h(fn);
          h.Update(prefix);
          h.UpdateZeros(n, m);
          h.Update(suffix);  // the tail left buffered must be zeros
          return h.Finalize();
        };
        EXPECT_EQ(zero_run(nullptr), want);
        const bool compresses = buffered + n >= 64;
        const uint64_t misses = memo.misses();
        EXPECT_EQ(zero_run(&memo), want);  // miss
        EXPECT_EQ(memo.misses(), misses + (compresses ? 1 : 0));
        EXPECT_EQ(zero_run(&memo), want);  // hit
        EXPECT_EQ(memo.misses(), misses + (compresses ? 1 : 0));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Runs, Sha256ZeroRunDiffTest,
                         ::testing::Values(0, 1, 55, 56, 63, 64, 65, 4095,
                                           (2ull << 20) - 3000),
                         [](const ::testing::TestParamInfo<uint64_t>& run) {
                           return std::to_string(run.param) + "_zeros";
                         });

// The memo holds at most kCapacity runs and stays exact past that: older
// runs are replaced, never answered wrongly.
TEST(Sha256ZeroMemoTest, BoundedAndExactWhenFull) {
  Sha256ZeroMemo memo;
  for (int round = 0; round < 2; ++round) {
    for (uint64_t n = 64; n < 64 + 3 * Sha256ZeroMemo::kCapacity; ++n) {
      Sha256 memoised;
      memoised.UpdateZeros(n, &memo);
      const std::vector<uint8_t> zeros(static_cast<size_t>(n), 0);
      ASSERT_EQ(memoised.Finalize(), Sha256::Hash(zeros)) << "n=" << n;
      ASSERT_LE(memo.size(), Sha256ZeroMemo::kCapacity);
    }
  }
  EXPECT_EQ(memo.size(), Sha256ZeroMemo::kCapacity);
}

TEST(PowModTest, ZeroExponentModOneIsZero) {
  // x^0 mod 1 = 0: every residue mod 1 is 0.
  for (uint64_t x : {0ull, 1ull, 5ull}) {
    EXPECT_TRUE(BigUint::PowMod(BigUint(x), BigUint(), BigUint(1)).IsZero());
    EXPECT_TRUE(
        BigUint::PowModReference(BigUint(x), BigUint(), BigUint(1)).IsZero());
    EXPECT_TRUE(
        BigUint::PowMod(BigUint(x), BigUint(7), BigUint(1)).IsZero());
  }
  // A multi-limb odd modulus takes the Montgomery path: x^0 is 1 there.
  const BigUint m = BigUint::FromHex("1000000000000000000000001");
  EXPECT_EQ(BigUint::PowModMontgomery(BigUint(9), BigUint(), m), BigUint(1));
  EXPECT_EQ(BigUint::PowModMontgomery(BigUint(), BigUint(), m), BigUint(1));
}

// A random odd modulus of `bits` bits; with `top_limb_one` its top limb is
// exactly 1 (so bits = 32k + 1).
BigUint RandomOddModulus(size_t bits, bool top_limb_one, Rng& rng) {
  BigUint m = BigUint::RandomWithBits(bits, rng);
  if (top_limb_one) {
    const size_t low_bits = (bits - 1) / 32 * 32;
    m = BigUint::Add(BigUint(1).ShiftLeft(low_bits),
                     BigUint::RandomWithBits(low_bits - 1, rng));
  }
  return m.IsOdd() ? m : BigUint::Add(m, BigUint(1));
}

TEST(PowModTest, MontgomeryMatchesReference) {
  Rng rng(0x3017);
  for (int trial = 0; trial < 600; ++trial) {
    const int shape = trial % 8;
    const bool top_limb_one = shape == 4;
    size_t bits = 33 + static_cast<size_t>(rng.NextBounded(2048 - 33 + 1));
    if (top_limb_one) {
      bits = (bits - 1) / 32 * 32 + 1;
    }
    const BigUint m = RandomOddModulus(bits, top_limb_one, rng);
    ASSERT_GE(m.limbs().size(), 2u);
    ASSERT_TRUE(m.IsOdd());

    // Bases below m, above m (up to twice as long), and zero.
    BigUint base = BigUint::RandomInRange(BigUint(), BigUint::Sub(m, BigUint(1)),
                                          rng);
    if (shape == 0) {
      base = BigUint();
    } else if (shape == 3) {
      base = BigUint::Add(m, BigUint::RandomWithBits(
                                 1 + rng.NextBounded(bits * 2), rng));
    }
    // Exponents: 0, 1, short (binary path) and long (windowed path). Long
    // exponents stay below 512 bits except on the smaller moduli, to bound
    // the reference path's cost.
    BigUint exp;
    if (shape == 1) {
      exp = BigUint();
    } else if (shape == 2) {
      exp = BigUint(1);
    } else if (shape == 5 && bits <= 1024) {
      exp = BigUint::RandomWithBits(bits, rng);
    } else {
      exp = BigUint::RandomWithBits(1 + rng.NextBounded(512), rng);
    }

    const BigUint want = BigUint::PowModReference(base, exp, m);
    ASSERT_EQ(BigUint::PowModMontgomery(base, exp, m), want)
        << "trial=" << trial << " m=" << m.ToHex() << " base=" << base.ToHex()
        << " exp=" << exp.ToHex();
    ASSERT_EQ(BigUint::PowMod(base, exp, m), want) << "trial=" << trial;
  }
}

TEST(PowModTest, EvenAndSingleLimbModuliUseReference) {
  Rng rng(0x3018);
  for (int trial = 0; trial < 50; ++trial) {
    const BigUint base = BigUint::RandomWithBits(100, rng);
    const BigUint exp = BigUint::RandomWithBits(70, rng);
    const BigUint even =
        BigUint::RandomWithBits(1 + rng.NextBounded(300), rng).ShiftLeft(1);
    const BigUint small(1 + rng.NextBounded(0xffffffffull));
    EXPECT_EQ(BigUint::PowMod(base, exp, even),
              BigUint::PowModReference(base, exp, even));
    EXPECT_EQ(BigUint::PowMod(base, exp, small),
              BigUint::PowModReference(base, exp, small));
  }
}

// Moduli whose 32-bit limb count is odd (9 and 13 limbs), so the 64-bit
// Montgomery context pads the top limb, plus 33 and 96 bits: the smallest
// Montgomery modulus (top limb exactly 1) and the smallest odd count.
TEST(PowModTest, MontgomeryMatchesReferenceOnPaddedLimbCounts) {
  Rng rng(0x3019);
  for (size_t bits : {33u, 96u, 288u, 416u}) {
    for (int trial = 0; trial < 60; ++trial) {
      const BigUint m =
          RandomOddModulus(bits, bits % 32 == 1 && trial % 3 == 0, rng);
      ASSERT_EQ(m.BitLength(), bits);
      const BigUint base = BigUint::RandomWithBits(1 + rng.NextBounded(bits),
                                                   rng);
      const BigUint exp = BigUint::RandomWithBits(
          trial % 2 == 0 ? 17 : 1 + rng.NextBounded(bits), rng);
      ASSERT_EQ(BigUint::PowModMontgomery(base, exp, m),
                BigUint::PowModReference(base, exp, m))
          << "m=" << m.ToHex() << " base=" << base.ToHex()
          << " exp=" << exp.ToHex();
    }
  }
}

// Both Miller-Rabin tests on n from the same seed: they must reach the same
// verdict and leave their generators at the same point of the stream.
void ExpectSameMillerRabin(const BigUint& n, uint64_t seed) {
  Rng fast(seed);
  Rng reference(seed);
  const bool got = BigUint::IsProbablePrime(n, 20, fast);
  const bool want = BigUint::IsProbablePrimeReference(n, 20, reference);
  ASSERT_EQ(got, want) << "n=" << n.ToHex() << " seed=" << seed;
  ASSERT_EQ(fast.NextU64(), reference.NextU64())
      << "n=" << n.ToHex() << " seed=" << seed;
}

BigUint OddWithBits(size_t bits, Rng& rng) {
  const BigUint n = BigUint::RandomWithBits(bits, rng);
  return n.IsOdd() ? n : BigUint::Add(n, BigUint(1));
}

// Chernick's Carmichael numbers (6k+1)(12k+1)(18k+1), for k making all three
// factors prime.
BigUint Chernick(uint64_t k) {
  return BigUint::Mul(BigUint::Mul(BigUint(6 * k + 1), BigUint(12 * k + 1)),
                      BigUint(18 * k + 1));
}

// The primes the witness shortcut uses.
std::vector<uint64_t> PrimesFrom41To1024() {
  std::vector<uint64_t> primes;
  for (uint64_t p = 41; p < 1024; p += 2) {
    bool prime = true;
    for (uint64_t d = 3; d * d <= p; d += 2) {
      prime = prime && p % d != 0;
    }
    if (prime) {
      primes.push_back(p);
    }
  }
  return primes;
}

TEST(MillerRabinDiffTest, FermatWitnessModFactorMatchesDefinition) {
  // Against a^(n-1) mod p computed in full, for n = p * q and bases that
  // include multiples of p.
  Rng rng(0xfe4a);
  for (uint64_t p : PrimesFrom41To1024()) {
    for (int i = 0; i < 8; ++i) {
      const BigUint n = BigUint::Mul(
          BigUint(p), OddWithBits(8 + rng.NextBounded(300), rng));
      const BigUint a =
          i == 0 ? BigUint::Mul(BigUint(p), BigUint(2 + rng.NextBounded(50)))
                 : BigUint::RandomInRange(BigUint(2),
                                          BigUint::Sub(n, BigUint(2)), rng);
      const bool fermat_liar =
          BigUint::PowModReference(a, BigUint::Sub(n, BigUint(1)),
                                   BigUint(p)) == BigUint(1);
      ASSERT_EQ(BigUint::IsFermatWitnessModFactor(
                    a, n, static_cast<uint32_t>(p)),
                !fermat_liar)
          << "p=" << p << " n=" << n.ToHex() << " a=" << a.ToHex();
    }
  }
  // A Carmichael number has no Fermat witness coprime to it.
  const BigUint carmichael = Chernick(35);  // 211 * 421 * 631
  for (int i = 0; i < 100; ++i) {
    const BigUint a(2 + rng.NextBounded(200));
    for (uint32_t p : {211u, 421u, 631u}) {
      EXPECT_FALSE(BigUint::IsFermatWitnessModFactor(a, carmichael, p));
    }
  }
}

TEST(MillerRabinDiffTest, EveryNumberBelow3000) {
  // Covers 0, 1, the trial-division primes (n == p) and the primes from 41
  // up, whose only small factor is n itself.
  for (uint64_t n = 0; n < 3000; ++n) {
    ExpectSameMillerRabin(BigUint(n), n);
  }
}

TEST(MillerRabinDiffTest, RandomOddCandidates) {
  Rng rng(0x4d52);
  for (uint64_t trial = 0; trial < 400; ++trial) {
    const size_t bits = 40 + static_cast<size_t>(rng.NextBounded(1024 - 40 + 1));
    ExpectSameMillerRabin(OddWithBits(bits, rng), trial);
  }
  // Primes too, where every round runs in full.
  for (uint64_t trial = 0; trial < 12; ++trial) {
    const size_t bits = 40 + static_cast<size_t>(rng.NextBounded(512 - 40 + 1));
    ExpectSameMillerRabin(BigUint::GeneratePrime(bits, rng), trial);
  }
}

TEST(MillerRabinDiffTest, CarmichaelNumbers) {
  // Every base coprime to a Carmichael number is a Fermat liar, and about
  // one in eight random bases of these is a strong liar, so rounds pass and
  // the Montgomery-form comparisons and the shortcut's fall-through both
  // run. The k from 35 to 121 put the smallest factor (211 ... 727) in the
  // shortcut's range; the last three are 71, 131 and 191 bits long.
  std::vector<BigUint> numbers = {BigUint(561), BigUint(41041),
                                  BigUint(825265)};
  for (uint64_t k : {35ull, 45ull, 51ull, 55ull, 56ull, 100ull, 121ull,
                     1048665ull, 1099511628756ull, 1152921504606847306ull}) {
    numbers.push_back(Chernick(k));
  }
  EXPECT_EQ(numbers[3], BigUint(56052361));  // 211 * 421 * 631
  for (const BigUint& n : numbers) {
    for (uint64_t seed = 0; seed < 200; ++seed) {
      ExpectSameMillerRabin(n, seed);
    }
  }
}

TEST(MillerRabinDiffTest, StrongPseudoprimesToBase2) {
  // All base-2 strong pseudoprimes below 400000, then one that is also
  // strong to bases 3, 5 and 7 (151 * 751 * 28351).
  for (uint64_t n :
       {2047ull,   3277ull,   4033ull,   4681ull,   8321ull,   15841ull,
        29341ull,  42799ull,  49141ull,  52633ull,  65281ull,  74665ull,
        80581ull,  85489ull,  88357ull,  90751ull,  104653ull, 130561ull,
        196093ull, 220729ull, 233017ull, 252601ull, 253241ull, 256999ull,
        271951ull, 280601ull, 314821ull, 357761ull, 390937ull,
        3215031751ull}) {
    for (uint64_t seed = 0; seed < 50; ++seed) {
      ExpectSameMillerRabin(BigUint(n), seed);
    }
  }
}

TEST(MillerRabinDiffTest, SmallPrimeTimesRandom) {
  // n = p * q with p every prime in [41, 1024): the shortcut's prime. q is a
  // random odd number or a prime, so p is n's smallest factor or not.
  Rng rng(0x5a11);
  for (uint64_t p : PrimesFrom41To1024()) {
    for (uint64_t i = 0; i < 4; ++i) {
      const size_t bits = 8 + static_cast<size_t>(rng.NextBounded(500));
      const BigUint q = i == 3 ? BigUint::GeneratePrime(8 + bits / 4, rng)
                               : OddWithBits(bits, rng);
      ExpectSameMillerRabin(BigUint::Mul(BigUint(p), q), p * 4 + i);
    }
  }
}

// GeneratePrime against the same search loop over the reference test from
// seeds 0 to 199 at each size, in shards of 50 seeds: same prime, same
// generator state afterwards.
class GeneratePrimeDiffTest
    : public ::testing::TestWithParam<std::tuple<size_t, uint64_t>> {};

TEST_P(GeneratePrimeDiffTest, MatchesReferenceLoop) {
  const auto [bits, first_seed] = GetParam();
  for (uint64_t seed = first_seed; seed < first_seed + 50; ++seed) {
    Rng fast(seed);
    Rng reference(seed);
    const BigUint got = BigUint::GeneratePrime(bits, fast);
    BigUint want;
    do {
      want = OddWithBits(bits, reference);
    } while (!BigUint::IsProbablePrimeReference(want, 20, reference));
    ASSERT_EQ(got, want) << "bits=" << bits << " seed=" << seed;
    ASSERT_EQ(fast.NextU64(), reference.NextU64())
        << "bits=" << bits << " seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Bits, GeneratePrimeDiffTest,
    ::testing::Combine(::testing::Values(size_t{256}, size_t{384},
                                         size_t{512}),
                       ::testing::Values(uint64_t{0}, uint64_t{50},
                                         uint64_t{100}, uint64_t{150})),
    [](const ::testing::TestParamInfo<std::tuple<size_t, uint64_t>>& param) {
      return std::to_string(std::get<0>(param.param)) + "_from" +
             std::to_string(std::get<1>(param.param));
    });

TEST(RsaTest, CrtSignatureEqualsPlainExponentiation) {
  Rng rng(0xc47);
  for (size_t bits : {512u, 768u, 1024u}) {
    const RsaKeyPair kp = GenerateRsaKeyPair(bits, rng);
    const RsaPrivateKey& key = kp.private_key;
    EXPECT_EQ(BigUint::Mul(key.p, key.q), key.n);
    EXPECT_EQ(BigUint::MulMod(key.qinv, key.q, key.p), BigUint(1));
    RsaPrivateKey plain;  // no CRT components: signs with d directly
    plain.n = key.n;
    plain.d = key.d;
    for (int i = 0; i < 4; ++i) {
      const std::string msg = "quote " + std::to_string(bits) + "/" +
                              std::to_string(i);
      const Sha256Digest digest = Sha256::Hash(Bytes(msg));
      const auto crt = RsaSignDigest(key, digest);
      EXPECT_EQ(crt, RsaSignDigest(plain, digest)) << bits << " " << i;
      EXPECT_TRUE(RsaVerifyDigest(kp.public_key, digest, crt));
    }
  }
}

}  // namespace
}  // namespace snic::crypto
