#include "src/crypto/rsa.h"

#include <algorithm>
#include <utility>

#include "src/common/status.h"

namespace snic::crypto {
namespace {

// DER DigestInfo prefix for SHA-256 (RFC 8017 §9.2 note 1).
constexpr uint8_t kSha256DigestInfo[] = {0x30, 0x31, 0x30, 0x0d, 0x06, 0x09,
                                         0x60, 0x86, 0x48, 0x01, 0x65, 0x03,
                                         0x04, 0x02, 0x01, 0x05, 0x00, 0x04,
                                         0x20};

// Builds the EMSA-PKCS1-v1_5 encoded message block of width `em_len`.
std::vector<uint8_t> EncodeEmsa(const Sha256Digest& digest, size_t em_len) {
  const size_t t_len = sizeof(kSha256DigestInfo) + digest.size();
  SNIC_CHECK(em_len >= t_len + 11);
  std::vector<uint8_t> em(em_len, 0xff);
  em[0] = 0x00;
  em[1] = 0x01;
  em[em_len - t_len - 1] = 0x00;
  std::copy(std::begin(kSha256DigestInfo), std::end(kSha256DigestInfo),
            em.begin() + static_cast<ptrdiff_t>(em_len - t_len));
  std::copy(digest.begin(), digest.end(),
            em.begin() +
                static_cast<ptrdiff_t>(em_len - digest.size()));
  return em;
}

}  // namespace

RsaKeyPair GenerateRsaKeyPair(size_t modulus_bits, Rng& rng) {
  SNIC_CHECK(modulus_bits >= 256);
  const BigUint e(65537);
  for (;;) {
    const BigUint p = BigUint::GeneratePrime(modulus_bits / 2, rng);
    const BigUint q = BigUint::GeneratePrime(modulus_bits / 2, rng);
    if (p == q) {
      continue;
    }
    const BigUint n = BigUint::Mul(p, q);
    const BigUint phi = BigUint::Mul(BigUint::Sub(p, BigUint(1)),
                                     BigUint::Sub(q, BigUint(1)));
    BigUint d;
    if (!BigUint::InvMod(e, phi, &d)) {
      continue;  // e not coprime with phi; re-draw primes
    }
    BigUint qinv;
    SNIC_CHECK(BigUint::InvMod(q, p, &qinv));  // distinct primes
    RsaKeyPair pair;
    pair.public_key = RsaPublicKey{n, e};
    pair.private_key = RsaPrivateKey{
        n,
        d,
        p,
        q,
        BigUint::Mod(d, BigUint::Sub(p, BigUint(1))),
        BigUint::Mod(d, BigUint::Sub(q, BigUint(1))),
        std::move(qinv)};
    return pair;
  }
}

std::vector<uint8_t> RsaSignDigest(const RsaPrivateKey& key,
                                   const Sha256Digest& digest) {
  const size_t k = (key.n.BitLength() + 7) / 8;
  const std::vector<uint8_t> em = EncodeEmsa(digest, k);
  const BigUint m = BigUint::FromBytes(em);
  if (key.p.IsZero()) {
    return BigUint::PowMod(m, key.d, key.n).ToBytesPadded(k);
  }
  // Garner's recombination: s = s_q + q * (qinv * (s_p - s_q) mod p).
  const BigUint s_p = BigUint::PowMod(m, key.dp, key.p);
  const BigUint s_q = BigUint::PowMod(m, key.dq, key.q);
  const BigUint s_q_mod_p = BigUint::Mod(s_q, key.p);
  const BigUint diff = s_p >= s_q_mod_p
                           ? BigUint::Sub(s_p, s_q_mod_p)
                           : BigUint::Sub(BigUint::Add(s_p, key.p), s_q_mod_p);
  const BigUint h = BigUint::MulMod(key.qinv, diff, key.p);
  const BigUint s = BigUint::Add(s_q, BigUint::Mul(key.q, h));
  return s.ToBytesPadded(k);
}

std::vector<uint8_t> RsaSign(const RsaPrivateKey& key,
                             std::span<const uint8_t> message) {
  return RsaSignDigest(key, Sha256::Hash(message));
}

bool RsaVerifyDigest(const RsaPublicKey& key, const Sha256Digest& digest,
                     std::span<const uint8_t> signature) {
  const size_t k = key.ModulusBytes();
  if (signature.size() != k) {
    return false;
  }
  const BigUint s = BigUint::FromBytes(signature);
  if (s >= key.n) {
    return false;
  }
  const BigUint m = BigUint::PowMod(s, key.e, key.n);
  const std::vector<uint8_t> em = m.ToBytesPadded(k);
  const std::vector<uint8_t> expected = EncodeEmsa(digest, k);
  return em == expected;
}

bool RsaVerify(const RsaPublicKey& key, std::span<const uint8_t> message,
               std::span<const uint8_t> signature) {
  return RsaVerifyDigest(key, Sha256::Hash(message), signature);
}

}  // namespace snic::crypto
