#include "src/crypto/keys.h"

#include <utility>

namespace snic::crypto {
namespace {

void AppendBigUint(std::vector<uint8_t>& out, const BigUint& v) {
  const std::vector<uint8_t> bytes = v.ToBytes();
  const auto len = static_cast<uint32_t>(bytes.size());
  for (int i = 3; i >= 0; --i) {
    out.push_back(static_cast<uint8_t>(len >> (8 * i)));
  }
  out.insert(out.end(), bytes.begin(), bytes.end());
}

std::vector<uint8_t> SerializePublicKey(const RsaPublicKey& key) {
  std::vector<uint8_t> out;
  AppendBigUint(out, key.n);
  AppendBigUint(out, key.e);
  return out;
}

}  // namespace

std::vector<uint8_t> CertificatePayload(const std::string& subject,
                                        const RsaPublicKey& key) {
  std::vector<uint8_t> out = SerializePublicKey(key);
  out.insert(out.end(), subject.begin(), subject.end());
  return out;
}

VendorAuthority::VendorAuthority(size_t modulus_bits, Rng& rng)
    : keys_(GenerateRsaKeyPair(modulus_bits, rng)) {}

Certificate VendorAuthority::IssueCertificate(
    const std::string& subject, const RsaPublicKey& subject_key) const {
  Certificate cert;
  cert.subject = subject;
  cert.subject_key = subject_key;
  const std::vector<uint8_t> payload = CertificatePayload(subject, subject_key);
  cert.issuer_signature = RsaSign(keys_.private_key, payload);
  return cert;
}

bool VendorAuthority::VerifyCertificate(const RsaPublicKey& vendor_key,
                                        const Certificate& cert) {
  const std::vector<uint8_t> payload =
      CertificatePayload(cert.subject, cert.subject_key);
  return RsaVerify(vendor_key, payload, cert.issuer_signature);
}

RootOfTrustKeys GenerateRootOfTrustKeys(size_t modulus_bits, Rng& rng) {
  RootOfTrustKeys keys;
  keys.ek = GenerateRsaKeyPair(modulus_bits, rng);
  keys.ak = GenerateRsaKeyPair(modulus_bits, rng);
  keys.ak_endorsement =
      RsaSign(keys.ek.private_key, SerializePublicKey(keys.ak.public_key));
  return keys;
}

NicRootOfTrust::NicRootOfTrust(const VendorAuthority& vendor,
                               size_t modulus_bits, Rng& rng)
    : NicRootOfTrust(vendor, GenerateRootOfTrustKeys(modulus_bits, rng)) {}

NicRootOfTrust::NicRootOfTrust(const VendorAuthority& vendor,
                               RootOfTrustKeys keys)
    : keys_(std::move(keys)),
      ek_certificate_(vendor.IssueCertificate("snic-ek", keys_.ek.public_key)) {
}

std::vector<uint8_t> NicRootOfTrust::SignWithAk(
    std::span<const uint8_t> payload) const {
  return RsaSign(keys_.ak.private_key, payload);
}

bool NicRootOfTrust::VerifyAkChain(const RsaPublicKey& vendor_key,
                                   const Certificate& ek_cert,
                                   const RsaPublicKey& ak_public,
                                   std::span<const uint8_t> ak_endorsement) {
  if (!VendorAuthority::VerifyCertificate(vendor_key, ek_cert)) {
    return false;
  }
  const std::vector<uint8_t> ak_payload = SerializePublicKey(ak_public);
  return RsaVerify(ek_cert.subject_key, ak_payload, ak_endorsement);
}

}  // namespace snic::crypto
