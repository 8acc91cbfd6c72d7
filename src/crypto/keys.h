// Hardware root-of-trust key infrastructure (Appendix A).
//
// Models the manufacturing-time endorsement key (EK) with its vendor
// certificate, and the boot-time attestation key (AK) signed by the EK.
// Verifiers trust a vendor public key, walk the chain
//   vendor cert -> EK_pub -> AK_pub -> attestation signature,
// and thereby conclude the quote came from a genuine S-NIC.

#ifndef SNIC_CRYPTO_KEYS_H_
#define SNIC_CRYPTO_KEYS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/crypto/rsa.h"

namespace snic::crypto {

// A minimal certificate: subject public key signed by an issuer key over a
// canonical serialization (modulus || exponent || subject name).
struct Certificate {
  std::string subject;
  RsaPublicKey subject_key;
  std::vector<uint8_t> issuer_signature;
};

// Canonical byte serialization of (subject, key) that certificate signatures
// cover.
std::vector<uint8_t> CertificatePayload(const std::string& subject,
                                        const RsaPublicKey& key);

// The NIC vendor's signing authority. Issues EK certificates at
// "manufacturing time".
class VendorAuthority {
 public:
  // modulus_bits: RSA size for the vendor root (tests use 512/768 for speed).
  VendorAuthority(size_t modulus_bits, Rng& rng);

  const RsaPublicKey& public_key() const { return keys_.public_key; }

  Certificate IssueCertificate(const std::string& subject,
                               const RsaPublicKey& subject_key) const;

  static bool VerifyCertificate(const RsaPublicKey& vendor_key,
                                const Certificate& cert);

 private:
  RsaKeyPair keys_;
};

// The key material a root of trust draws from its entropy: the EK, the AK
// and the EK's signature over AK_pub. The EK certificate is not part of it;
// the vendor issues that.
struct RootOfTrustKeys {
  RsaKeyPair ek;
  RsaKeyPair ak;
  std::vector<uint8_t> ak_endorsement;  // Sign_EK(AK_pub serialization)
};

// Generates the EK, then the AK, from `rng`, and endorses AK_pub with
// EK_priv. Deterministic given the RNG state.
RootOfTrustKeys GenerateRootOfTrustKeys(size_t modulus_bits, Rng& rng);

// The per-NIC key material held in private hardware registers.
class NicRootOfTrust {
 public:
  // Burns in the EK, obtains its vendor certificate, then generates the
  // boot-time AK and signs AK_pub with EK_priv.
  NicRootOfTrust(const VendorAuthority& vendor, size_t modulus_bits, Rng& rng);

  // Rebuilds a root of trust from keys an earlier boot generated. `vendor`
  // issues the EK certificate afresh; RSA signing is deterministic, so it
  // is the certificate the original boot obtained from the same vendor.
  NicRootOfTrust(const VendorAuthority& vendor, RootOfTrustKeys keys);

  // Public, shareable parts of the chain.
  const Certificate& ek_certificate() const { return ek_certificate_; }
  const RsaPublicKey& ak_public() const { return keys_.ak.public_key; }
  const std::vector<uint8_t>& ak_endorsement() const {
    return keys_.ak_endorsement;
  }

  // Signs a quote payload with AK_priv. Only the trusted instruction layer
  // calls this (the private key never leaves the object).
  std::vector<uint8_t> SignWithAk(std::span<const uint8_t> payload) const;

  // Verifier-side chain validation: vendor key -> EK cert -> AK endorsement.
  static bool VerifyAkChain(const RsaPublicKey& vendor_key,
                            const Certificate& ek_cert,
                            const RsaPublicKey& ak_public,
                            std::span<const uint8_t> ak_endorsement);

 private:
  RootOfTrustKeys keys_;
  Certificate ek_certificate_;
};

}  // namespace snic::crypto

#endif  // SNIC_CRYPTO_KEYS_H_
