#include "src/mgmt/verifier.h"

#include <algorithm>

#include "src/common/units.h"
#include "src/crypto/sha256.h"

namespace snic::mgmt {

crypto::Sha256Digest ExpectedMeasurement(const FunctionImage& image,
                                         uint64_t page_bytes,
                                         crypto::Sha256ZeroMemo* memo) {
  // nf_launch digests the image page by page, zero-padded to page size:
  // that is the image bytes followed by zeros up to a page boundary.
  static constexpr uint8_t kZeros[4096] = {};
  crypto::Sha256 hasher;
  const uint64_t image_bytes = image.code_and_data.size();
  hasher.Update(image.code_and_data.data(), image_bytes);
  uint64_t tail = CeilDiv(image_bytes, page_bytes) * page_bytes - image_bytes;
  if (memo != nullptr) {
    hasher.UpdateZeros(tail, memo);
    tail = 0;
  }
  while (tail > 0) {
    const uint64_t take = std::min<uint64_t>(tail, sizeof(kZeros));
    hasher.Update(kZeros, take);
    tail -= take;
  }
  const std::vector<uint8_t> config = image.SerializeConfig();
  hasher.Update(config.data(), config.size());
  return hasher.Finalize();
}

void Verifier::ExpectFunction(const std::string& name,
                              const crypto::Sha256Digest& measurement) {
  expected_[name] = measurement;
}

Result<SecureChannel> Verifier::VerifyAndKey(
    const std::string& name, const core::AttestationQuote& quote,
    const std::vector<uint8_t>& nonce,
    const crypto::DhParticipant& my_dh) const {
  const auto it = expected_.find(name);
  if (it == expected_.end()) {
    return NotFound("no expected measurement registered for " + name);
  }
  const auto verification =
      core::VerifyQuote(vendor_key_, quote, nonce, &it->second);
  if (!verification.chain_ok) {
    return PermissionDenied("certificate chain does not reach the vendor");
  }
  if (!verification.signature_ok) {
    return PermissionDenied("quote signature invalid");
  }
  if (!verification.nonce_ok) {
    return PermissionDenied("stale or replayed nonce");
  }
  if (!verification.measurement_ok) {
    return PermissionDenied(
        "measurement mismatch: the NIC OS launched something other than "
        "the uploaded image/config for " +
        name);
  }
  return SecureChannel(my_dh.DeriveChannelKey(quote.g_x));
}

}  // namespace snic::mgmt
