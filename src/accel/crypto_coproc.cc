#include "src/accel/crypto_coproc.h"

namespace snic::accel {

crypto::Sha256Digest CryptoCoprocessor::Digest(
    std::span<const uint8_t> data) {
  elapsed_ms_ += static_cast<double>(data.size()) / rates_.sha_bytes_per_ms;
  return crypto::Sha256::Hash(data);
}

void CryptoCoprocessor::DigestUpdate(crypto::Sha256& hasher,
                                     std::span<const uint8_t> data) {
  elapsed_ms_ += static_cast<double>(data.size()) / rates_.sha_bytes_per_ms;
  hasher.Update(data);
}

void CryptoCoprocessor::DigestPage(crypto::Sha256& hasher,
                                   std::span<const uint8_t> written,
                                   uint64_t zeros,
                                   crypto::Sha256ZeroMemo* memo) {
  elapsed_ms_ += static_cast<double>(written.size() + zeros) /
                 rates_.sha_bytes_per_ms;
  hasher.Update(written);
  hasher.UpdateZeros(zeros, memo);
}

void CryptoCoprocessor::AccountScrub(uint64_t bytes) {
  elapsed_ms_ += static_cast<double>(bytes) / rates_.scrub_bytes_per_ms;
}

void CryptoCoprocessor::AccountRsaSign() {
  elapsed_ms_ += rates_.rsa_sign_ms + rates_.sha_fixed_ms;
}

void CryptoCoprocessor::AccountTlbSetup() { elapsed_ms_ += rates_.tlb_setup_ms; }

void CryptoCoprocessor::AccountDenylistUpdate() {
  elapsed_ms_ += rates_.denylist_ms;
}

void CryptoCoprocessor::AccountAllowlistUpdate() {
  elapsed_ms_ += rates_.allowlist_ms;
}

}  // namespace snic::accel
