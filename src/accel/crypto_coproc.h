// Security co-processor model.
//
// The paper's micro-benchmarks (Appendix C, Fig. 6) run the trusted
// instructions on a Marvell NIC's security co-processor. Latency is
// rate-dominated: SHA-256 digesting of the function image governs nf_launch
// (~470 MB/s effective), RSA signing governs nf_attest (5.596 ms), and
// memory scrubbing governs nf_destroy (~6.6 GB/s). This class performs the
// *functional* operations with the from-scratch crypto library and reports
// *modeled* latencies at the co-processor's rates, so the Fig. 6 bench
// regenerates the paper's series on any host.

#ifndef SNIC_ACCEL_CRYPTO_COPROC_H_
#define SNIC_ACCEL_CRYPTO_COPROC_H_

#include <cstdint>
#include <span>

#include "src/crypto/sha256.h"

namespace snic::accel {

struct CryptoCoprocRates {
  double sha_bytes_per_ms = 470e3;      // ≈470 MB/s (fit from Appendix C)
  double scrub_bytes_per_ms = 6.65e6;   // ≈6.65 GB/s memset
  double rsa_sign_ms = 5.596;           // RSA signing inside nf_attest
  double sha_fixed_ms = 0.004;          // per-attest digest of the quote
  double tlb_setup_ms = 0.0196;         // TLB setup + config reading
  double denylist_ms = 0.0044;          // denylist page-table update
  double allowlist_ms = 0.0038;         // allowlist (teardown) update
};

class CryptoCoprocessor {
 public:
  explicit CryptoCoprocessor(const CryptoCoprocRates& rates = {})
      : rates_(rates) {}

  // Digests `data`, accumulating modeled latency.
  crypto::Sha256Digest Digest(std::span<const uint8_t> data);

  // Streaming digest used by nf_launch's cumulative measurement.
  void DigestUpdate(crypto::Sha256& hasher, std::span<const uint8_t> data);

  // nf_launch's per-page step: absorbs `written` followed by `zeros` zero
  // bytes (through `memo` when given). The modeled time is charged for the
  // whole page in one step, exactly what DigestUpdate of the materialized
  // page charges.
  void DigestPage(crypto::Sha256& hasher, std::span<const uint8_t> written,
                  uint64_t zeros, crypto::Sha256ZeroMemo* memo);

  // Models zeroing `bytes` of RAM (nf_teardown's scrub). The caller zeroes
  // the actual backing store; this only accounts the time.
  void AccountScrub(uint64_t bytes);

  // Models one RSA signature (nf_attest).
  void AccountRsaSign();
  void AccountTlbSetup();
  void AccountDenylistUpdate();
  void AccountAllowlistUpdate();

  // Modeled elapsed milliseconds since construction / last reset.
  double elapsed_ms() const { return elapsed_ms_; }
  void ResetElapsed() { elapsed_ms_ = 0.0; }

  const CryptoCoprocRates& rates() const { return rates_; }

 private:
  CryptoCoprocRates rates_;
  double elapsed_ms_ = 0.0;
};

}  // namespace snic::accel

#endif  // SNIC_ACCEL_CRYPTO_COPROC_H_
