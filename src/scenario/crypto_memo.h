// Crypto results shared across scenarios (docs/PERFORMANCE.md "Scenario
// memos").
//
// Every scenario run boots its device's root of trust from the default
// boot seed and launches images whose measurement is mostly one zero run.
// Both are pure functions of their inputs and the same in every scenario,
// so a CryptoMemo computes each once and hands out copies:
//   * Boot(boot_seed, bits) is core::GenerateBootKeys(boot_seed, bits);
//   * sha() is the zero-run memo nf_launch and the Supervisor's
//     ExpectedMeasurement share.
// Run outputs are byte-identical with or without it. (The vendor key is
// drawn from each scenario's own seed, so it is shared only by that
// scenario's runs: EvaluateScenario generates it once and hands it to them.)
//
// Thread-safe: scenario_matrix shares one memo across its workers. Keys
// are generated outside the lock, so workers that miss at the same time
// each generate them (the same value) instead of queueing behind one
// another. Boot keeps a single entry: every run asks for the same one.

#ifndef SNIC_SCENARIO_CRYPTO_MEMO_H_
#define SNIC_SCENARIO_CRYPTO_MEMO_H_

#include <cstddef>
#include <cstdint>
#include <optional>

#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"
#include "src/core/snic_device.h"
#include "src/crypto/sha256.h"

namespace snic::scenario {

class CryptoMemo {
 public:
  core::BootKeys Boot(uint64_t boot_seed, size_t modulus_bits);
  crypto::Sha256ZeroMemo* sha() { return &sha_; }

  // Roots of trust the memo could not serve from its entry.
  uint64_t boot_misses() const;

 private:
  struct BootEntry {
    uint64_t boot_seed;
    size_t modulus_bits;
    core::BootKeys boot;
  };

  mutable Mutex mu_;
  std::optional<BootEntry> boot_ SNIC_GUARDED_BY(mu_);
  uint64_t boot_misses_ SNIC_GUARDED_BY(mu_) = 0;
  crypto::Sha256ZeroMemo sha_;  // locks itself
};

}  // namespace snic::scenario

#endif  // SNIC_SCENARIO_CRYPTO_MEMO_H_
