#include "src/scenario/crypto_memo.h"

namespace snic::scenario {

core::BootKeys CryptoMemo::Boot(uint64_t boot_seed, size_t modulus_bits) {
  {
    MutexLock lock(&mu_);
    if (boot_.has_value() && boot_->boot_seed == boot_seed &&
        boot_->modulus_bits == modulus_bits) {
      return boot_->boot;
    }
  }
  core::BootKeys boot = core::GenerateBootKeys(boot_seed, modulus_bits);
  MutexLock lock(&mu_);
  ++boot_misses_;
  boot_ = BootEntry{boot_seed, modulus_bits, boot};
  return boot;
}

uint64_t CryptoMemo::boot_misses() const {
  MutexLock lock(&mu_);
  return boot_misses_;
}

}  // namespace snic::scenario
