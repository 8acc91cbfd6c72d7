// SHA-256 (FIPS 180-4), implemented from scratch.
//
// Used by the trusted-instruction layer: `nf_launch` folds every installed
// page and configuration record into a cumulative SHA-256 measurement of a
// function's initial state (§4.6), and `nf_attest` signs that digest
// (Appendix A). A streaming interface is provided so the measurement can be
// updated page-by-page exactly as the microcoded instruction would.
//
// The compression function is pluggable. `Sha256BlocksReference` is the
// portable FIPS 180-4 round loop: the oracle for every other block function
// and the fallback on hosts without the x86 SHA extensions. On x86-64 hosts
// whose CPU reports SHA-NI (checked once at run time via CPUID),
// `Sha256BlocksShaNi` is used instead; it is compiled with a per-function
// target attribute, so no build option selects it. Both produce the same
// state for the same input, which the differential tests check.
//
// `UpdateZeros` absorbs a run of zero bytes without a caller-side buffer.
// Given a Sha256ZeroMemo it skips the compression entirely when the same
// (midstate, buffered tail, run length) was absorbed before: nf_launch pads
// every image page with zeros, so a launch's measurement is mostly one
// zero run that the memo computes once.

#ifndef SNIC_CRYPTO_SHA256_H_
#define SNIC_CRYPTO_SHA256_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"

namespace snic::crypto {

using Sha256Digest = std::array<uint8_t, 32>;

// Compresses `blocks` consecutive 64-byte blocks at `data` into `state`.
using Sha256BlockFn = void (*)(uint32_t state[8], const uint8_t* data,
                               size_t blocks);

// Portable block function (the reference path).
void Sha256BlocksReference(uint32_t state[8], const uint8_t* data,
                           size_t blocks);

// True if this CPU can run Sha256BlocksShaNi.
bool Sha256HasShaNi();

// SHA-NI block function; call only when Sha256HasShaNi() is true.
void Sha256BlocksShaNi(uint32_t state[8], const uint8_t* data, size_t blocks);

// The block function chosen for this host: SHA-NI when available, else the
// reference.
Sha256BlockFn Sha256DefaultBlockFn();

// Memo for Sha256::UpdateZeros: maps (midstate, buffered tail bytes, run
// length) to the midstate after absorbing the run. Exact by construction:
// the key holds everything the compression reads (the bit count only feeds
// Finalize and advances outside the memo), so a hit returns the very state
// the blocks would have produced. Bounded: past kCapacity entries the
// oldest is replaced. Thread-safe, so one memo can serve hashers on
// several threads.
class Sha256ZeroMemo {
 public:
  static constexpr size_t kCapacity = 16;

  struct Key {
    std::array<uint32_t, 8> state{};
    std::array<uint8_t, 64> tail{};  // bytes past tail_len are zero
    size_t tail_len = 0;
    uint64_t zeros = 0;
    bool operator==(const Key&) const = default;
  };

  // On a hit copies the resulting midstate into `state` and returns true.
  bool Find(const Key& key, std::array<uint32_t, 8>& state) const;
  void Insert(const Key& key, const std::array<uint32_t, 8>& state);

  size_t size() const;
  // Zero runs absorbed block by block because the memo did not hold them.
  uint64_t misses() const;

 private:
  struct Entry {
    Key key;
    std::array<uint32_t, 8> state;
  };

  mutable Mutex mu_;
  std::vector<Entry> entries_ SNIC_GUARDED_BY(mu_);
  size_t next_ SNIC_GUARDED_BY(mu_) = 0;  // replacement cursor once full
  uint64_t misses_ SNIC_GUARDED_BY(mu_) = 0;
};

class Sha256 {
 public:
  explicit Sha256(Sha256BlockFn block_fn = Sha256DefaultBlockFn())
      : block_fn_(block_fn) {
    Reset();
  }

  // Resets to the initial hash state.
  void Reset();

  // Absorbs `data`; may be called any number of times. Whole blocks are
  // compressed straight from `data`; only a partial tail is buffered.
  void Update(std::span<const uint8_t> data);
  void Update(const void* data, size_t len);

  // Absorbs `n` zero bytes: the same state as Update() of an all-zero
  // buffer of length `n`. With a memo, a run seen before costs no blocks.
  void UpdateZeros(uint64_t n, Sha256ZeroMemo* memo = nullptr);

  // Finalizes and returns the digest. The object must be Reset() before
  // reuse; Finalize() is idempotent-unsafe by design (mirrors hardware).
  Sha256Digest Finalize();

  // One-shot convenience.
  static Sha256Digest Hash(std::span<const uint8_t> data);
  static Sha256Digest Hash(const void* data, size_t len);

 private:
  Sha256BlockFn block_fn_;
  std::array<uint32_t, 8> state_;
  uint64_t bit_count_;
  uint8_t buffer_[64];
  size_t buffer_len_;
};

// Lowercase hex rendering of a digest (for logs, tests, and attestation
// transcripts).
std::string DigestToHex(const Sha256Digest& digest);

// HMAC-SHA256 (RFC 2104); used to derive symmetric channel keys from the
// Diffie-Hellman shared secret at the end of the attestation exchange.
Sha256Digest HmacSha256(std::span<const uint8_t> key,
                        std::span<const uint8_t> message);

}  // namespace snic::crypto

#endif  // SNIC_CRYPTO_SHA256_H_
