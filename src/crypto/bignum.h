// Arbitrary-precision unsigned integers, from scratch.
//
// This is the arithmetic substrate for the attestation protocol: classic
// Diffie-Hellman (modular exponentiation over a safe prime) and RSA
// signatures (Appendix A). Most of it is plain schoolbook code. Modular
// exponentiation, which dominates key generation, signing and Diffie-Hellman,
// has two paths that return identical values: a Montgomery path on 64-bit
// limbs for odd multi-limb moduli (every RSA and DH modulus) and the original
// square-and-multiply over DivMod, kept as the reference oracle and as the
// route for even or single-limb moduli. Prime search (Miller-Rabin) runs all
// rounds of a candidate in one Montgomery context and rejects bases early
// when a small prime factor proves them witnesses; the original test is kept
// as its oracle and both consume the same random draws. Host speed never
// shows in reported timings: the paper's co-processor latency model (Fig. 6)
// governs those.

#ifndef SNIC_CRYPTO_BIGNUM_H_
#define SNIC_CRYPTO_BIGNUM_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/rng.h"

namespace snic::crypto {

// Unsigned big integer stored little-endian in 32-bit limbs.
class BigUint {
 public:
  BigUint() = default;
  explicit BigUint(uint64_t value);

  // Parses a hex string (no 0x prefix needed; case-insensitive). Aborts on
  // malformed input — hex literals in this codebase are compile-time data.
  static BigUint FromHex(std::string_view hex);

  // Big-endian byte-string conversions (network/wire format).
  static BigUint FromBytes(std::span<const uint8_t> be_bytes);
  std::vector<uint8_t> ToBytes() const;
  // Fixed-width big-endian rendering, left-padded with zeros; aborts if the
  // value does not fit.
  std::vector<uint8_t> ToBytesPadded(size_t width) const;

  std::string ToHex() const;

  bool IsZero() const { return limbs_.empty(); }
  bool IsOdd() const { return !limbs_.empty() && (limbs_[0] & 1u); }
  // Number of significant bits (0 for zero).
  size_t BitLength() const;
  bool GetBit(size_t i) const;

  // Comparisons.
  static int Compare(const BigUint& a, const BigUint& b);
  friend bool operator==(const BigUint& a, const BigUint& b) {
    return Compare(a, b) == 0;
  }
  friend bool operator<(const BigUint& a, const BigUint& b) {
    return Compare(a, b) < 0;
  }
  friend bool operator<=(const BigUint& a, const BigUint& b) {
    return Compare(a, b) <= 0;
  }
  friend bool operator>(const BigUint& a, const BigUint& b) {
    return Compare(a, b) > 0;
  }
  friend bool operator>=(const BigUint& a, const BigUint& b) {
    return Compare(a, b) >= 0;
  }

  // Arithmetic. Sub aborts if b > a (unsigned domain).
  static BigUint Add(const BigUint& a, const BigUint& b);
  static BigUint Sub(const BigUint& a, const BigUint& b);
  static BigUint Mul(const BigUint& a, const BigUint& b);
  // Quotient and remainder; aborts on division by zero.
  static void DivMod(const BigUint& a, const BigUint& b, BigUint* quotient,
                     BigUint* remainder);
  static BigUint Mod(const BigUint& a, const BigUint& m);

  // (a * b) mod m.
  static BigUint MulMod(const BigUint& a, const BigUint& b, const BigUint& m);
  // (base ^ exp) mod m. Odd moduli of two or more limbs take
  // PowModMontgomery; all others PowModReference. Both return the same value.
  static BigUint PowMod(const BigUint& base, const BigUint& exp,
                        const BigUint& m);
  // Right-to-left square-and-multiply over MulMod (one DivMod per step):
  // the oracle for PowModMontgomery.
  static BigUint PowModReference(const BigUint& base, const BigUint& exp,
                                 const BigUint& m);
  // Montgomery exponentiation (CIOS multiplication on 64-bit limbs, 4-bit
  // fixed windows for long exponents); aborts unless m is odd and at least
  // two limbs long.
  static BigUint PowModMontgomery(const BigUint& base, const BigUint& exp,
                                  const BigUint& m);

  // Modular inverse via extended Euclid; returns false if gcd(a, m) != 1.
  static bool InvMod(const BigUint& a, const BigUint& m, BigUint* inverse);

  // Shifts.
  BigUint ShiftLeft(size_t bits) const;
  BigUint ShiftRight(size_t bits) const;

  // Uniform random value with exactly `bits` significant bits (MSB set).
  static BigUint RandomWithBits(size_t bits, Rng& rng);
  // Uniform random value in [lo, hi].
  static BigUint RandomInRange(const BigUint& lo, const BigUint& hi, Rng& rng);

  // Miller-Rabin primality test with `rounds` random bases. Trial division
  // by the primes up to 37 runs first; a prime factor 41 <= p < 1024 of n
  // lets a round reject its base without the full exponentiation when the
  // base is a Fermat witness mod p. Verdict and random draws equal
  // IsProbablePrimeReference's.
  static bool IsProbablePrime(const BigUint& n, int rounds, Rng& rng);
  // The textbook test (trial division by BigUint, each round's a^d by
  // PowModReference and its squarings by MulMod): the oracle for
  // IsProbablePrime, sharing none of its Montgomery arithmetic.
  static bool IsProbablePrimeReference(const BigUint& n, int rounds, Rng& rng);
  // Whether a^(n-1) mod p != 1, for a prime 2 < p < 2^16 dividing n, on
  // single words: a^((n-1) mod (p-1)) mod p by Fermat's little theorem, or
  // 0 when p divides a. A strong liar for n is a Fermat liar for n and so
  // for every prime factor of n; a base this returns true for is therefore
  // a Miller-Rabin witness, and IsProbablePrime ends the round with it
  // before the full exponentiation.
  static bool IsFermatWitnessModFactor(const BigUint& a, const BigUint& n,
                                       uint32_t p);
  // Generates a random probable prime with exactly `bits` bits.
  static BigUint GeneratePrime(size_t bits, Rng& rng);

  uint64_t ToU64() const;  // aborts if the value exceeds 64 bits

  const std::vector<uint32_t>& limbs() const { return limbs_; }

 private:
  class Montgomery;  // arithmetic mod one odd modulus, defined in bignum.cc

  void Trim();

  std::vector<uint32_t> limbs_;  // little-endian, no trailing zero limbs
};

}  // namespace snic::crypto

#endif  // SNIC_CRYPTO_BIGNUM_H_
