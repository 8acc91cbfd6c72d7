#include "src/crypto/bignum.h"

#include <algorithm>
#include <cctype>

#include "src/common/status.h"

namespace snic::crypto {

BigUint::BigUint(uint64_t value) {
  if (value != 0) {
    limbs_.push_back(static_cast<uint32_t>(value));
    const auto hi = static_cast<uint32_t>(value >> 32);
    if (hi != 0) {
      limbs_.push_back(hi);
    }
  }
}

void BigUint::Trim() {
  while (!limbs_.empty() && limbs_.back() == 0) {
    limbs_.pop_back();
  }
}

BigUint BigUint::FromHex(std::string_view hex) {
  if (hex.substr(0, 2) == "0x" || hex.substr(0, 2) == "0X") {
    hex.remove_prefix(2);
  }
  BigUint out;
  for (char c : hex) {
    if (c == '_' || std::isspace(static_cast<unsigned char>(c))) {
      continue;
    }
    uint32_t digit;
    if (c >= '0' && c <= '9') {
      digit = static_cast<uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<uint32_t>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      digit = static_cast<uint32_t>(c - 'A' + 10);
    } else {
      SNIC_CHECK(false && "malformed hex literal");
      return out;
    }
    // out = out * 16 + digit
    uint64_t carry = digit;
    for (auto& limb : out.limbs_) {
      const uint64_t v = (static_cast<uint64_t>(limb) << 4) | carry;
      limb = static_cast<uint32_t>(v);
      carry = v >> 32;
    }
    if (carry != 0) {
      out.limbs_.push_back(static_cast<uint32_t>(carry));
    }
  }
  out.Trim();
  return out;
}

BigUint BigUint::FromBytes(std::span<const uint8_t> be_bytes) {
  BigUint out;
  const size_t n = be_bytes.size();
  out.limbs_.assign((n + 3) / 4, 0);
  for (size_t i = 0; i < n; ++i) {
    const uint8_t byte = be_bytes[n - 1 - i];  // little-endian position i
    out.limbs_[i / 4] |= static_cast<uint32_t>(byte) << (8 * (i % 4));
  }
  out.Trim();
  return out;
}

std::vector<uint8_t> BigUint::ToBytes() const {
  if (IsZero()) {
    return {0};
  }
  std::vector<uint8_t> out;
  const size_t bytes = (BitLength() + 7) / 8;
  out.resize(bytes);
  for (size_t i = 0; i < bytes; ++i) {
    const uint32_t limb = limbs_[i / 4];
    out[bytes - 1 - i] = static_cast<uint8_t>(limb >> (8 * (i % 4)));
  }
  return out;
}

std::vector<uint8_t> BigUint::ToBytesPadded(size_t width) const {
  std::vector<uint8_t> raw = ToBytes();
  if (raw.size() == 1 && raw[0] == 0) {
    raw.clear();
  }
  SNIC_CHECK(raw.size() <= width);
  std::vector<uint8_t> out(width - raw.size(), 0);
  out.insert(out.end(), raw.begin(), raw.end());
  return out;
}

std::string BigUint::ToHex() const {
  if (IsZero()) {
    return "0";
  }
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  for (size_t i = limbs_.size(); i-- > 0;) {
    for (int shift = 28; shift >= 0; shift -= 4) {
      out.push_back(kHex[(limbs_[i] >> shift) & 0xf]);
    }
  }
  const size_t first = out.find_first_not_of('0');
  return out.substr(first);
}

size_t BigUint::BitLength() const {
  if (limbs_.empty()) {
    return 0;
  }
  const uint32_t top = limbs_.back();
  size_t bits = (limbs_.size() - 1) * 32;
  return bits + (32 - static_cast<size_t>(__builtin_clz(top)));
}

bool BigUint::GetBit(size_t i) const {
  const size_t limb = i / 32;
  if (limb >= limbs_.size()) {
    return false;
  }
  return (limbs_[limb] >> (i % 32)) & 1u;
}

int BigUint::Compare(const BigUint& a, const BigUint& b) {
  if (a.limbs_.size() != b.limbs_.size()) {
    return a.limbs_.size() < b.limbs_.size() ? -1 : 1;
  }
  for (size_t i = a.limbs_.size(); i-- > 0;) {
    if (a.limbs_[i] != b.limbs_[i]) {
      return a.limbs_[i] < b.limbs_[i] ? -1 : 1;
    }
  }
  return 0;
}

BigUint BigUint::Add(const BigUint& a, const BigUint& b) {
  BigUint out;
  const size_t n = std::max(a.limbs_.size(), b.limbs_.size());
  out.limbs_.resize(n);
  uint64_t carry = 0;
  for (size_t i = 0; i < n; ++i) {
    uint64_t sum = carry;
    if (i < a.limbs_.size()) {
      sum += a.limbs_[i];
    }
    if (i < b.limbs_.size()) {
      sum += b.limbs_[i];
    }
    out.limbs_[i] = static_cast<uint32_t>(sum);
    carry = sum >> 32;
  }
  if (carry != 0) {
    out.limbs_.push_back(static_cast<uint32_t>(carry));
  }
  return out;
}

BigUint BigUint::Sub(const BigUint& a, const BigUint& b) {
  SNIC_CHECK(Compare(a, b) >= 0);
  BigUint out;
  out.limbs_.resize(a.limbs_.size());
  int64_t borrow = 0;
  for (size_t i = 0; i < a.limbs_.size(); ++i) {
    int64_t diff = static_cast<int64_t>(a.limbs_[i]) - borrow;
    if (i < b.limbs_.size()) {
      diff -= b.limbs_[i];
    }
    if (diff < 0) {
      diff += (1LL << 32);
      borrow = 1;
    } else {
      borrow = 0;
    }
    out.limbs_[i] = static_cast<uint32_t>(diff);
  }
  out.Trim();
  return out;
}

BigUint BigUint::Mul(const BigUint& a, const BigUint& b) {
  if (a.IsZero() || b.IsZero()) {
    return BigUint();
  }
  BigUint out;
  out.limbs_.assign(a.limbs_.size() + b.limbs_.size(), 0);
  for (size_t i = 0; i < a.limbs_.size(); ++i) {
    uint64_t carry = 0;
    for (size_t j = 0; j < b.limbs_.size(); ++j) {
      const uint64_t cur = static_cast<uint64_t>(out.limbs_[i + j]) +
                           static_cast<uint64_t>(a.limbs_[i]) * b.limbs_[j] +
                           carry;
      out.limbs_[i + j] = static_cast<uint32_t>(cur);
      carry = cur >> 32;
    }
    size_t k = i + b.limbs_.size();
    while (carry != 0) {
      const uint64_t cur = static_cast<uint64_t>(out.limbs_[k]) + carry;
      out.limbs_[k] = static_cast<uint32_t>(cur);
      carry = cur >> 32;
      ++k;
    }
  }
  out.Trim();
  return out;
}

void BigUint::DivMod(const BigUint& a, const BigUint& b, BigUint* quotient,
                     BigUint* remainder) {
  SNIC_CHECK(!b.IsZero());
  if (Compare(a, b) < 0) {
    if (quotient != nullptr) {
      *quotient = BigUint();
    }
    if (remainder != nullptr) {
      *remainder = a;
    }
    return;
  }

  // Single-limb divisor: schoolbook short division.
  if (b.limbs_.size() == 1) {
    const uint64_t divisor = b.limbs_[0];
    BigUint q;
    q.limbs_.assign(a.limbs_.size(), 0);
    uint64_t rem = 0;
    for (size_t i = a.limbs_.size(); i-- > 0;) {
      const uint64_t cur = (rem << 32) | a.limbs_[i];
      q.limbs_[i] = static_cast<uint32_t>(cur / divisor);
      rem = cur % divisor;
    }
    q.Trim();
    if (quotient != nullptr) {
      *quotient = std::move(q);
    }
    if (remainder != nullptr) {
      *remainder = BigUint(rem);
    }
    return;
  }

  // Knuth Algorithm D (TAOCP vol. 2, 4.3.1) on 32-bit limbs.
  const size_t n = b.limbs_.size();
  const size_t m = a.limbs_.size();
  const int shift = __builtin_clz(b.limbs_.back());

  // Normalized copies: v has its top bit set; u gains one extra high limb.
  std::vector<uint32_t> v(n);
  for (size_t i = n; i-- > 0;) {
    uint64_t x = static_cast<uint64_t>(b.limbs_[i]) << shift;
    if (shift != 0 && i > 0) {
      x |= b.limbs_[i - 1] >> (32 - shift);
    }
    v[i] = static_cast<uint32_t>(x);
  }
  std::vector<uint32_t> u(m + 1, 0);
  for (size_t i = m; i-- > 0;) {
    uint64_t x = static_cast<uint64_t>(a.limbs_[i]) << shift;
    if (shift != 0 && i > 0) {
      x |= a.limbs_[i - 1] >> (32 - shift);
    }
    u[i] = static_cast<uint32_t>(x);
  }
  if (shift != 0) {
    u[m] = a.limbs_.back() >> (32 - shift);
  }

  constexpr uint64_t kBase = 1ULL << 32;
  BigUint q;
  q.limbs_.assign(m - n + 1, 0);
  for (size_t j = m - n + 1; j-- > 0;) {
    const uint64_t top = (static_cast<uint64_t>(u[j + n]) << 32) | u[j + n - 1];
    uint64_t qhat = top / v[n - 1];
    uint64_t rhat = top % v[n - 1];
    while (qhat >= kBase ||
           qhat * v[n - 2] > ((rhat << 32) | u[j + n - 2])) {
      --qhat;
      rhat += v[n - 1];
      if (rhat >= kBase) {
        break;
      }
    }
    // u[j .. j+n] -= qhat * v.
    int64_t borrow = 0;
    uint64_t carry = 0;
    for (size_t i = 0; i < n; ++i) {
      const uint64_t product = qhat * v[i] + carry;
      carry = product >> 32;
      const int64_t sub = static_cast<int64_t>(u[i + j]) -
                          static_cast<int64_t>(product & 0xffffffffULL) -
                          borrow;
      u[i + j] = static_cast<uint32_t>(sub);
      borrow = (sub < 0) ? 1 : 0;
    }
    const int64_t sub = static_cast<int64_t>(u[j + n]) -
                        static_cast<int64_t>(carry) - borrow;
    u[j + n] = static_cast<uint32_t>(sub);

    if (sub < 0) {
      // qhat was one too large: add v back.
      --qhat;
      uint64_t add_carry = 0;
      for (size_t i = 0; i < n; ++i) {
        const uint64_t s = static_cast<uint64_t>(u[i + j]) + v[i] + add_carry;
        u[i + j] = static_cast<uint32_t>(s);
        add_carry = s >> 32;
      }
      u[j + n] = static_cast<uint32_t>(u[j + n] + add_carry);
    }
    q.limbs_[j] = static_cast<uint32_t>(qhat);
  }
  q.Trim();

  if (remainder != nullptr) {
    // Denormalize u[0 .. n-1].
    BigUint r;
    r.limbs_.assign(n, 0);
    for (size_t i = 0; i < n; ++i) {
      uint64_t x = u[i] >> shift;
      if (shift != 0 && i + 1 < n + 1) {
        x |= static_cast<uint64_t>(u[i + 1]) << (32 - shift);
      }
      r.limbs_[i] = static_cast<uint32_t>(x);
    }
    r.Trim();
    *remainder = std::move(r);
  }
  if (quotient != nullptr) {
    *quotient = std::move(q);
  }
}

BigUint BigUint::Mod(const BigUint& a, const BigUint& m) {
  BigUint r;
  DivMod(a, m, nullptr, &r);
  return r;
}

BigUint BigUint::MulMod(const BigUint& a, const BigUint& b, const BigUint& m) {
  return Mod(Mul(a, b), m);
}

BigUint BigUint::PowMod(const BigUint& base, const BigUint& exp,
                        const BigUint& m) {
  if (m.IsOdd() && m.limbs_.size() >= 2) {
    return PowModMontgomery(base, exp, m);
  }
  return PowModReference(base, exp, m);
}

BigUint BigUint::PowModReference(const BigUint& base, const BigUint& exp,
                                 const BigUint& m) {
  SNIC_CHECK(!m.IsZero());
  BigUint result = Mod(BigUint(1), m);  // x^0 mod 1 is 0, not 1
  BigUint acc = Mod(base, m);
  const size_t bits = exp.BitLength();
  for (size_t i = 0; i < bits; ++i) {
    if (exp.GetBit(i)) {
      result = MulMod(result, acc, m);
    }
    acc = MulMod(acc, acc, m);
  }
  return result;
}

namespace {

// -m0^-1 mod 2^32 for odd m0. Newton's iteration doubles the number of
// correct low bits per step, and m0 is its own inverse mod 8.
uint32_t NegInverseMod32(uint32_t m0) {
  uint32_t inv = m0;
  for (int i = 0; i < 4; ++i) {
    inv *= 2u - m0 * inv;
  }
  return 0u - inv;
}

// out = a * b * R^-1 mod m with R = 2^(32n), by coarsely integrated operand
// scanning (CIOS) with the multiply and reduce passes of each outer step
// fused, so their two carry chains run side by side. Inputs are below m; `t`
// is n + 1 limbs of scratch. `out` may alias `a` or `b`.
void MontMul(const uint32_t* a, const uint32_t* b, const uint32_t* m,
             uint32_t m_inv, size_t n, uint32_t* __restrict t,
             uint32_t* out) {
  std::fill(t, t + n + 1, 0u);
  for (size_t i = 0; i < n; ++i) {
    // t = (t + a * b[i] + u * m) / 2^32, with u chosen so the low limb of
    // the sum vanishes.
    const uint64_t bi = b[i];
    uint64_t cur = t[0] + a[0] * bi;
    const uint64_t u = static_cast<uint32_t>(cur) * m_inv;
    uint64_t mul_carry = cur >> 32;
    uint64_t red_carry = (static_cast<uint32_t>(cur) + u * m[0]) >> 32;
    for (size_t j = 1; j < n; ++j) {
      cur = t[j] + a[j] * bi + mul_carry;
      mul_carry = cur >> 32;
      const uint64_t red = static_cast<uint32_t>(cur) + u * m[j] + red_carry;
      red_carry = red >> 32;
      t[j - 1] = static_cast<uint32_t>(red);
    }
    cur = t[n] + mul_carry;
    const uint64_t red = static_cast<uint32_t>(cur) + red_carry;
    t[n - 1] = static_cast<uint32_t>(red);
    t[n] = static_cast<uint32_t>((cur >> 32) + (red >> 32));
  }

  // t < 2m: one conditional subtraction brings it below m.
  bool ge = t[n] != 0;
  if (!ge) {
    ge = true;
    for (size_t i = n; i-- > 0;) {
      if (t[i] != m[i]) {
        ge = t[i] > m[i];
        break;
      }
    }
  }
  if (ge) {
    int64_t borrow = 0;
    for (size_t i = 0; i < n; ++i) {
      const int64_t diff = static_cast<int64_t>(t[i]) - m[i] - borrow;
      t[i] = static_cast<uint32_t>(diff);
      borrow = diff < 0 ? 1 : 0;
    }
  }
  std::copy(t, t + n, out);
}

}  // namespace

BigUint BigUint::PowModMontgomery(const BigUint& base, const BigUint& exp,
                                  const BigUint& m) {
  SNIC_CHECK(m.IsOdd() && m.limbs_.size() >= 2);
  const size_t n = m.limbs_.size();
  const uint32_t m_inv = NegInverseMod32(m.limbs_[0]);
  const size_t bits = exp.BitLength();
  // Fixed windows of 4 bits for long exponents; plain binary for short ones
  // such as e = 65537, where the table would cost more than it saves.
  const size_t window = bits > 64 ? 4 : 1;
  const size_t table_size = size_t{1} << window;

  // One allocation for all scratch: CIOS temporary, accumulator, the
  // constant 1 (to leave Montgomery form), and the table of base powers.
  std::vector<uint32_t> scratch((n + 1) + n + n + table_size * n, 0u);
  uint32_t* t = scratch.data();
  uint32_t* acc = t + n + 1;
  uint32_t* plain_one = acc + n;
  uint32_t* table = plain_one + n;
  plain_one[0] = 1;

  // Enter Montgomery form (x * R mod m) with one division each.
  const auto to_mont = [&](const BigUint& x, uint32_t* dst) {
    const BigUint xr = Mod(x.ShiftLeft(32 * n), m);
    std::copy(xr.limbs_.begin(), xr.limbs_.end(), dst);
  };
  to_mont(BigUint(1), table);
  to_mont(base, table + n);
  for (size_t k = 2; k < table_size; ++k) {
    MontMul(table + (k - 1) * n, table + n, m.limbs_.data(), m_inv, n, t,
            table + k * n);
  }

  // Left to right over the exponent, one window at a time.
  std::copy(table, table + n, acc);  // Montgomery 1
  for (size_t top = (bits + window - 1) / window * window; top > 0;
       top -= window) {
    size_t digit = 0;
    for (size_t b = top; b-- > top - window;) {
      digit = (digit << 1) | (exp.GetBit(b) ? 1u : 0u);
    }
    for (size_t s = 0; s < window; ++s) {
      MontMul(acc, acc, m.limbs_.data(), m_inv, n, t, acc);
    }
    if (digit != 0) {
      MontMul(acc, table + digit * n, m.limbs_.data(), m_inv, n, t, acc);
    }
  }

  MontMul(acc, plain_one, m.limbs_.data(), m_inv, n, t, acc);
  BigUint out;
  out.limbs_.assign(acc, acc + n);
  out.Trim();
  return out;
}

bool BigUint::InvMod(const BigUint& a, const BigUint& m, BigUint* inverse) {
  // Extended Euclid over non-negative values, tracking signs explicitly.
  BigUint r0 = m;
  BigUint r1 = Mod(a, m);
  BigUint t0;            // coefficient for m
  BigUint t1(1);         // coefficient for a
  bool t0_neg = false;
  bool t1_neg = false;
  while (!r1.IsZero()) {
    BigUint q;
    BigUint r2;
    DivMod(r0, r1, &q, &r2);
    // t2 = t0 - q * t1 (with sign tracking)
    const BigUint qt1 = Mul(q, t1);
    BigUint t2;
    bool t2_neg;
    if (t0_neg == t1_neg) {
      // Same sign: t0 - q*t1 may flip sign.
      if (Compare(t0, qt1) >= 0) {
        t2 = Sub(t0, qt1);
        t2_neg = t0_neg;
      } else {
        t2 = Sub(qt1, t0);
        t2_neg = !t0_neg;
      }
    } else {
      t2 = Add(t0, qt1);
      t2_neg = t0_neg;
    }
    r0 = std::move(r1);
    r1 = std::move(r2);
    t0 = std::move(t1);
    t0_neg = t1_neg;
    t1 = std::move(t2);
    t1_neg = t2_neg;
  }
  if (!(r0 == BigUint(1))) {
    return false;  // not coprime
  }
  BigUint inv = t0_neg ? Sub(m, Mod(t0, m)) : Mod(t0, m);
  if (Compare(inv, m) >= 0) {
    inv = Sub(inv, m);
  }
  *inverse = std::move(inv);
  return true;
}

BigUint BigUint::ShiftLeft(size_t bits) const {
  if (IsZero() || bits == 0) {
    BigUint out = *this;
    return out;
  }
  const size_t limb_shift = bits / 32;
  const size_t bit_shift = bits % 32;
  BigUint out;
  out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (size_t i = 0; i < limbs_.size(); ++i) {
    const uint64_t v = static_cast<uint64_t>(limbs_[i]) << bit_shift;
    out.limbs_[i + limb_shift] |= static_cast<uint32_t>(v);
    out.limbs_[i + limb_shift + 1] |= static_cast<uint32_t>(v >> 32);
  }
  out.Trim();
  return out;
}

BigUint BigUint::ShiftRight(size_t bits) const {
  const size_t limb_shift = bits / 32;
  const size_t bit_shift = bits % 32;
  if (limb_shift >= limbs_.size()) {
    return BigUint();
  }
  BigUint out;
  out.limbs_.assign(limbs_.size() - limb_shift, 0);
  for (size_t i = 0; i < out.limbs_.size(); ++i) {
    uint64_t v = static_cast<uint64_t>(limbs_[i + limb_shift]) >> bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < limbs_.size()) {
      v |= static_cast<uint64_t>(limbs_[i + limb_shift + 1])
           << (32 - bit_shift);
    }
    out.limbs_[i] = static_cast<uint32_t>(v);
  }
  out.Trim();
  return out;
}

BigUint BigUint::RandomWithBits(size_t bits, Rng& rng) {
  SNIC_CHECK(bits > 0);
  BigUint out;
  out.limbs_.assign((bits + 31) / 32, 0);
  for (auto& limb : out.limbs_) {
    limb = rng.NextU32();
  }
  // Clear excess bits, set the MSB so the bit length is exact.
  const size_t top_bits = bits % 32 == 0 ? 32 : bits % 32;
  uint32_t& top = out.limbs_.back();
  if (top_bits < 32) {
    top &= (1u << top_bits) - 1;
  }
  top |= 1u << (top_bits - 1);
  out.Trim();
  return out;
}

BigUint BigUint::RandomInRange(const BigUint& lo, const BigUint& hi,
                               Rng& rng) {
  SNIC_CHECK(Compare(lo, hi) <= 0);
  const BigUint span = Add(Sub(hi, lo), BigUint(1));
  const size_t bits = span.BitLength();
  for (;;) {
    BigUint candidate;
    candidate.limbs_.assign((bits + 31) / 32, 0);
    for (auto& limb : candidate.limbs_) {
      limb = rng.NextU32();
    }
    const size_t top_bits = bits % 32 == 0 ? 32 : bits % 32;
    if (top_bits < 32) {
      candidate.limbs_.back() &= (1u << top_bits) - 1;
    }
    candidate.Trim();
    if (Compare(candidate, span) < 0) {
      return Add(lo, candidate);
    }
  }
}

bool BigUint::IsProbablePrime(const BigUint& n, int rounds, Rng& rng) {
  if (n.IsZero() || n == BigUint(1)) {
    return false;
  }
  for (uint64_t p : {2ULL, 3ULL, 5ULL, 7ULL, 11ULL, 13ULL, 17ULL, 19ULL,
                     23ULL, 29ULL, 31ULL, 37ULL}) {
    const BigUint bp(p);
    if (n == bp) {
      return true;
    }
    if (Mod(n, bp).IsZero()) {
      return false;
    }
  }
  // n - 1 = d * 2^r with d odd.
  const BigUint n_minus_1 = Sub(n, BigUint(1));
  BigUint d = n_minus_1;
  size_t r = 0;
  while (!d.IsOdd()) {
    d = d.ShiftRight(1);
    ++r;
  }
  const BigUint two(2);
  const BigUint n_minus_2 = Sub(n, two);
  for (int round = 0; round < rounds; ++round) {
    const BigUint a = RandomInRange(two, n_minus_2, rng);
    BigUint x = PowMod(a, d, n);
    if (x == BigUint(1) || x == n_minus_1) {
      continue;
    }
    bool witness = true;
    for (size_t i = 0; i + 1 < r; ++i) {
      x = MulMod(x, x, n);
      if (x == n_minus_1) {
        witness = false;
        break;
      }
    }
    if (witness) {
      return false;
    }
  }
  return true;
}

BigUint BigUint::GeneratePrime(size_t bits, Rng& rng) {
  SNIC_CHECK(bits >= 8);
  for (;;) {
    BigUint candidate = RandomWithBits(bits, rng);
    if (!candidate.IsOdd()) {
      candidate = Add(candidate, BigUint(1));
    }
    if (IsProbablePrime(candidate, 20, rng)) {
      return candidate;
    }
  }
}

uint64_t BigUint::ToU64() const {
  SNIC_CHECK(limbs_.size() <= 2);
  uint64_t out = 0;
  if (limbs_.size() >= 1) {
    out = limbs_[0];
  }
  if (limbs_.size() == 2) {
    out |= static_cast<uint64_t>(limbs_[1]) << 32;
  }
  return out;
}

}  // namespace snic::crypto
