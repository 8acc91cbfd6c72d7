#include "src/crypto/bignum.h"

#include <algorithm>
#include <array>
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

// a * b + c + d as a low word, with the high word in *hi. The sum never
// exceeds 2^128 - 1. The additions are spelled out on 64-bit words: GCC keeps
// those in registers, where 128-bit sums end up spilled to the stack.
inline uint64_t MulAdd(uint64_t a, uint64_t b, uint64_t c, uint64_t d,
                       uint64_t* hi) {
  const unsigned __int128 product = static_cast<unsigned __int128>(a) * b;
  auto low = static_cast<uint64_t>(product);
  auto high = static_cast<uint64_t>(product >> 64);
  low += c;
  high += low < c ? 1 : 0;
  low += d;
  high += low < d ? 1 : 0;
  *hi = high;
  return low;
}

// -m0^-1 mod 2^64 for odd m0. Newton's iteration doubles the number of
// correct low bits per step, and m0 is its own inverse mod 8.
uint64_t NegInverseMod64(uint64_t m0) {
  uint64_t inv = m0;
  for (int i = 0; i < 5; ++i) {
    inv *= 2 - m0 * inv;
  }
  return 0 - inv;
}

// The 32-bit limbs of x as n 64-bit limbs, zero-padded at the top (an odd
// limb count leaves the upper half of the top 64-bit limb zero).
void PackLimbs64(const std::vector<uint32_t>& x, size_t n, uint64_t* out) {
  std::fill(out, out + n, uint64_t{0});
  for (size_t i = 0; i < x.size(); ++i) {
    out[i / 2] |= static_cast<uint64_t>(x[i]) << (32 * (i % 2));
  }
}

}  // namespace

// Arithmetic modulo one odd modulus m in Montgomery form (x is held as
// x * R mod m with R = 2^(64n)) on n 64-bit limbs. Built once per modulus:
// it holds m, -m^-1 mod 2^64, R^2 mod m and R mod m, plus the scratch its
// multiplications and exponentiation windows need. Values are n-limb arrays
// below m. Copying is deleted: the array pointers point into `storage_`.
class BigUint::Montgomery {
 public:
  explicit Montgomery(const BigUint& m)
      : modulus_(m),
        n_((m.limbs_.size() + 1) / 2),
        storage_(n_ * (4 + kMaxTable) + 1) {
    SNIC_CHECK(m.IsOdd());
    m_ = storage_.data();
    r2_ = m_ + n_;
    one_ = r2_ + n_;
    t_ = one_ + n_;
    table_ = t_ + n_ + 1;
    PackLimbs64(m.limbs_, n_, m_);
    m_inv_ = NegInverseMod64(m_[0]);
    // R^2 mod m takes the only division; R mod m = R^2 * 1 * R^-1.
    PackLimbs64(Mod(BigUint(1).ShiftLeft(128 * n_), m).limbs_, n_, r2_);
    std::fill(one_, one_ + n_, uint64_t{0});
    one_[0] = 1;
    Mul(one_, r2_, one_);
  }
  Montgomery(const Montgomery&) = delete;
  Montgomery& operator=(const Montgomery&) = delete;

  size_t limbs() const { return n_; }
  // The Montgomery form of 1.
  const uint64_t* one() const { return one_; }

  // out = a * b * R^-1 mod m. `out` may alias `a` or `b`. The limb counts
  // of the simulator's moduli (256- and 384-bit primes, 512- and 768-bit RSA
  // moduli) get the kernel with a compile-time count, which GCC unrolls and
  // keeps in registers; other sizes take the same kernel with a run-time
  // count.
  void Mul(const uint64_t* a, const uint64_t* b, uint64_t* out) {
    switch (n_) {
      case 4:
        return MulLimbs<4>(a, b, out);
      case 6:
        return MulLimbs<6>(a, b, out);
      case 8:
        return MulLimbs<8>(a, b, out);
      case 12:
        return MulLimbs<12>(a, b, out);
      default:
        return MulLimbs<0>(a, b, out);
    }
  }

  // out = x * R mod m for any x.
  void Enter(const BigUint& x, uint64_t* out) {
    if (Compare(x, modulus_) >= 0) {
      PackLimbs64(Mod(x, modulus_).limbs_, n_, out);
    } else {
      PackLimbs64(x.limbs_, n_, out);
    }
    Mul(out, r2_, out);
  }

  // The plain value of Montgomery-form x.
  BigUint Leave(const uint64_t* x) {
    std::vector<uint64_t> value(2 * n_, 0);  // plain 1, then x * R^-1
    value[0] = 1;
    Mul(x, value.data(), value.data() + n_);
    BigUint out;
    out.limbs_.resize(2 * n_);
    for (size_t i = 0; i < n_; ++i) {
      out.limbs_[2 * i] = static_cast<uint32_t>(value[n_ + i]);
      out.limbs_[2 * i + 1] = static_cast<uint32_t>(value[n_ + i] >> 32);
    }
    out.Trim();
    return out;
  }

  // out = base^exp in Montgomery form: left to right over the exponent in
  // fixed windows of 4 bits for long exponents, plain binary for short ones
  // such as e = 65537, where the table would cost more than it saves.
  // `out` must not alias the context's own arrays.
  void Pow(const BigUint& base, const BigUint& exp, uint64_t* out) {
    const size_t bits = exp.BitLength();
    const size_t window = bits > 64 ? 4 : 1;
    const size_t table_size = size_t{1} << window;
    std::copy(one_, one_ + n_, table_);
    Enter(base, table_ + n_);
    for (size_t k = 2; k < table_size; ++k) {
      Mul(table_ + (k - 1) * n_, table_ + n_, table_ + k * n_);
    }
    std::copy(one_, one_ + n_, out);
    for (size_t top = (bits + window - 1) / window * window; top > 0;
         top -= window) {
      size_t digit = 0;
      for (size_t b = top; b-- > top - window;) {
        digit = (digit << 1) | (exp.GetBit(b) ? 1u : 0u);
      }
      for (size_t s = 0; s < window; ++s) {
        Mul(out, out, out);
      }
      if (digit != 0) {
        Mul(out, table_ + digit * n_, out);
      }
    }
  }

 private:
  // Montgomery multiplication on kLimbs limbs (0: the run-time count) by
  // coarsely integrated operand scanning (CIOS), with the multiply and reduce
  // passes of each outer step fused so their two carry chains run side by
  // side.
  template <size_t kLimbs>
  void MulLimbs(const uint64_t* a, const uint64_t* b, uint64_t* out) {
    const size_t n = kLimbs != 0 ? kLimbs : n_;
    const uint64_t* m = m_;
    uint64_t* __restrict t = t_;
    std::fill(t, t + n + 1, uint64_t{0});
    for (size_t i = 0; i < n; ++i) {
      // t = (t + a * b[i] + u * m) / 2^64, with u chosen so the low limb of
      // the sum vanishes.
      const uint64_t bi = b[i];
      uint64_t mul_carry;
      uint64_t red_carry;
      const uint64_t low = MulAdd(a[0], bi, t[0], 0, &mul_carry);
      const uint64_t u = low * m_inv_;
      MulAdd(u, m[0], low, 0, &red_carry);
      for (size_t j = 1; j < n; ++j) {
        const uint64_t sum = MulAdd(a[j], bi, t[j], mul_carry, &mul_carry);
        t[j - 1] = MulAdd(u, m[j], sum, red_carry, &red_carry);
      }
      const uint64_t top = t[n] + mul_carry;
      const uint64_t top_carry = top < mul_carry ? 1 : 0;
      t[n - 1] = top + red_carry;
      t[n] = top_carry + (t[n - 1] < red_carry ? 1 : 0);
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
      uint64_t borrow = 0;
      for (size_t i = 0; i < n; ++i) {
        const uint64_t diff = t[i] - m[i];
        const uint64_t next_borrow = t[i] < m[i] ? 1 : 0;
        t[i] = diff - borrow;
        borrow = next_borrow | (diff < borrow ? 1 : 0);
      }
    }
    std::copy(t, t + n, out);
  }

  static constexpr size_t kMaxTable = 16;  // 2^window base powers

  const BigUint& modulus_;
  size_t n_;
  std::vector<uint64_t> storage_;
  uint64_t m_inv_ = 0;
  uint64_t* m_ = nullptr;
  uint64_t* r2_ = nullptr;
  uint64_t* one_ = nullptr;    // R mod m
  uint64_t* t_ = nullptr;      // CIOS accumulator, n + 1 limbs
  uint64_t* table_ = nullptr;  // kMaxTable * n limbs of base powers
};

BigUint BigUint::PowModMontgomery(const BigUint& base, const BigUint& exp,
                                  const BigUint& m) {
  SNIC_CHECK(m.IsOdd() && m.limbs_.size() >= 2);
  Montgomery mont(m);
  std::vector<uint64_t> acc(mont.limbs());
  mont.Pow(base, exp, acc.data());
  return mont.Leave(acc.data());
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

namespace {

constexpr size_t kSmallPrimeLimit = 1024;
// Trial division covers the primes through this bound; the primes above it
// up to kSmallPrimeLimit only serve the witness shortcut.
constexpr uint32_t kTrialDivisionMax = 37;

constexpr bool IsSmallPrime(uint32_t c) {
  for (uint32_t d = 2; d * d <= c; ++d) {
    if (c % d == 0) {
      return false;
    }
  }
  return c >= 2;
}

constexpr size_t CountOddPrimes() {
  size_t count = 0;
  for (uint32_t c = 3; c < kSmallPrimeLimit; c += 2) {
    count += IsSmallPrime(c) ? 1 : 0;
  }
  return count;
}

// The odd primes below kSmallPrimeLimit, ascending.
constexpr auto kOddPrimes = [] {
  std::array<uint32_t, CountOddPrimes()> primes{};
  size_t count = 0;
  for (uint32_t c = 3; c < kSmallPrimeLimit; c += 2) {
    if (IsSmallPrime(c)) {
      primes[count++] = c;
    }
  }
  return primes;
}();

// x mod d for little-endian 32-bit limbs and d > 0.
uint32_t ResidueMod(const std::vector<uint32_t>& limbs, uint32_t d) {
  uint64_t rem = 0;
  for (size_t i = limbs.size(); i-- > 0;) {
    rem = ((rem << 32) | limbs[i]) % d;
  }
  return static_cast<uint32_t>(rem);
}

// The smallest odd prime below kSmallPrimeLimit that divides x, or 0. The
// primes go in runs of consecutive ones whose product fits in 32 bits: one
// pass over the limbs gives x mod the product, and that word gives x mod
// every prime of the run.
uint32_t SmallestOddPrimeFactor(const std::vector<uint32_t>& limbs) {
  for (size_t begin = 0; begin < kOddPrimes.size();) {
    uint64_t product = 1;
    size_t end = begin;
    while (end < kOddPrimes.size() &&
           product * kOddPrimes[end] <= 0xffffffffULL) {
      product *= kOddPrimes[end++];
    }
    const uint32_t residue =
        ResidueMod(limbs, static_cast<uint32_t>(product));
    for (size_t i = begin; i < end; ++i) {
      if (residue % kOddPrimes[i] == 0) {
        return kOddPrimes[i];
      }
    }
    begin = end;
  }
  return 0;
}

// base^exp mod m for single words (m < 2^16).
uint32_t PowModWord(uint32_t base, uint32_t exp, uint32_t m) {
  uint32_t result = 1 % m;
  base %= m;
  for (; exp != 0; exp >>= 1) {
    if (exp & 1u) {
      result = result * base % m;
    }
    base = base * base % m;
  }
  return result;
}

}  // namespace

bool BigUint::IsFermatWitnessModFactor(const BigUint& a, const BigUint& n,
                                       uint32_t p) {
  SNIC_CHECK(p > 2 && p < (1u << 16));
  const uint32_t a_mod_p = ResidueMod(a.limbs_, p);
  if (a_mod_p == 0) {
    return true;  // a^(n-1) = 0 mod p
  }
  const uint32_t exp = (ResidueMod(n.limbs_, p - 1) + p - 2) % (p - 1);
  return PowModWord(a_mod_p, exp, p) != 1;
}

bool BigUint::IsProbablePrime(const BigUint& n, int rounds, Rng& rng) {
  if (n.IsZero() || n == BigUint(1)) {
    return false;
  }
  if (!n.IsOdd()) {
    return n == BigUint(2);
  }
  // Trial division: a prime p <= 37 dividing n decides, as n == p. A larger
  // one arms the witness shortcut, which never fires for prime n (then
  // p = n, and every base below n is coprime to it with a^(n-1) = 1).
  const uint32_t p = SmallestOddPrimeFactor(n.limbs_);
  if (p != 0 && p <= kTrialDivisionMax) {
    return n == BigUint(p);
  }

  // n - 1 = d * 2^r with d odd.
  const BigUint n_minus_1 = Sub(n, BigUint(1));
  size_t r = 0;
  while (!n_minus_1.GetBit(r)) {
    ++r;
  }
  const BigUint d = n_minus_1.ShiftRight(r);
  const BigUint two(2);
  const BigUint n_minus_2 = Sub(n, two);

  // Every round works in one context, comparing against the Montgomery
  // forms of 1 and n - 1.
  Montgomery mont(n);
  const size_t k = mont.limbs();
  std::vector<uint64_t> x(k);
  std::vector<uint64_t> minus_one(k);
  mont.Enter(n_minus_1, minus_one.data());
  const auto equals = [k](const uint64_t* a, const uint64_t* b) {
    return std::equal(a, a + k, b);
  };
  for (int round = 0; round < rounds; ++round) {
    const BigUint a = RandomInRange(two, n_minus_2, rng);
    if (p != 0 && IsFermatWitnessModFactor(a, n, p)) {
      return false;  // what the full round would conclude, sooner
    }
    mont.Pow(a, d, x.data());
    if (equals(x.data(), mont.one()) || equals(x.data(), minus_one.data())) {
      continue;
    }
    bool witness = true;
    for (size_t i = 0; i + 1 < r; ++i) {
      mont.Mul(x.data(), x.data(), x.data());
      if (equals(x.data(), minus_one.data())) {
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

bool BigUint::IsProbablePrimeReference(const BigUint& n, int rounds, Rng& rng) {
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
    BigUint x = PowModReference(a, d, n);
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
