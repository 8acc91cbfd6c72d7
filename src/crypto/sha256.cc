#include "src/crypto/sha256.h"

#include <algorithm>
#include <cstring>

#include "src/common/status.h"

#if defined(__x86_64__) || defined(__i386__)
#define SNIC_SHA256_X86 1
#include <immintrin.h>
#else
#define SNIC_SHA256_X86 0
#endif

namespace snic::crypto {
namespace {

constexpr uint32_t kRoundConstants[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

}  // namespace

void Sha256BlocksReference(uint32_t state[8], const uint8_t* data,
                           size_t blocks) {
  for (; blocks > 0; --blocks, data += 64) {
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<uint32_t>(data[i * 4]) << 24) |
             (static_cast<uint32_t>(data[i * 4 + 1]) << 16) |
             (static_cast<uint32_t>(data[i * 4 + 2]) << 8) |
             static_cast<uint32_t>(data[i * 4 + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const uint32_t s0 =
          Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const uint32_t s1 =
          Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
      const uint32_t ch = (e & f) ^ (~e & g);
      const uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
      const uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
      const uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if SNIC_SHA256_X86

bool Sha256HasShaNi() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1") &&
         __builtin_cpu_supports("ssse3");
}

// The SHA extensions keep the working variables as two vectors, ABEF and
// CDGH. Each _mm_sha256rnds2_epu32 runs two rounds on the low two words of
// its message+constant operand, so one group of four rounds is two calls.
// The message schedule is extended four words at a time with
// sha256msg1/msg2 plus the W[t-7] term taken by a byte alignment.
__attribute__((target("sha,sse4.1,ssse3"))) void Sha256BlocksShaNi(
    uint32_t state[8], const uint8_t* data, size_t blocks) {
  const __m128i byte_swap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  // state[0..3] = DCBA and state[4..7] = HGFE as little-endian lanes.
  const __m128i dcba =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  const __m128i hgfe =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xb1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1b);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w[4];
#pragma GCC unroll 16
    for (int group = 0; group < 16; ++group) {
      __m128i& cur = w[group & 3];
      if (group < 4) {
        cur = _mm_shuffle_epi8(
            _mm_loadu_si128(
                reinterpret_cast<const __m128i*>(data + 16 * group)),
            byte_swap);
      } else {
        // cur holds the words of group-4; back3..back1 those of the three
        // groups since.
        const __m128i back3 = w[(group + 1) & 3];
        const __m128i back2 = w[(group + 2) & 3];
        const __m128i back1 = w[(group + 3) & 3];
        cur = _mm_sha256msg1_epu32(cur, back3);
        cur = _mm_add_epi32(cur, _mm_alignr_epi8(back1, back2, 4));
        cur = _mm_sha256msg2_epu32(cur, back1);
      }
      const __m128i wk = _mm_add_epi32(
          cur, _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                   &kRoundConstants[4 * group])));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]),
                   _mm_blend_epi16(feba, dchg, 0xf0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]),
                   _mm_alignr_epi8(dchg, feba, 8));
}

#else  // !SNIC_SHA256_X86

bool Sha256HasShaNi() { return false; }

void Sha256BlocksShaNi(uint32_t*, const uint8_t*, size_t) {
  SNIC_CHECK(false && "SHA-NI is not available on this architecture");
}

#endif  // SNIC_SHA256_X86

Sha256BlockFn Sha256DefaultBlockFn() {
  static const Sha256BlockFn block_fn =
      Sha256HasShaNi() ? &Sha256BlocksShaNi : &Sha256BlocksReference;
  return block_fn;
}

void Sha256::Reset() {
  state_[0] = 0x6a09e667;
  state_[1] = 0xbb67ae85;
  state_[2] = 0x3c6ef372;
  state_[3] = 0xa54ff53a;
  state_[4] = 0x510e527f;
  state_[5] = 0x9b05688c;
  state_[6] = 0x1f83d9ab;
  state_[7] = 0x5be0cd19;
  bit_count_ = 0;
  buffer_len_ = 0;
}

void Sha256::Update(std::span<const uint8_t> data) {
  Update(data.data(), data.size());
}

void Sha256::Update(const void* data, size_t len) {
  if (len == 0) {
    return;  // `data` may then be null, which memcpy does not accept
  }
  const auto* bytes = static_cast<const uint8_t*>(data);
  bit_count_ += static_cast<uint64_t>(len) * 8;
  if (buffer_len_ > 0) {
    const size_t take = std::min(len, sizeof(buffer_) - buffer_len_);
    std::memcpy(buffer_ + buffer_len_, bytes, take);
    buffer_len_ += take;
    bytes += take;
    len -= take;
    if (buffer_len_ < sizeof(buffer_)) {
      return;
    }
    block_fn_(state_.data(), buffer_, 1);
    buffer_len_ = 0;
  }
  const size_t blocks = len / sizeof(buffer_);
  if (blocks > 0) {
    block_fn_(state_.data(), bytes, blocks);
    bytes += blocks * sizeof(buffer_);
    len -= blocks * sizeof(buffer_);
  }
  if (len > 0) {
    std::memcpy(buffer_, bytes, len);
    buffer_len_ = len;
  }
}

void Sha256::UpdateZeros(uint64_t n, Sha256ZeroMemo* memo) {
  bit_count_ += n * 8;
  const uint64_t total = buffer_len_ + n;
  const size_t tail_after = static_cast<size_t>(total % sizeof(buffer_));
  if (total < sizeof(buffer_)) {  // no block completes: just buffer
    std::memset(buffer_ + buffer_len_, 0, static_cast<size_t>(n));
    buffer_len_ = tail_after;
    return;
  }
  Sha256ZeroMemo::Key key;
  if (memo != nullptr) {
    key.state = state_;
    std::memcpy(key.tail.data(), buffer_, buffer_len_);
    key.tail_len = buffer_len_;
    key.zeros = n;
  }
  if (memo == nullptr || !memo->Find(key, state_)) {
    // Complete the buffered block with zeros, then whole zero blocks.
    static constexpr uint8_t kZeroBlocks[64 * 64] = {};
    std::memset(buffer_ + buffer_len_, 0, sizeof(buffer_) - buffer_len_);
    block_fn_(state_.data(), buffer_, 1);
    for (uint64_t blocks = total / sizeof(buffer_) - 1; blocks > 0;) {
      const uint64_t take = std::min<uint64_t>(blocks, 64);
      block_fn_(state_.data(), kZeroBlocks, static_cast<size_t>(take));
      blocks -= take;
    }
    if (memo != nullptr) {
      memo->Insert(key, state_);
    }
  }
  std::memset(buffer_, 0, tail_after);  // the new tail is all zeros
  buffer_len_ = tail_after;
}

bool Sha256ZeroMemo::Find(const Key& key,
                          std::array<uint32_t, 8>& state) const {
  MutexLock lock(&mu_);
  for (const Entry& entry : entries_) {
    if (entry.key == key) {
      state = entry.state;
      return true;
    }
  }
  return false;
}

void Sha256ZeroMemo::Insert(const Key& key,
                            const std::array<uint32_t, 8>& state) {
  MutexLock lock(&mu_);
  ++misses_;
  for (const Entry& entry : entries_) {
    if (entry.key == key) {
      return;  // another thread computed the same run meanwhile
    }
  }
  if (entries_.size() < kCapacity) {
    entries_.push_back({key, state});
  } else {
    entries_[next_] = {key, state};
    next_ = (next_ + 1) % kCapacity;
  }
}

size_t Sha256ZeroMemo::size() const {
  MutexLock lock(&mu_);
  return entries_.size();
}

uint64_t Sha256ZeroMemo::misses() const {
  MutexLock lock(&mu_);
  return misses_;
}

Sha256Digest Sha256::Finalize() {
  // Append 0x80, pad with zeros to 56 mod 64, then the 64-bit bit count.
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_ + buffer_len_, 0, sizeof(buffer_) - buffer_len_);
    block_fn_(state_.data(), buffer_, 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_ + buffer_len_, 0, 56 - buffer_len_);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<uint8_t>(bit_count_ >> (56 - 8 * i));
  }
  block_fn_(state_.data(), buffer_, 1);

  Sha256Digest digest;
  for (int i = 0; i < 8; ++i) {
    digest[static_cast<size_t>(i) * 4 + 0] =
        static_cast<uint8_t>(state_[i] >> 24);
    digest[static_cast<size_t>(i) * 4 + 1] =
        static_cast<uint8_t>(state_[i] >> 16);
    digest[static_cast<size_t>(i) * 4 + 2] =
        static_cast<uint8_t>(state_[i] >> 8);
    digest[static_cast<size_t>(i) * 4 + 3] = static_cast<uint8_t>(state_[i]);
  }
  return digest;
}

Sha256Digest Sha256::Hash(std::span<const uint8_t> data) {
  Sha256 h;
  h.Update(data);
  return h.Finalize();
}

Sha256Digest Sha256::Hash(const void* data, size_t len) {
  Sha256 h;
  h.Update(data, len);
  return h.Finalize();
}

std::string DigestToHex(const Sha256Digest& digest) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(64);
  for (uint8_t b : digest) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xf]);
  }
  return out;
}

Sha256Digest HmacSha256(std::span<const uint8_t> key,
                        std::span<const uint8_t> message) {
  uint8_t key_block[64] = {};
  if (key.size() > 64) {
    const Sha256Digest kd = Sha256::Hash(key);
    std::memcpy(key_block, kd.data(), kd.size());
  } else {
    std::memcpy(key_block, key.data(), key.size());
  }
  uint8_t ipad[64];
  uint8_t opad[64];
  for (int i = 0; i < 64; ++i) {
    ipad[i] = static_cast<uint8_t>(key_block[i] ^ 0x36);
    opad[i] = static_cast<uint8_t>(key_block[i] ^ 0x5c);
  }
  Sha256 inner;
  inner.Update(ipad, sizeof(ipad));
  inner.Update(message);
  const Sha256Digest inner_digest = inner.Finalize();
  Sha256 outer;
  outer.Update(opad, sizeof(opad));
  outer.Update(inner_digest.data(), inner_digest.size());
  return outer.Finalize();
}

}  // namespace snic::crypto
