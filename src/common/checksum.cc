#include "common/checksum.h"

#include <algorithm>
#include <cstring>

namespace recpriv {

namespace {

constexpr uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
constexpr uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
constexpr uint64_t kPrime3 = 0x165667B19E3779F9ULL;
constexpr uint64_t kPrime4 = 0x85EBCA77C2B2AE63ULL;
constexpr uint64_t kPrime5 = 0x27D4EB2F165667C5ULL;

inline uint64_t Rotl64(uint64_t v, int r) {
  return (v << r) | (v >> (64 - r));
}

/// Alignment-safe little-endian loads (memcpy compiles to one mov on LE
/// hosts; on BE hosts the byte swap keeps the digest identical).
inline uint64_t Read64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (__BYTE_ORDER__ == __ORDER_BIG_ENDIAN__) {
    v = __builtin_bswap64(v);
  }
  return v;
}

inline uint32_t Read32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (__BYTE_ORDER__ == __ORDER_BIG_ENDIAN__) {
    v = __builtin_bswap32(v);
  }
  return v;
}

inline uint64_t Round(uint64_t acc, uint64_t input) {
  return Rotl64(acc + input * kPrime2, 31) * kPrime1;
}

inline uint64_t MergeRound(uint64_t acc, uint64_t val) {
  acc ^= Round(0, val);
  return acc * kPrime1 + kPrime4;
}

/// The four stripe accumulators' starting values for `seed`.
inline void InitAccumulators(uint64_t seed, uint64_t acc[4]) {
  acc[0] = seed + kPrime1 + kPrime2;
  acc[1] = seed + kPrime2;
  acc[2] = seed;
  acc[3] = seed - kPrime1;
}

/// Consumes every whole 32-byte stripe of `[p, p + len)`; returns the
/// first byte not consumed.
inline const uint8_t* ConsumeStripes(uint64_t acc[4], const uint8_t* p,
                                     size_t len) {
  const uint8_t* const end = p + len / 32 * 32;
  // Locals, not acc[]: the byte loads may alias acc, which would force a
  // store and reload per stripe.
  uint64_t v1 = acc[0], v2 = acc[1], v3 = acc[2], v4 = acc[3];
  while (p < end) {
    v1 = Round(v1, Read64(p));
    v2 = Round(v2, Read64(p + 8));
    v3 = Round(v3, Read64(p + 16));
    v4 = Round(v4, Read64(p + 24));
    p += 32;
  }
  acc[0] = v1;
  acc[1] = v2;
  acc[2] = v3;
  acc[3] = v4;
  return p;
}

/// The digest from the accumulators (used only when `total_len` >= 32),
/// the input's total length, and its final `tail_len` < 32 bytes.
uint64_t Finish(const uint64_t acc[4], uint64_t seed, uint64_t total_len,
                const uint8_t* p, size_t tail_len) {
  const uint8_t* const end = p + tail_len;
  uint64_t h;
  if (total_len >= 32) {
    h = Rotl64(acc[0], 1) + Rotl64(acc[1], 7) + Rotl64(acc[2], 12) +
        Rotl64(acc[3], 18);
    h = MergeRound(h, acc[0]);
    h = MergeRound(h, acc[1]);
    h = MergeRound(h, acc[2]);
    h = MergeRound(h, acc[3]);
  } else {
    h = seed + kPrime5;
  }

  h += total_len;
  while (p + 8 <= end) {
    h ^= Round(0, Read64(p));
    h = Rotl64(h, 27) * kPrime1 + kPrime4;
    p += 8;
  }
  if (p + 4 <= end) {
    h ^= uint64_t(Read32(p)) * kPrime1;
    h = Rotl64(h, 23) * kPrime2 + kPrime3;
    p += 4;
  }
  while (p < end) {
    h ^= uint64_t(*p) * kPrime5;
    h = Rotl64(h, 11) * kPrime1;
    ++p;
  }

  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

}  // namespace

uint64_t XxHash64(const void* data, size_t len, uint64_t seed) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint64_t acc[4];
  InitAccumulators(seed, acc);
  const uint8_t* tail = ConsumeStripes(acc, p, len);
  return Finish(acc, seed, uint64_t(len), tail, size_t(p + len - tail));
}

XxHash64Stream::XxHash64Stream(uint64_t seed) : seed_(seed) {
  InitAccumulators(seed, acc_);
}

void XxHash64Stream::Update(const void* data, size_t len) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  total_len_ += len;
  if (buf_len_ > 0) {
    // Top up the pending partial stripe first.
    const size_t take = std::min(len, sizeof(buf_) - buf_len_);
    std::memcpy(buf_ + buf_len_, p, take);
    buf_len_ += take;
    p += take;
    len -= take;
    if (buf_len_ < sizeof(buf_)) return;
    ConsumeStripes(acc_, buf_, sizeof(buf_));
    buf_len_ = 0;
  }
  const uint8_t* tail = ConsumeStripes(acc_, p, len);
  buf_len_ = size_t(p + len - tail);
  if (buf_len_ > 0) std::memcpy(buf_, tail, buf_len_);
}

uint64_t XxHash64Stream::Digest() const {
  return Finish(acc_, seed_, total_len_, buf_, buf_len_);
}

}  // namespace recpriv
