// Content checksums for the on-disk snapshot format (src/store/).
//
// XxHash64 is the 64-bit xxHash (XXH64) algorithm: non-cryptographic,
// byte-order independent output for the same input bytes, and fast enough
// (~GB/s, 32-byte stripes) that checksumming every section of a
// multi-hundred-megabyte snapshot at open time stays far below the CSV
// parse + index rebuild it replaces. All multi-byte reads go through
// memcpy, so the routine is alignment-safe on any host.
//
// XxHash64Stream computes the same digest over input that arrives in
// pieces — a snapshot image written section by section, or a replication
// transfer hashed chunk by chunk as it lands on disk. Its state is a plain
// value, so a paused hash can be copied and resumed later.

#pragma once

#include <cstddef>
#include <cstdint>

namespace recpriv {

/// XXH64 of `data[0..len)` with the given seed.
uint64_t XxHash64(const void* data, size_t len, uint64_t seed = 0);

/// Incremental XXH64: any split of the input into Update calls yields
/// XxHash64 of the concatenation.
class XxHash64Stream {
 public:
  explicit XxHash64Stream(uint64_t seed = 0);

  void Update(const void* data, size_t len);
  /// The digest of everything fed so far; the stream stays usable.
  uint64_t Digest() const;
  /// Bytes fed so far.
  uint64_t size() const { return total_len_; }

 private:
  uint64_t seed_ = 0;
  uint64_t acc_[4] = {};     ///< the four stripe accumulators
  uint64_t total_len_ = 0;
  uint8_t buf_[32] = {};     ///< a partial stripe awaiting more input
  size_t buf_len_ = 0;
};

}  // namespace recpriv
