// Serializes a query-ready release snapshot to the paged binary format of
// snapshot_format.h — the persist half of the store subsystem (the open
// half is snapshot_reader.h).
//
// A written file contains everything OpenSnapshot needs to reconstruct the
// exact same queryable state with no CSV parse and no index rebuild: the
// release identity (name, epoch), privacy parameters, full attribute
// dictionaries, the perturbed table's code columns, and the
// FlatGroupIndex's columnar arrays verbatim.
//
// SnapshotImage is the one image layout everything runs on: the header
// region and the manifest are owned bytes, and every array section is a
// span borrowed from the snapshot's own arrays. The image is never built
// on the heap — it is written to disk, hashed, and served to replication
// followers (fetch_snapshot) piece by piece straight from those arrays.

#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/release.h"
#include "common/json.h"
#include "common/result.h"
#include "common/status.h"

namespace recpriv::store {

/// Suffix of the temp file an atomic write renames into place.
inline constexpr std::string_view kAtomicTempSuffix = ".tmp";
/// Suffix of a replication follower's partially fetched image.
inline constexpr std::string_view kPartialTransferSuffix = ".part";

/// The snapshot's embedded manifest (exposed for tests and the inspect
/// CLI): identity, parameters, dictionaries, and index dimensions.
JsonValue BuildSnapshotManifest(const analysis::ReleaseSnapshot& snap,
                                std::string_view release_name);

/// The `.rps` image of one snapshot, laid out but not materialized.
/// Deterministic: the same snapshot yields the same bytes on any host,
/// which is what lets replication advertise one content digest per
/// (release, epoch) and followers verify it (src/repl/). Make computes the
/// section checksums and the whole-image digest once; every later read,
/// write or hash of the image reuses them.
///
/// Little-endian hosts borrow the snapshot's arrays as they are; a
/// big-endian host holds little-endian re-encoded copies instead.
/// Immutable after Make, so one image may serve many threads at once.
class SnapshotImage {
 public:
  /// Lays out `snap` under `release_name`. The image borrows `snap`'s
  /// arrays: `keep_alive` (typically the snapshot's own shared_ptr) is held
  /// for the image's lifetime; when null, the caller keeps `snap` alive.
  static Result<std::shared_ptr<const SnapshotImage>> Make(
      const analysis::ReleaseSnapshot& snap, std::string_view release_name,
      std::shared_ptr<const void> keep_alive = nullptr);

  SnapshotImage(const SnapshotImage&) = delete;
  SnapshotImage& operator=(const SnapshotImage&) = delete;

  /// Total image bytes (the file size).
  uint64_t size() const { return size_; }
  /// XXH64 (seed 0) of the whole image — the replication content digest.
  uint64_t digest() const { return digest_; }

  /// Copies image bytes [offset, offset + out.size()) into `out`.
  /// InvalidArgument when the range does not lie within the image.
  Status Read(uint64_t offset, std::span<uint8_t> out) const;

  /// Writes the image to `path` piece by piece via `path + ".tmp"` +
  /// rename, so a crash mid-write never leaves a half-written file there.
  Status WriteFile(const std::string& path) const;

 private:
  /// Owned or borrowed bytes at an absolute image offset.
  struct Extent {
    uint64_t offset = 0;
    std::span<const uint8_t> bytes;
  };

  SnapshotImage() = default;

  /// Calls `sink(std::span<const uint8_t>)` on consecutive pieces exactly
  /// covering image bytes [begin, end); alignment padding comes as zeros.
  template <typename Sink>
  void Visit(uint64_t begin, uint64_t end, Sink&& sink) const;

  std::shared_ptr<const void> keep_alive_;
  std::vector<uint8_t> header_;    ///< superblock + section table
  std::vector<uint8_t> manifest_;  ///< the manifest section's JSON
  /// Little-endian copies of the arrays (big-endian hosts only).
  std::vector<std::vector<uint8_t>> reencoded_;
  std::vector<Extent> extents_;  ///< ascending, non-empty, non-overlapping
  uint64_t size_ = 0;
  uint64_t digest_ = 0;
};

/// The complete `.rps` file image of `snap` as one buffer, byte for byte
/// what WriteSnapshot persists (tests and tools; serving paths use
/// SnapshotImage, which never holds more than a chunk).
Result<std::vector<uint8_t>> SerializeSnapshot(
    const analysis::ReleaseSnapshot& snap, std::string_view release_name);

/// Writes `bytes` to `path` via `path + ".tmp"` + rename, so a crash (or a
/// replication transfer dying) mid-write never leaves a half-written file
/// under `path`.
Status WriteBytesAtomic(const std::vector<uint8_t>& bytes,
                        const std::string& path);

/// Writes `snap` to `path` (conventionally `<name>-e<epoch>.rps`):
/// SnapshotImage::Make + WriteFile.
Status WriteSnapshot(const analysis::ReleaseSnapshot& snap,
                     std::string_view release_name, const std::string& path);

}  // namespace recpriv::store
