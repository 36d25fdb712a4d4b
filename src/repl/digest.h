// Content digests for replication: the XXH64 hash of a serialized `.rps`
// snapshot image, spelled "xxh64:<16 hex digits>" everywhere it crosses a
// boundary — the subscribe stream advertises it, followers verify fetched
// bytes against it, and `recpriv_snapshot digest` prints it so operators
// can compare primary/follower state offline.
//
// The digest is over the file bytes, not the in-memory snapshot:
// store::SnapshotImage is deterministic, so one (release, epoch) has
// exactly one digest on any host, and hashing a follower's on-disk file
// reproduces the primary's advertisement bit for bit.
//
// JSON numbers are doubles (common/json.h), which cannot carry a full
// 64-bit hash — hence the hex-string spelling on the wire.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"

namespace recpriv::repl {

/// "xxh64:" + 16 lowercase hex digits, e.g. "xxh64:00ff12ab34cd56ef".
std::string FormatDigest(uint64_t digest);

/// Inverse of FormatDigest; rejects anything but the exact spelling.
Result<uint64_t> ParseDigest(std::string_view formatted);

/// XXH64 (seed 0) of a byte buffer — the replication content hash.
uint64_t BytesDigest(const uint8_t* data, size_t n);

/// BytesDigest of a whole file's contents, hashed in fixed-size reads as
/// a stream — memory stays flat whatever the file size.
Result<uint64_t> FileDigest(const std::string& path);

}  // namespace recpriv::repl
