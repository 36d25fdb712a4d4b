#include "repl/digest.h"

#include <cstdio>
#include <fstream>
#include <vector>

#include "common/checksum.h"

namespace recpriv::repl {

namespace {
constexpr std::string_view kPrefix = "xxh64:";
/// FileDigest's read size: large enough that syscalls vanish next to the
/// hash, small enough to stay cache-resident.
constexpr size_t kFileReadBytes = 256 * 1024;
}  // namespace

std::string FormatDigest(uint64_t digest) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "xxh64:%016llx",
                static_cast<unsigned long long>(digest));
  return buf;
}

Result<uint64_t> ParseDigest(std::string_view formatted) {
  if (formatted.size() != kPrefix.size() + 16 ||
      formatted.substr(0, kPrefix.size()) != kPrefix) {
    return Status::InvalidArgument(
        "digest must be 'xxh64:' + 16 hex digits, got '" +
        std::string(formatted) + "'");
  }
  uint64_t value = 0;
  for (size_t i = kPrefix.size(); i < formatted.size(); ++i) {
    const char c = formatted[i];
    uint64_t nibble;
    if (c >= '0' && c <= '9') {
      nibble = uint64_t(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      nibble = uint64_t(c - 'a' + 10);
    } else {
      return Status::InvalidArgument(
          "digest must be 'xxh64:' + 16 lowercase hex digits, got '" +
          std::string(formatted) + "'");
    }
    value = (value << 4) | nibble;
  }
  return value;
}

uint64_t BytesDigest(const uint8_t* data, size_t n) {
  return XxHash64(data, n);
}

Result<uint64_t> FileDigest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  XxHash64Stream hash;
  std::vector<char> buf(kFileReadBytes);
  while (in) {
    in.read(buf.data(), std::streamsize(buf.size()));
    hash.Update(buf.data(), size_t(in.gcount()));
  }
  if (in.bad()) return Status::IOError("cannot read " + path);
  return hash.Digest();
}

}  // namespace recpriv::repl
