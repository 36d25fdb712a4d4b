#include "store/snapshot_writer.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <utility>

#include "common/checksum.h"
#include "store/snapshot_format.h"

namespace recpriv::store {

namespace {

/// The little-endian payload bytes of a scalar array. On an LE host the
/// in-memory representation already is the payload (no copy); a BE host
/// re-encodes element by element into a new buffer of `reencoded`.
template <typename T>
std::span<const uint8_t> PayloadBytes(
    std::span<const T> data, std::vector<std::vector<uint8_t>>& reencoded) {
  if constexpr (HostIsLittleEndian()) {
    return {reinterpret_cast<const uint8_t*>(data.data()), data.size_bytes()};
  } else {
    // Moving the outer vector's elements keeps each buffer in place, so
    // the returned span survives later growth of `reencoded`.
    std::vector<uint8_t>& out = reencoded.emplace_back(data.size_bytes());
    for (size_t i = 0; i < data.size(); ++i) {
      if constexpr (sizeof(T) == 4) {
        StoreLE32(uint32_t(data[i]), out.data() + i * 4);
      } else {
        StoreLE64(uint64_t(data[i]), out.data() + i * 8);
      }
    }
    return out;
  }
}

/// Writes `path` via `path + kAtomicTempSuffix` + rename: `fill` streams
/// the content into the temp file, which is removed on any failure.
Status WriteAtomic(const std::string& path,
                   const std::function<void(std::ofstream&)>& fill) {
  const std::string tmp = path + std::string(kAtomicTempSuffix);
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IOError("cannot write snapshot: " + tmp);
    fill(out);
    out.flush();
    if (!out) {
      out.close();
      std::remove(tmp.c_str());
      return Status::IOError("short write to snapshot: " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError("cannot rename snapshot into place: " + path);
  }
  return Status::OK();
}

}  // namespace

JsonValue BuildSnapshotManifest(const analysis::ReleaseSnapshot& snap,
                                std::string_view release_name) {
  const auto& bundle = snap.bundle;
  JsonValue root = JsonValue::Object();
  root.Set("format", JsonValue::String("recpriv-snapshot"));
  root.Set("version", JsonValue::Int(int64_t(kSnapshotFormatVersion)));
  root.Set("release", JsonValue::String(std::string(release_name)));
  root.Set("epoch", JsonValue::Int(int64_t(snap.epoch)));

  JsonValue mechanism = JsonValue::Object();
  mechanism.Set("type", JsonValue::String("uniform-perturbation-sps"));
  mechanism.Set("retention_p", JsonValue::Number(bundle.params.retention_p));
  mechanism.Set("domain_m", JsonValue::Int(int64_t(bundle.params.domain_m)));
  root.Set("mechanism", std::move(mechanism));

  JsonValue privacy = JsonValue::Object();
  privacy.Set("lambda", JsonValue::Number(bundle.params.lambda));
  privacy.Set("delta", JsonValue::Number(bundle.params.delta));
  root.Set("privacy", std::move(privacy));

  root.Set("sensitive_attribute",
           JsonValue::String(bundle.sensitive_attribute));

  // Full dictionaries, not just domain sizes: the reader reconstructs the
  // schema from this section alone, with codes identical to the writer's.
  JsonValue attrs = JsonValue::Array();
  const auto& schema = *bundle.data.schema();
  for (size_t a = 0; a < schema.num_attributes(); ++a) {
    JsonValue attr = JsonValue::Object();
    attr.Set("name", JsonValue::String(schema.attribute(a).name));
    attr.Set("sensitive", JsonValue::Bool(schema.is_sensitive(a)));
    JsonValue values = JsonValue::Array();
    for (const auto& v : schema.attribute(a).domain.values()) {
      values.Append(JsonValue::String(v));
    }
    attr.Set("values", std::move(values));
    attrs.Append(std::move(attr));
  }
  root.Set("attributes", std::move(attrs));

  if (!bundle.generalization.empty()) {
    JsonValue gen = JsonValue::Array();
    for (const auto& merged : bundle.generalization) {
      JsonValue per_attr = JsonValue::Array();
      for (const auto& name : merged) {
        per_attr.Append(JsonValue::String(name));
      }
      gen.Append(std::move(per_attr));
    }
    root.Set("generalized_values", std::move(gen));
  }

  const auto storage = snap.index.storage();
  JsonValue index = JsonValue::Object();
  index.Set("packed", JsonValue::Bool(storage.packed));
  index.Set("num_groups", JsonValue::Int(int64_t(storage.num_groups)));
  index.Set("num_records", JsonValue::Int(int64_t(storage.num_records)));
  root.Set("index", std::move(index));
  return root;
}

template <typename Sink>
void SnapshotImage::Visit(uint64_t begin, uint64_t end, Sink&& sink) const {
  static constexpr uint8_t kZeros[kSectionAlignment] = {};
  auto zeros = [&sink](uint64_t from, uint64_t to) {
    while (from < to) {
      const uint64_t n = std::min<uint64_t>(to - from, sizeof(kZeros));
      sink(std::span<const uint8_t>(kZeros, size_t(n)));
      from += n;
    }
  };
  // The first extent that ends after `begin`.
  auto it = std::upper_bound(
      extents_.begin(), extents_.end(), begin,
      [](uint64_t pos, const Extent& e) {
        return pos < e.offset + e.bytes.size();
      });
  uint64_t pos = begin;
  for (; pos < end && it != extents_.end() && it->offset < end; ++it) {
    if (pos < it->offset) {
      zeros(pos, it->offset);
      pos = it->offset;
    }
    const uint64_t stop =
        std::min<uint64_t>(end, it->offset + it->bytes.size());
    sink(it->bytes.subspan(size_t(pos - it->offset), size_t(stop - pos)));
    pos = stop;
  }
  zeros(pos, end);
}

Result<std::shared_ptr<const SnapshotImage>> SnapshotImage::Make(
    const analysis::ReleaseSnapshot& snap, std::string_view release_name,
    std::shared_ptr<const void> keep_alive) {
  std::shared_ptr<SnapshotImage> image(new SnapshotImage());
  image->keep_alive_ = std::move(keep_alive);
  const auto storage = snap.index.storage();
  const table::Table& data = snap.bundle.data;

  const std::string manifest =
      BuildSnapshotManifest(snap, release_name).ToString(/*indent=*/2);
  image->manifest_.assign(manifest.begin(), manifest.end());

  // One section is one or more consecutive pieces: the table section is
  // the code columns back to back, column-major, each borrowed in place.
  struct Section {
    SectionKind kind;
    uint32_t elem_bytes;
    uint64_t count;
    std::vector<std::span<const uint8_t>> pieces;
  };
  std::vector<Section> sections;
  sections.push_back({SectionKind::kManifestJson, 1, manifest.size(),
                      {std::span<const uint8_t>(image->manifest_)}});
  Section table_section{SectionKind::kTableColumns, uint32_t(sizeof(uint32_t)),
                        0, {}};
  for (size_t c = 0; c < data.num_columns(); ++c) {
    const std::span<const uint32_t> col(data.column(c));
    table_section.count += col.size();
    table_section.pieces.push_back(PayloadBytes(col, image->reencoded_));
  }
  sections.push_back(std::move(table_section));
  auto add_array = [&](SectionKind kind, auto span) {
    using Elem = typename decltype(span)::element_type;
    sections.push_back({kind, uint32_t(sizeof(Elem)), span.size(),
                        {PayloadBytes(span, image->reencoded_)}});
  };
  add_array(SectionKind::kNaCodes, storage.na_codes);
  add_array(SectionKind::kSaCounts, storage.sa_counts);
  add_array(SectionKind::kRowOffsets, storage.row_offsets);
  add_array(SectionKind::kRowValues, storage.row_values);
  if (storage.packed) {
    add_array(SectionKind::kPackedKeys, storage.packed_keys);
  }

  // Lay out sections on alignment boundaries and checksum each payload.
  Superblock sb;
  sb.section_count = uint32_t(sections.size());
  sb.table_offset = kSuperblockBytes;
  sb.table_bytes = sections.size() * kSectionEntryBytes;
  std::vector<SectionEntry> entries(sections.size());
  uint64_t offset = AlignUp(kSuperblockBytes + sb.table_bytes);
  for (size_t i = 0; i < sections.size(); ++i) {
    SectionEntry& e = entries[i];
    e.kind = uint32_t(sections[i].kind);
    e.elem_bytes = sections[i].elem_bytes;
    e.count = sections[i].count;
    e.offset = offset;
    XxHash64Stream crc;
    for (const std::span<const uint8_t> piece : sections[i].pieces) {
      crc.Update(piece.data(), piece.size());
      if (!piece.empty()) {
        image->extents_.push_back({e.offset + crc.size() - piece.size(),
                                   piece});
      }
    }
    e.bytes = crc.size();
    e.crc = crc.Digest();
    offset = AlignUp(offset + e.bytes);
  }
  sb.file_bytes =
      entries.empty() ? offset : entries.back().offset + entries.back().bytes;

  // Header region (superblock + section table) with the checksum field
  // zeroed while hashing, then patched in.
  std::vector<uint8_t>& header = image->header_;
  header.assign(kSuperblockBytes + sb.table_bytes, 0);
  EncodeSuperblock(sb, header.data());
  for (size_t i = 0; i < entries.size(); ++i) {
    EncodeSectionEntry(entries[i],
                       header.data() + kSuperblockBytes +
                           i * kSectionEntryBytes);
  }
  sb.header_crc = XxHash64(header.data(), header.size());
  StoreLE64(sb.header_crc, header.data() + 56);
  image->extents_.insert(image->extents_.begin(),
                         Extent{0, std::span<const uint8_t>(header)});
  image->size_ = sb.file_bytes;

  XxHash64Stream digest;
  image->Visit(0, image->size_, [&digest](std::span<const uint8_t> piece) {
    digest.Update(piece.data(), piece.size());
  });
  image->digest_ = digest.Digest();
  return std::shared_ptr<const SnapshotImage>(std::move(image));
}

Status SnapshotImage::Read(uint64_t offset, std::span<uint8_t> out) const {
  if (offset > size_ || out.size() > size_ - offset) {
    return Status::InvalidArgument(
        "image range [" + std::to_string(offset) + ", +" +
        std::to_string(out.size()) + ") is beyond the image (" +
        std::to_string(size_) + " bytes)");
  }
  uint8_t* dst = out.data();
  Visit(offset, offset + out.size(), [&dst](std::span<const uint8_t> piece) {
    std::memcpy(dst, piece.data(), piece.size());
    dst += piece.size();
  });
  return Status::OK();
}

Status SnapshotImage::WriteFile(const std::string& path) const {
  return WriteAtomic(path, [this](std::ofstream& out) {
    Visit(0, size_, [&out](std::span<const uint8_t> piece) {
      out.write(reinterpret_cast<const char*>(piece.data()),
                std::streamsize(piece.size()));
    });
  });
}

Result<std::vector<uint8_t>> SerializeSnapshot(
    const analysis::ReleaseSnapshot& snap, std::string_view release_name) {
  RECPRIV_ASSIGN_OR_RETURN(std::shared_ptr<const SnapshotImage> image,
                           SnapshotImage::Make(snap, release_name));
  std::vector<uint8_t> bytes(image->size());
  RECPRIV_RETURN_NOT_OK(image->Read(0, bytes));
  return bytes;
}

Status WriteBytesAtomic(const std::vector<uint8_t>& bytes,
                        const std::string& path) {
  return WriteAtomic(path, [&bytes](std::ofstream& out) {
    out.write(reinterpret_cast<const char*>(bytes.data()),
              std::streamsize(bytes.size()));
  });
}

Status WriteSnapshot(const analysis::ReleaseSnapshot& snap,
                     std::string_view release_name, const std::string& path) {
  RECPRIV_ASSIGN_OR_RETURN(std::shared_ptr<const SnapshotImage> image,
                           SnapshotImage::Make(snap, release_name));
  return image->WriteFile(path);
}

}  // namespace recpriv::store
