#include "store/snapshot_reader.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstring>
#include <utility>

#include "common/checksum.h"
#include "common/json.h"
#include "common/timer.h"
#include "table/dictionary.h"
#include "table/schema.h"
#include "table/table.h"

namespace recpriv::store {

namespace {

/// Re-tags a parse/validation failure as corruption of `path`. Everything
/// inside a checksummed file is the writer's responsibility, so a bad
/// field there is data loss, not a caller error.
Status DataLossFrom(const Status& status, const std::string& path) {
  return Status::DataLoss(path + ": " + status.message());
}

struct Header {
  Superblock sb;
  std::vector<SectionEntry> sections;
};

/// Decodes and fully verifies the superblock, section table, and every
/// section checksum. After this returns OK, all offsets are in bounds and
/// all payload bytes are exactly what the writer produced.
Result<Header> ParseHeader(std::span<const uint8_t> file,
                           const std::string& path) {
  if (!HostIsLittleEndian()) {
    return Status::NotImplemented(
        "snapshot serving maps little-endian arrays in place and requires a "
        "little-endian host");
  }
  if (file.size() < kSuperblockBytes) {
    return Status::DataLoss(path + ": truncated before the superblock");
  }
  Header h;
  h.sb = DecodeSuperblock(file.data());
  if (h.sb.magic != kSnapshotMagic) {
    return Status::DataLoss(path + ": not a recpriv snapshot (bad magic)");
  }
  if (h.sb.endian_tag != kEndianTag) {
    return Status::DataLoss(path + ": endianness tag mismatch");
  }
  if (h.sb.version != kSnapshotFormatVersion) {
    return Status::NotImplemented(
        path + ": snapshot format version " + std::to_string(h.sb.version) +
        " (this build reads version " +
        std::to_string(kSnapshotFormatVersion) + ")");
  }
  if (h.sb.alignment != kSectionAlignment ||
      h.sb.table_offset != kSuperblockBytes || h.sb.reserved != 0) {
    return Status::DataLoss(path + ": malformed superblock");
  }
  if (h.sb.section_count == 0 || h.sb.section_count > kMaxSections ||
      h.sb.table_bytes != h.sb.section_count * kSectionEntryBytes) {
    return Status::DataLoss(path + ": implausible section table");
  }
  if (h.sb.file_bytes != file.size()) {
    return Status::DataLoss(path + ": file size disagrees with superblock");
  }
  const uint64_t header_bytes = kSuperblockBytes + h.sb.table_bytes;
  if (header_bytes > file.size()) {
    return Status::DataLoss(path + ": truncated inside the section table");
  }
  std::vector<uint8_t> header(file.begin(), file.begin() + header_bytes);
  std::memset(header.data() + 56, 0, 8);  // the header_crc field itself
  if (XxHash64(header.data(), header.size()) != h.sb.header_crc) {
    return Status::DataLoss(path + ": header checksum mismatch");
  }

  uint64_t seen_kinds = 0;
  for (uint32_t i = 0; i < h.sb.section_count; ++i) {
    SectionEntry e = DecodeSectionEntry(file.data() + kSuperblockBytes +
                                        i * kSectionEntryBytes);
    if (e.elem_bytes != 1 && e.elem_bytes != 4 && e.elem_bytes != 8) {
      return Status::DataLoss(path + ": bad section element width");
    }
    if (e.count > file.size() || e.bytes != e.count * e.elem_bytes) {
      return Status::DataLoss(path + ": section size inconsistent");
    }
    if (e.offset % kSectionAlignment != 0 || e.offset < header_bytes ||
        e.offset > file.size() || e.bytes > file.size() - e.offset) {
      return Status::DataLoss(path + ": section out of bounds");
    }
    if (e.kind == 0 || e.kind >= 64 || (seen_kinds >> e.kind) & 1) {
      return Status::DataLoss(path + ": duplicate or unknown section kind");
    }
    seen_kinds |= uint64_t(1) << e.kind;
    h.sections.push_back(e);
  }
  for (const SectionEntry& e : h.sections) {
    if (XxHash64(file.data() + e.offset, size_t(e.bytes)) != e.crc) {
      return Status::DataLoss(path + ": section " + std::to_string(e.kind) +
                              " checksum mismatch");
    }
  }
  return h;
}

Result<const SectionEntry*> FindSection(const Header& h, SectionKind kind,
                                        const std::string& path) {
  for (const SectionEntry& e : h.sections) {
    if (e.kind == uint32_t(kind)) return &e;
  }
  return Status::DataLoss(path + ": missing section kind " +
                          std::to_string(uint32_t(kind)));
}

/// The section payload viewed as an array of T. Alignment holds by
/// construction (sections start on 64-byte boundaries) and the host is LE
/// (gated in ParseHeader), so the mmap'd bytes are usable in place.
template <typename T>
Result<std::span<const T>> TypedSection(std::span<const uint8_t> file,
                                        const SectionEntry& e,
                                        const std::string& path) {
  if (e.elem_bytes != sizeof(T)) {
    return Status::DataLoss(path + ": section " + std::to_string(e.kind) +
                            " has the wrong element width");
  }
  return std::span<const T>(reinterpret_cast<const T*>(file.data() + e.offset),
                            size_t(e.count));
}

/// Everything the manifest section declares.
struct Manifest {
  std::string release;
  uint64_t epoch = 0;
  core::PrivacyParams params;
  std::string sensitive_attribute;
  table::SchemaPtr schema;
  std::vector<std::vector<std::string>> generalization;
  bool packed = false;
  uint64_t num_groups = 0;
  uint64_t num_records = 0;
};

/// Parses and cross-checks the manifest JSON. Plain statuses here; the
/// caller re-tags them as kDataLoss against the file path.
Result<Manifest> ParseManifest(const std::string& text) {
  RECPRIV_ASSIGN_OR_RETURN(JsonValue root, JsonValue::Parse(text));
  RECPRIV_ASSIGN_OR_RETURN(std::string format, RequireString(root, "format"));
  if (format != "recpriv-snapshot") {
    return Status::InvalidArgument("manifest format is not recpriv-snapshot");
  }
  RECPRIV_ASSIGN_OR_RETURN(int64_t version, RequireInt(root, "version"));
  if (version != int64_t(kSnapshotFormatVersion)) {
    return Status::InvalidArgument("manifest version disagrees with header");
  }
  Manifest m;
  RECPRIV_ASSIGN_OR_RETURN(m.release, RequireString(root, "release"));
  RECPRIV_ASSIGN_OR_RETURN(int64_t epoch, RequireInt(root, "epoch"));
  if (epoch < 0) return Status::InvalidArgument("negative epoch");
  m.epoch = uint64_t(epoch);

  RECPRIV_ASSIGN_OR_RETURN(const JsonValue* mechanism,
                           RequireField(root, "mechanism"));
  RECPRIV_ASSIGN_OR_RETURN(m.params.retention_p,
                           RequireDouble(*mechanism, "retention_p"));
  RECPRIV_ASSIGN_OR_RETURN(int64_t domain_m,
                           RequireInt(*mechanism, "domain_m"));
  if (domain_m <= 0) return Status::InvalidArgument("non-positive domain_m");
  m.params.domain_m = size_t(domain_m);
  RECPRIV_ASSIGN_OR_RETURN(const JsonValue* privacy,
                           RequireField(root, "privacy"));
  RECPRIV_ASSIGN_OR_RETURN(m.params.lambda, RequireDouble(*privacy, "lambda"));
  RECPRIV_ASSIGN_OR_RETURN(m.params.delta, RequireDouble(*privacy, "delta"));

  RECPRIV_ASSIGN_OR_RETURN(m.sensitive_attribute,
                           RequireString(root, "sensitive_attribute"));

  RECPRIV_ASSIGN_OR_RETURN(const JsonValue* attrs,
                           RequireField(root, "attributes"));
  std::vector<table::Attribute> attributes;
  size_t sensitive_index = attrs->size();
  for (size_t a = 0; a < attrs->size(); ++a) {
    RECPRIV_ASSIGN_OR_RETURN(const JsonValue* attr, attrs->At(a));
    table::Attribute out;
    RECPRIV_ASSIGN_OR_RETURN(out.name, RequireString(*attr, "name"));
    RECPRIV_ASSIGN_OR_RETURN(const JsonValue* sensitive,
                             RequireField(*attr, "sensitive"));
    RECPRIV_ASSIGN_OR_RETURN(bool is_sensitive, sensitive->AsBool());
    RECPRIV_ASSIGN_OR_RETURN(const JsonValue* values,
                             RequireField(*attr, "values"));
    std::vector<std::string> domain;
    for (size_t i = 0; i < values->size(); ++i) {
      RECPRIV_ASSIGN_OR_RETURN(const JsonValue* value, values->At(i));
      RECPRIV_ASSIGN_OR_RETURN(std::string s, value->AsString());
      domain.push_back(std::move(s));
    }
    RECPRIV_ASSIGN_OR_RETURN(out.domain,
                             table::Dictionary::FromValues(domain));
    if (is_sensitive) {
      if (sensitive_index != attrs->size()) {
        return Status::InvalidArgument("multiple sensitive attributes");
      }
      sensitive_index = a;
    }
    attributes.push_back(std::move(out));
  }
  if (sensitive_index == attrs->size()) {
    return Status::InvalidArgument("no sensitive attribute");
  }
  if (attributes[sensitive_index].name != m.sensitive_attribute) {
    return Status::InvalidArgument(
        "sensitive_attribute disagrees with the attribute flags");
  }
  RECPRIV_ASSIGN_OR_RETURN(
      table::Schema schema,
      table::Schema::Make(std::move(attributes), sensitive_index));
  m.schema = std::make_shared<table::Schema>(std::move(schema));

  if (root.Has("generalized_values")) {
    RECPRIV_ASSIGN_OR_RETURN(const JsonValue* gen,
                             root.Get("generalized_values"));
    for (size_t a = 0; a < gen->size(); ++a) {
      RECPRIV_ASSIGN_OR_RETURN(const JsonValue* per_attr, gen->At(a));
      std::vector<std::string> names;
      for (size_t i = 0; i < per_attr->size(); ++i) {
        RECPRIV_ASSIGN_OR_RETURN(const JsonValue* name, per_attr->At(i));
        RECPRIV_ASSIGN_OR_RETURN(std::string s, name->AsString());
        names.push_back(std::move(s));
      }
      m.generalization.push_back(std::move(names));
    }
  }

  RECPRIV_ASSIGN_OR_RETURN(const JsonValue* index,
                           RequireField(root, "index"));
  RECPRIV_ASSIGN_OR_RETURN(const JsonValue* packed,
                           RequireField(*index, "packed"));
  RECPRIV_ASSIGN_OR_RETURN(m.packed, packed->AsBool());
  RECPRIV_ASSIGN_OR_RETURN(int64_t groups, RequireInt(*index, "num_groups"));
  RECPRIV_ASSIGN_OR_RETURN(int64_t records,
                           RequireInt(*index, "num_records"));
  if (groups < 0 || records < 0) {
    return Status::InvalidArgument("negative index dimensions");
  }
  m.num_groups = uint64_t(groups);
  m.num_records = uint64_t(records);
  return m;
}

Result<std::string> ManifestText(std::span<const uint8_t> file,
                                 const Header& header,
                                 const std::string& path) {
  RECPRIV_ASSIGN_OR_RETURN(
      const SectionEntry* entry,
      FindSection(header, SectionKind::kManifestJson, path));
  if (entry->elem_bytes != 1) {
    return Status::DataLoss(path + ": manifest section is not a byte array");
  }
  return std::string(reinterpret_cast<const char*>(file.data() +
                                                   entry->offset),
                     size_t(entry->bytes));
}

}  // namespace

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    if (data_ != nullptr) {
      ::munmap(const_cast<uint8_t*>(data_), size_);
    }
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

MappedFile::~MappedFile() {
  if (data_ != nullptr) {
    ::munmap(const_cast<uint8_t*>(data_), size_);
  }
}

Result<MappedFile> MappedFile::Open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IOError("cannot open " + path);
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IOError("cannot stat " + path);
  }
  MappedFile out;
  if (st.st_size > 0) {
    void* addr =
        ::mmap(nullptr, size_t(st.st_size), PROT_READ, MAP_PRIVATE, fd, 0);
    if (addr == MAP_FAILED) {
      ::close(fd);
      return Status::IOError("cannot mmap " + path);
    }
    out.data_ = static_cast<const uint8_t*>(addr);
    out.size_ = size_t(st.st_size);
  }
  ::close(fd);  // the mapping outlives the descriptor
  return out;
}

Result<SnapshotInfo> InspectSnapshot(const std::string& path) {
  RECPRIV_ASSIGN_OR_RETURN(MappedFile map, MappedFile::Open(path));
  const std::span<const uint8_t> file = map.bytes();
  RECPRIV_ASSIGN_OR_RETURN(Header header, ParseHeader(file, path));
  RECPRIV_ASSIGN_OR_RETURN(std::string text,
                           ManifestText(file, header, path));
  auto manifest = ParseManifest(text);
  if (!manifest.ok()) return DataLossFrom(manifest.status(), path);
  SnapshotInfo info;
  info.superblock = header.sb;
  info.sections = std::move(header.sections);
  info.release = manifest->release;
  info.epoch = manifest->epoch;
  info.packed = manifest->packed;
  info.num_groups = manifest->num_groups;
  info.num_records = manifest->num_records;
  return info;
}

Result<OpenedSnapshot> OpenSnapshot(const std::string& path) {
  WallTimer timer;
  RECPRIV_ASSIGN_OR_RETURN(MappedFile map, MappedFile::Open(path));
  const std::span<const uint8_t> file = map.bytes();
  RECPRIV_ASSIGN_OR_RETURN(Header header, ParseHeader(file, path));
  RECPRIV_ASSIGN_OR_RETURN(std::string text,
                           ManifestText(file, header, path));
  auto parsed = ParseManifest(text);
  if (!parsed.ok()) return DataLossFrom(parsed.status(), path);
  Manifest manifest = std::move(*parsed);

  // The perturbed table: the one section a reader copies out of the map
  // (Table owns growable columns). Codes are validated against the
  // reconstructed dictionaries by FromColumns.
  RECPRIV_ASSIGN_OR_RETURN(
      const SectionEntry* table_entry,
      FindSection(header, SectionKind::kTableColumns, path));
  RECPRIV_ASSIGN_OR_RETURN(
      std::span<const uint32_t> cells,
      TypedSection<uint32_t>(file, *table_entry, path));
  const size_t num_attrs = manifest.schema->num_attributes();
  if (cells.size() != num_attrs * manifest.num_records) {
    return Status::DataLoss(path + ": table section size mismatch");
  }
  std::vector<std::vector<uint32_t>> columns(num_attrs);
  for (size_t c = 0; c < num_attrs; ++c) {
    const auto col = cells.subspan(c * manifest.num_records,
                                   manifest.num_records);
    columns[c].assign(col.begin(), col.end());
  }
  auto data = table::Table::FromColumns(manifest.schema, std::move(columns));
  if (!data.ok()) return DataLossFrom(data.status(), path);

  // The index arrays are used where they lie in the mapping.
  table::FlatGroupIndex::Storage storage;
  storage.packed = manifest.packed;
  storage.num_groups = manifest.num_groups;
  storage.num_records = manifest.num_records;
  RECPRIV_ASSIGN_OR_RETURN(const SectionEntry* na,
                           FindSection(header, SectionKind::kNaCodes, path));
  RECPRIV_ASSIGN_OR_RETURN(storage.na_codes,
                           TypedSection<uint32_t>(file, *na, path));
  RECPRIV_ASSIGN_OR_RETURN(const SectionEntry* sa,
                           FindSection(header, SectionKind::kSaCounts, path));
  RECPRIV_ASSIGN_OR_RETURN(storage.sa_counts,
                           TypedSection<uint64_t>(file, *sa, path));
  RECPRIV_ASSIGN_OR_RETURN(
      const SectionEntry* offsets,
      FindSection(header, SectionKind::kRowOffsets, path));
  RECPRIV_ASSIGN_OR_RETURN(storage.row_offsets,
                           TypedSection<uint64_t>(file, *offsets, path));
  RECPRIV_ASSIGN_OR_RETURN(const SectionEntry* rows,
                           FindSection(header, SectionKind::kRowValues, path));
  RECPRIV_ASSIGN_OR_RETURN(storage.row_values,
                           TypedSection<uint32_t>(file, *rows, path));
  if (manifest.packed) {
    RECPRIV_ASSIGN_OR_RETURN(
        const SectionEntry* keys,
        FindSection(header, SectionKind::kPackedKeys, path));
    RECPRIV_ASSIGN_OR_RETURN(storage.packed_keys,
                             TypedSection<uint64_t>(file, *keys, path));
  }
  auto index =
      table::FlatGroupIndex::FromStorage(manifest.schema, storage);
  if (!index.ok()) return DataLossFrom(index.status(), path);

  analysis::ReleaseBundle bundle{std::move(*data), manifest.params,
                                 std::move(manifest.sensitive_attribute),
                                 std::move(manifest.generalization)};
  analysis::SnapshotSource source;
  source.kind = "snapshot";
  source.bytes_mapped = file.size();
  // The snapshot's index borrows the mapping; hand ownership of the map to
  // the snapshot so the file stays mapped exactly as long as it is served.
  auto backing = std::make_shared<MappedFile>(std::move(map));
  auto assembled = analysis::AssembleSnapshot(
      std::move(bundle), manifest.epoch, std::move(*index), std::move(source),
      std::move(backing));
  if (!assembled.ok()) return DataLossFrom(assembled.status(), path);
  // open_ms times the whole open, posting build and content digest
  // included. The snapshot is not shared yet, and AssembleSnapshot made it
  // as a non-const object, so finishing its provenance here is sound.
  std::const_pointer_cast<analysis::ReleaseSnapshot>(*assembled)
      ->source.open_ms = timer.Millis();
  return OpenedSnapshot{std::move(manifest.release), std::move(*assembled)};
}

}  // namespace recpriv::store
