// Tests for the persistent snapshot store (src/store/): checksum and
// endian primitives, write/open round-trips at the file and ReleaseStore
// level, FromStorage structural validation, fail-fast on foreign format
// versions, header/section corruption detection, and restart recovery of
// the retained-epoch window.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/release.h"
#include "client/in_process_client.h"
#include "common/checksum.h"
#include "common/endian.h"
#include "common/random.h"
#include "repl/digest.h"
#include "serve/release_store.h"
#include "store/snapshot_format.h"
#include "store/snapshot_reader.h"
#include "store/snapshot_writer.h"
#include "table/flat_group_index.h"
#include "testing_util.h"

namespace recpriv::store {
namespace {

namespace fs = std::filesystem;

using recpriv::analysis::ReleaseBundle;
using recpriv::analysis::ReleaseSnapshot;
using recpriv::analysis::SnapshotRelease;
using recpriv::table::FlatGroupIndex;

/// A fresh per-test scratch directory under the system temp dir.
std::string TempDir(const std::string& name) {
  const fs::path dir =
      fs::temp_directory_path() / ("recpriv_snapshot_test_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path,
                    const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            std::streamsize(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

/// Recomputes and patches the header checksum after a deliberate header
/// edit, so the edit itself (not the checksum) is what the reader sees.
void ResealHeader(std::vector<uint8_t>& bytes) {
  ASSERT_GE(bytes.size(), kSuperblockBytes);
  const Superblock sb = DecodeSuperblock(bytes.data());
  const uint64_t header_bytes = kSuperblockBytes + sb.table_bytes;
  ASSERT_GE(bytes.size(), header_bytes);
  std::vector<uint8_t> region(bytes.begin(),
                              bytes.begin() + ptrdiff_t(header_bytes));
  std::memset(region.data() + 56, 0, 8);
  StoreLE64(XxHash64(region.data(), region.size()), bytes.data() + 56);
}

/// A written demo snapshot plus its in-memory original, shared per test.
struct WrittenSnapshot {
  std::string dir;
  std::string path;
  std::shared_ptr<const ReleaseSnapshot> original;
};

WrittenSnapshot WriteDemo(const std::string& test_name,
                          uint64_t seed = 2015, uint64_t epoch = 7) {
  WrittenSnapshot w;
  w.dir = TempDir(test_name);
  w.path = w.dir + "/demo.rps";
  ReleaseBundle bundle = recpriv::testing::DemoBundle(seed);
  auto snap = SnapshotRelease(std::move(bundle), epoch);
  EXPECT_TRUE(snap.ok()) << snap.status().ToString();
  w.original = *snap;
  const Status written = WriteSnapshot(*w.original, "demo", w.path);
  EXPECT_TRUE(written.ok()) << written.ToString();
  return w;
}

// --- primitives ------------------------------------------------------------

TEST(Checksum, Xxh64OfficialVectors) {
  // Reference values from the xxHash specification's test vectors.
  EXPECT_EQ(XxHash64("", 0), 0xef46db3751d8e999ULL);
  EXPECT_EQ(XxHash64("abc", 3), 0x44bc2cf5ad770999ULL);
  EXPECT_NE(XxHash64("abc", 3, /*seed=*/1), XxHash64("abc", 3));
}

TEST(Checksum, SensitiveToEveryByte) {
  std::vector<uint8_t> data(257, 0xAB);
  const uint64_t base = XxHash64(data.data(), data.size());
  for (size_t i = 0; i < data.size(); i += 17) {
    data[i] ^= 0x01;
    EXPECT_NE(XxHash64(data.data(), data.size()), base) << "byte " << i;
    data[i] ^= 0x01;
  }
}

/// XxHash64Stream over `data` fed in random-length pieces.
uint64_t StreamDigest(const std::vector<uint8_t>& data, Rng& rng,
                      uint64_t seed = 0) {
  XxHash64Stream stream(seed);
  size_t pos = 0;
  while (pos < data.size()) {
    const size_t n = size_t(rng.NextUint64(data.size() - pos + 1));
    stream.Update(data.data() + pos, n);  // n == 0 feeds an empty piece
    pos += n;
  }
  EXPECT_EQ(stream.size(), data.size());
  return stream.Digest();
}

TEST(Checksum, StreamMatchesOfficialVectors) {
  XxHash64Stream empty;
  EXPECT_EQ(empty.Digest(), 0xef46db3751d8e999ULL);
  XxHash64Stream abc;
  abc.Update("a", 1);
  abc.Update("", 0);
  abc.Update("bc", 2);
  EXPECT_EQ(abc.Digest(), 0x44bc2cf5ad770999ULL);
  XxHash64Stream seeded(1);
  seeded.Update("abc", 3);
  EXPECT_EQ(seeded.Digest(), XxHash64("abc", 3, 1));
}

TEST(Checksum, StreamMatchesOneShotUnderRandomSplits) {
  Rng rng(recpriv::testing::HarnessSeed(2015));
  // Empty, under one stripe, exactly one stripe, and lengths around the
  // stripe and tail boundaries, each split many ways.
  for (const size_t len : {0, 1, 3, 4, 7, 8, 31, 32, 33, 63, 64, 65, 95,
                           96, 100, 1000, 4099}) {
    std::vector<uint8_t> data(len);
    for (uint8_t& b : data) b = uint8_t(rng.NextUint64(256));
    for (const uint64_t seed : {uint64_t{0}, uint64_t{20150323}}) {
      const uint64_t want = XxHash64(data.data(), data.size(), seed);
      for (int split = 0; split < 20; ++split) {
        ASSERT_EQ(StreamDigest(data, rng, seed), want)
            << "len " << len << " seed " << seed;
      }
    }
  }
}

TEST(Checksum, StreamUpdatesStraddlingStripeBoundaries) {
  std::vector<uint8_t> data(200);
  for (size_t i = 0; i < data.size(); ++i) data[i] = uint8_t(i * 37 + 1);
  const uint64_t want = XxHash64(data.data(), data.size());
  // Every first piece length 1..199 leaves a partial stripe buffered that
  // the second piece must complete; a copied stream resumes identically.
  for (size_t first = 1; first < data.size(); ++first) {
    XxHash64Stream stream;
    stream.Update(data.data(), first);
    const XxHash64Stream paused = stream;
    stream.Update(data.data() + first, data.size() - first);
    ASSERT_EQ(stream.Digest(), want) << "first " << first;
    XxHash64Stream resumed = paused;
    resumed.Update(data.data() + first, data.size() - first);
    ASSERT_EQ(resumed.Digest(), want) << "first " << first;
  }
}

TEST(Endian, LittleEndianRoundTrip) {
  uint8_t buf[8];
  StoreLE64(0x0102030405060708ULL, buf);
  EXPECT_EQ(buf[0], 0x08);  // least significant byte first
  EXPECT_EQ(buf[7], 0x01);
  EXPECT_EQ(LoadLE64(buf), 0x0102030405060708ULL);
  StoreLE32(0xdeadbeefU, buf);
  EXPECT_EQ(buf[0], 0xef);
  EXPECT_EQ(LoadLE32(buf), 0xdeadbeefU);
}

TEST(Format, SuperblockEncodeDecode) {
  Superblock sb;
  sb.section_count = 7;
  sb.file_bytes = 12345;
  sb.table_offset = kSuperblockBytes;
  sb.table_bytes = 7 * kSectionEntryBytes;
  sb.header_crc = 0x1122334455667788ULL;
  uint8_t buf[kSuperblockBytes];
  EncodeSuperblock(sb, buf);
  const Superblock back = DecodeSuperblock(buf);
  EXPECT_EQ(back.magic, kSnapshotMagic);
  EXPECT_EQ(back.version, kSnapshotFormatVersion);
  EXPECT_EQ(back.endian_tag, kEndianTag);
  EXPECT_EQ(back.section_count, 7u);
  EXPECT_EQ(back.file_bytes, 12345u);
  EXPECT_EQ(back.header_crc, sb.header_crc);
}

// --- round trip ------------------------------------------------------------

TEST(Snapshot, RoundTripIsBitIdentical) {
  const WrittenSnapshot w = WriteDemo("round_trip");
  auto opened = OpenSnapshot(w.path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened->release, "demo");

  const ReleaseSnapshot& a = *w.original;
  const ReleaseSnapshot& b = *opened->snapshot;
  EXPECT_EQ(b.epoch, a.epoch);
  EXPECT_EQ(b.source.kind, "snapshot");
  EXPECT_GT(b.source.bytes_mapped, 0u);

  // Parameters and schema survive exactly.
  EXPECT_EQ(b.bundle.params.retention_p, a.bundle.params.retention_p);
  EXPECT_EQ(b.bundle.params.lambda, a.bundle.params.lambda);
  EXPECT_EQ(b.bundle.params.delta, a.bundle.params.delta);
  EXPECT_EQ(b.bundle.params.domain_m, a.bundle.params.domain_m);
  EXPECT_EQ(b.bundle.sensitive_attribute, a.bundle.sensitive_attribute);
  const auto& sa = *a.bundle.data.schema();
  const auto& sb = *b.bundle.data.schema();
  ASSERT_EQ(sb.num_attributes(), sa.num_attributes());
  for (size_t at = 0; at < sa.num_attributes(); ++at) {
    EXPECT_EQ(sb.attribute(at).name, sa.attribute(at).name);
    EXPECT_EQ(sb.attribute(at).domain.values(),
              sa.attribute(at).domain.values());
    EXPECT_EQ(sb.is_sensitive(at), sa.is_sensitive(at));
  }

  // Every index array is bit-identical (the mmap'd spans vs the built
  // vectors), and so is the table itself.
  const FlatGroupIndex::Storage sa_st = a.index.storage();
  const FlatGroupIndex::Storage sb_st = b.index.storage();
  EXPECT_EQ(sb_st.packed, sa_st.packed);
  EXPECT_EQ(sb_st.num_groups, sa_st.num_groups);
  EXPECT_EQ(sb_st.num_records, sa_st.num_records);
  auto equal = [](auto lhs, auto rhs) {
    return std::equal(lhs.begin(), lhs.end(), rhs.begin(), rhs.end());
  };
  EXPECT_TRUE(equal(sb_st.packed_keys, sa_st.packed_keys));
  EXPECT_TRUE(equal(sb_st.na_codes, sa_st.na_codes));
  EXPECT_TRUE(equal(sb_st.sa_counts, sa_st.sa_counts));
  EXPECT_TRUE(equal(sb_st.row_offsets, sa_st.row_offsets));
  EXPECT_TRUE(equal(sb_st.row_values, sa_st.row_values));
  ASSERT_EQ(b.bundle.data.num_rows(), a.bundle.data.num_rows());
  for (size_t c = 0; c < sa.num_attributes(); ++c) {
    EXPECT_TRUE(equal(b.bundle.data.column(c), a.bundle.data.column(c)))
        << "column " << c;
  }
}

TEST(Snapshot, MmapAlignment) {
  const WrittenSnapshot w = WriteDemo("alignment");
  auto opened = OpenSnapshot(w.path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const FlatGroupIndex::Storage st = opened->snapshot->index.storage();
  auto aligned = [](const void* p) {
    return reinterpret_cast<uintptr_t>(p) % kSectionAlignment == 0;
  };
  EXPECT_TRUE(aligned(st.na_codes.data()));
  EXPECT_TRUE(aligned(st.sa_counts.data()));
  EXPECT_TRUE(aligned(st.row_offsets.data()));
  EXPECT_TRUE(aligned(st.row_values.data()));
  if (st.packed) {
    EXPECT_TRUE(aligned(st.packed_keys.data()));
  }
}

TEST(Snapshot, InspectReportsIdentityAndSections) {
  const WrittenSnapshot w = WriteDemo("inspect");
  auto info = InspectSnapshot(w.path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->release, "demo");
  EXPECT_EQ(info->epoch, 7u);
  EXPECT_EQ(info->num_records, w.original->index.num_records());
  EXPECT_EQ(info->num_groups, w.original->index.num_groups());
  EXPECT_EQ(info->superblock.version, kSnapshotFormatVersion);
  EXPECT_EQ(size_t(info->superblock.section_count), info->sections.size());
  EXPECT_EQ(info->superblock.file_bytes, fs::file_size(w.path));
  bool saw_manifest = false;
  for (const SectionEntry& e : info->sections) {
    EXPECT_EQ(e.offset % kSectionAlignment, 0u);
    if (SectionKind(e.kind) == SectionKind::kManifestJson) saw_manifest = true;
  }
  EXPECT_TRUE(saw_manifest);
}

TEST(Snapshot, AnswersMatchAcrossSaveAndOpen) {
  const WrittenSnapshot w = WriteDemo("answers");

  // Serve the original and the reopened snapshot side by side and compare
  // a full query sweep (every public value and every SA value).
  auto direct_store = std::make_shared<serve::ReleaseStore>();
  ASSERT_TRUE(direct_store
                  ->Publish("demo", recpriv::testing::DemoBundle(2015))
                  .ok());
  auto mapped_store = std::make_shared<serve::ReleaseStore>();
  ASSERT_TRUE(mapped_store->OpenSnapshot(w.path).ok());

  client::InProcessClient direct(direct_store);
  client::InProcessClient mapped(mapped_store);
  auto schema = direct.GetSchema("demo");
  ASSERT_TRUE(schema.ok());

  client::QueryRequest request;
  request.release = "demo";
  for (const client::AttributeInfo& attr : schema->attributes) {
    if (attr.sensitive) continue;
    for (const std::string& value : attr.values) {
      for (const client::AttributeInfo& sa : schema->attributes) {
        if (!sa.sensitive) continue;
        for (const std::string& sa_value : sa.values) {
          client::QuerySpec spec;
          spec.where = {{attr.name, value}};
          spec.sa = sa_value;
          request.queries.push_back(std::move(spec));
        }
      }
    }
  }
  ASSERT_FALSE(request.queries.empty());

  auto direct_answer = direct.Query(request);
  auto mapped_answer = mapped.Query(request);
  ASSERT_TRUE(direct_answer.ok()) << direct_answer.status().ToString();
  ASSERT_TRUE(mapped_answer.ok()) << mapped_answer.status().ToString();
  ASSERT_EQ(direct_answer->answers.size(), mapped_answer->answers.size());
  for (size_t i = 0; i < direct_answer->answers.size(); ++i) {
    EXPECT_EQ(mapped_answer->answers[i].observed,
              direct_answer->answers[i].observed) << "query " << i;
    EXPECT_EQ(mapped_answer->answers[i].matched_size,
              direct_answer->answers[i].matched_size) << "query " << i;
    EXPECT_EQ(mapped_answer->answers[i].estimate,
              direct_answer->answers[i].estimate) << "query " << i;
  }
}

// --- corruption and versioning ---------------------------------------------

TEST(Snapshot, RejectsBadMagic) {
  const WrittenSnapshot w = WriteDemo("bad_magic");
  std::vector<uint8_t> bytes = ReadFileBytes(w.path);
  bytes[0] ^= 0xFF;
  ResealHeader(bytes);
  WriteFileBytes(w.path, bytes);
  auto opened = OpenSnapshot(w.path);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kDataLoss);
}

TEST(Snapshot, FailsFastOnForeignFormatVersion) {
  const WrittenSnapshot w = WriteDemo("foreign_version");
  std::vector<uint8_t> bytes = ReadFileBytes(w.path);
  // A well-formed file from a future format: version bumped, header crc
  // valid. The reader must refuse by version, not by checksum accident.
  StoreLE32(kSnapshotFormatVersion + 41, bytes.data() + 8);
  ResealHeader(bytes);
  WriteFileBytes(w.path, bytes);
  auto opened = OpenSnapshot(w.path);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kNotImplemented);
  EXPECT_NE(opened.status().message().find("version"), std::string::npos);
}

TEST(Snapshot, DetectsHeaderCorruption) {
  const WrittenSnapshot w = WriteDemo("header_corruption");
  std::vector<uint8_t> bytes = ReadFileBytes(w.path);
  bytes[kSuperblockBytes + 16] ^= 0x01;  // a section entry's offset field
  WriteFileBytes(w.path, bytes);
  auto opened = OpenSnapshot(w.path);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kDataLoss);
}

TEST(Snapshot, DetectsTruncation) {
  const WrittenSnapshot w = WriteDemo("truncation");
  std::vector<uint8_t> bytes = ReadFileBytes(w.path);
  bytes.resize(bytes.size() - 1);
  WriteFileBytes(w.path, bytes);
  auto opened = OpenSnapshot(w.path);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kDataLoss);

  bytes.resize(kSuperblockBytes / 2);  // not even a whole superblock
  WriteFileBytes(w.path, bytes);
  opened = OpenSnapshot(w.path);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kDataLoss);
}

TEST(Snapshot, DetectsPayloadCorruptionInEverySection) {
  const WrittenSnapshot w = WriteDemo("payload_corruption");
  auto info = InspectSnapshot(w.path);
  ASSERT_TRUE(info.ok());
  const std::vector<uint8_t> pristine = ReadFileBytes(w.path);
  for (const SectionEntry& e : info->sections) {
    std::vector<uint8_t> bytes = pristine;
    bytes[e.offset + e.bytes / 2] ^= 0x10;
    WriteFileBytes(w.path, bytes);
    auto opened = OpenSnapshot(w.path);
    ASSERT_FALSE(opened.ok()) << "section kind " << e.kind;
    EXPECT_EQ(opened.status().code(), StatusCode::kDataLoss)
        << "section kind " << e.kind;
  }
}

TEST(FromStorage, RejectsStructurallyInvalidArrays) {
  ReleaseBundle bundle = recpriv::testing::DemoBundle(2015);
  const FlatGroupIndex built = FlatGroupIndex::Build(bundle.data);
  const FlatGroupIndex::Storage good = built.storage();
  const auto schema = bundle.data.schema();

  {
    auto ok = FlatGroupIndex::FromStorage(schema, good);
    ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  }
  {
    FlatGroupIndex::Storage bad = good;
    bad.num_records += 1;  // CSR no longer covers every record
    EXPECT_EQ(FlatGroupIndex::FromStorage(schema, bad).status().code(),
              StatusCode::kDataLoss);
  }
  {
    FlatGroupIndex::Storage bad = good;
    std::vector<uint64_t> offsets(good.row_offsets.begin(),
                                  good.row_offsets.end());
    offsets[0] = 1;  // CSR must start at 0
    bad.row_offsets = offsets;
    EXPECT_EQ(FlatGroupIndex::FromStorage(schema, bad).status().code(),
              StatusCode::kDataLoss);
  }
  {
    FlatGroupIndex::Storage bad = good;
    std::vector<uint32_t> rows(good.row_values.begin(),
                               good.row_values.end());
    rows[0] = rows[1];  // no longer a permutation
    bad.row_values = rows;
    EXPECT_EQ(FlatGroupIndex::FromStorage(schema, bad).status().code(),
              StatusCode::kDataLoss);
  }
  {
    FlatGroupIndex::Storage bad = good;
    std::vector<uint64_t> counts(good.sa_counts.begin(),
                                 good.sa_counts.end());
    counts[0] += 1;  // histogram row no longer sums to the group size
    bad.sa_counts = counts;
    EXPECT_EQ(FlatGroupIndex::FromStorage(schema, bad).status().code(),
              StatusCode::kDataLoss);
  }
}

// --- ReleaseStore persistence ----------------------------------------------

TEST(ReleaseStorePersistence, PublishPersistsAndRecoverySeesIt) {
  const std::string dir = TempDir("persist_recover");
  serve::ReleaseStore::Options options;
  options.retained_epochs = 4;
  options.snapshot_dir = dir;
  uint64_t first_epoch = 0;
  {
    serve::ReleaseStore store(options);
    ASSERT_TRUE(store.RecoverFromDir().ok());
    auto snap = store.Publish("demo", recpriv::testing::DemoBundle(2015));
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();
    first_epoch = (*snap)->epoch;
    ASSERT_TRUE(
        store.Publish("demo", recpriv::testing::DemoBundle(2016)).ok());
    // Two epochs, two managed files.
    size_t files = 0;
    for (const auto& e : fs::directory_iterator(dir)) {
      if (e.path().extension() == ".rps") ++files;
    }
    EXPECT_EQ(files, 2u);
  }
  // A fresh store over the same directory recovers the full window and
  // continues the epoch sequence instead of reusing numbers.
  serve::ReleaseStore restarted(options);
  ASSERT_TRUE(restarted.RecoverFromDir().ok());
  auto info = restarted.Info("demo");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->oldest_epoch, first_epoch);
  EXPECT_EQ(info->epoch, first_epoch + 1);
  EXPECT_EQ(info->retained_epochs, 2u);
  EXPECT_EQ(info->source_kind, "snapshot");
  auto republished =
      restarted.Publish("demo", recpriv::testing::DemoBundle(2017));
  ASSERT_TRUE(republished.ok());
  EXPECT_EQ((*republished)->epoch, first_epoch + 2);
}

TEST(ReleaseStorePersistence, EvictionAndDropDeleteManagedFiles) {
  const std::string dir = TempDir("evict_drop");
  serve::ReleaseStore::Options options;
  options.retained_epochs = 2;
  options.snapshot_dir = dir;
  serve::ReleaseStore store(options);
  ASSERT_TRUE(store.RecoverFromDir().ok());
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    ASSERT_TRUE(
        store.Publish("demo", recpriv::testing::DemoBundle(seed)).ok());
  }
  size_t files = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().extension() == ".rps") ++files;
  }
  EXPECT_EQ(files, 2u);  // epochs 1 and 2 were evicted with their files

  ASSERT_TRUE(store.Drop("demo").ok());
  files = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().extension() == ".rps") ++files;
  }
  EXPECT_EQ(files, 0u);  // dropped releases cannot be resurrected
}

TEST(ReleaseStorePersistence, RecoveryFailsFastOnCorruptFile) {
  const std::string dir = TempDir("recover_corrupt");
  serve::ReleaseStore::Options options;
  options.snapshot_dir = dir;
  {
    serve::ReleaseStore store(options);
    ASSERT_TRUE(store.RecoverFromDir().ok());
    ASSERT_TRUE(
        store.Publish("demo", recpriv::testing::DemoBundle(2015)).ok());
  }
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().extension() != ".rps") continue;
    std::vector<uint8_t> bytes = ReadFileBytes(e.path().string());
    bytes[bytes.size() / 2] ^= 0x01;
    WriteFileBytes(e.path().string(), bytes);
  }
  serve::ReleaseStore restarted(options);
  const Status recovered = restarted.RecoverFromDir();
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.code(), StatusCode::kDataLoss);
  EXPECT_NE(recovered.message().find("recovery failed"), std::string::npos);
}

TEST(ReleaseStorePersistence, RecoveryDeletesStaleTempFiles) {
  const std::string dir = TempDir("recover_stale_tmp");
  serve::ReleaseStore::Options options;
  options.snapshot_dir = dir;
  {
    serve::ReleaseStore store(options);
    ASSERT_TRUE(store.RecoverFromDir().ok());
    ASSERT_TRUE(
        store.Publish("demo", recpriv::testing::DemoBundle(2015)).ok());
  }
  // What a crash leaves behind: a half-written atomic write and a
  // follower's partial transfer, both truncated garbage.
  const std::vector<uint8_t> garbage(100, 0x5a);
  const std::string stale_tmp =
      dir + "/demo-e2.rps" + std::string(kAtomicTempSuffix);
  const std::string stale_part =
      dir + "/demo-e3.rps" + std::string(kPartialTransferSuffix);
  const std::string unrelated = dir + "/notes.txt";
  WriteFileBytes(stale_tmp, garbage);
  WriteFileBytes(stale_part, garbage);
  WriteFileBytes(unrelated, garbage);

  serve::ReleaseStore restarted(options);
  ASSERT_TRUE(restarted.RecoverFromDir().ok());
  auto info = restarted.Info("demo");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->epoch, 1u);
  EXPECT_EQ(info->retained_epochs, 1u);
  EXPECT_FALSE(fs::exists(stale_tmp));
  EXPECT_FALSE(fs::exists(stale_part));
  EXPECT_TRUE(fs::exists(unrelated));  // only known temp suffixes go
}

TEST(ReleaseStorePersistence, DuplicateEpochInstallIsAlreadyExists) {
  const WrittenSnapshot w = WriteDemo("dup_epoch");
  serve::ReleaseStore store;
  ASSERT_TRUE(store.OpenSnapshot(w.path).ok());
  const auto again = store.OpenSnapshot(w.path);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kAlreadyExists);
}

/// The sorted file names of the `.rps` files under `dir`.
std::vector<std::string> RpsFiles(const std::string& dir) {
  std::vector<std::string> names;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().extension() == ".rps") {
      names.push_back(e.path().filename().string());
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

/// Publishes `epochs` epochs of each of the releases r0..r{releases-1}
/// into a durable store over `dir`, retaining every one of them.
void PublishReleases(const std::string& dir, size_t releases, size_t epochs) {
  serve::ReleaseStore::Options options;
  options.retained_epochs = epochs;
  options.snapshot_dir = dir;
  serve::ReleaseStore store(options);
  ASSERT_TRUE(store.RecoverFromDir().ok());
  for (size_t r = 0; r < releases; ++r) {
    for (size_t e = 0; e < epochs; ++e) {
      const auto published = store.Publish(
          "r" + std::to_string(r), recpriv::testing::DemoBundle(100 * r + e));
      ASSERT_TRUE(published.ok()) << published.status().ToString();
    }
  }
}

void FlipMiddleByte(const std::string& path) {
  std::vector<uint8_t> bytes = ReadFileBytes(path);
  bytes[bytes.size() / 2] ^= 0x01;
  WriteFileBytes(path, bytes);
}

/// "install r0@3", "retire r0@1", ... — what a listener saw, in order.
std::string Describe(const serve::StoreEvent& event) {
  static constexpr const char* kKinds[] = {"install", "retire", "drop"};
  return std::string(kKinds[static_cast<int>(event.kind)]) + " " +
         event.release + "@" + std::to_string(event.epoch);
}

TEST(ReleaseStorePersistence, CorruptMiddleFileInstallsNothing) {
  const std::string dir = TempDir("recover_corrupt_middle");
  PublishReleases(dir, /*releases=*/3, /*epochs=*/4);
  const std::vector<std::string> files = RpsFiles(dir);
  ASSERT_EQ(files.size(), 12u);
  const std::string corrupt = dir + "/r1-e2.rps";
  FlipMiddleByte(corrupt);

  // A window of 2 makes the files before the corrupt one evict (and so
  // delete) their oldest epochs if they are installed before the check.
  serve::ReleaseStore::Options options;
  options.retained_epochs = 2;
  options.snapshot_dir = dir;
  serve::ReleaseStore restarted(options);
  std::vector<std::string> events;
  restarted.AddListener([&](const serve::StoreEvent& event) {
    events.push_back(Describe(event));
  });
  const Status recovered = restarted.RecoverFromDir();
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.code(), StatusCode::kDataLoss);
  EXPECT_EQ(recovered.message().rfind("snapshot recovery failed: ", 0), 0u)
      << recovered.message();
  EXPECT_NE(recovered.message().find(corrupt), std::string::npos)
      << recovered.message();
  EXPECT_TRUE(restarted.List().empty());
  EXPECT_TRUE(events.empty());
  EXPECT_EQ(RpsFiles(dir), files);

  // With a second, later corrupt file the error still names the first one
  // in path order, whichever thread failed first.
  FlipMiddleByte(dir + "/r2-e4.rps");
  const Status again = restarted.RecoverFromDir();
  ASSERT_FALSE(again.ok());
  EXPECT_NE(again.message().find(corrupt), std::string::npos)
      << again.message();
  EXPECT_TRUE(restarted.List().empty());
  EXPECT_TRUE(events.empty());
  EXPECT_EQ(RpsFiles(dir), files);
}

TEST(ReleaseStorePersistence, TwoFilesWithOneEpochInstallNothing) {
  const std::string dir = TempDir("recover_dup_epoch");
  PublishReleases(dir, /*releases=*/1, /*epochs=*/2);
  // The same image under a second name: same manifest, same (r0, 2).
  const std::string original = dir + "/r0-e2.rps";
  const std::string copy = dir + "/zz-copy.rps";
  fs::copy_file(original, copy);
  const std::vector<std::string> files = RpsFiles(dir);

  serve::ReleaseStore::Options options;
  options.retained_epochs = 1;
  options.snapshot_dir = dir;
  serve::ReleaseStore restarted(options);
  std::vector<std::string> events;
  restarted.AddListener([&](const serve::StoreEvent& event) {
    events.push_back(Describe(event));
  });
  const Status recovered = restarted.RecoverFromDir();
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(recovered.message().rfind("snapshot recovery failed: ", 0), 0u)
      << recovered.message();
  EXPECT_NE(recovered.message().find(original), std::string::npos)
      << recovered.message();
  EXPECT_NE(recovered.message().find(copy), std::string::npos)
      << recovered.message();
  EXPECT_TRUE(restarted.List().empty());
  EXPECT_TRUE(events.empty());
  EXPECT_EQ(RpsFiles(dir), files);
}

TEST(ReleaseStorePersistence, ParallelRecoveryMatchesOneAtATimeOpens) {
  // More files than hardware threads, and more epochs than the window.
  const std::string dir = TempDir("recover_parallel");
  const std::string reference_dir = TempDir("recover_parallel_reference");
  PublishReleases(dir, /*releases=*/3, /*epochs=*/5);
  for (const std::string& name : RpsFiles(dir)) {
    fs::copy_file(dir + "/" + name, reference_dir + "/" + name);
  }
  serve::ReleaseStore::Options options;
  options.retained_epochs = 4;
  options.snapshot_dir = dir;
  serve::ReleaseStore recovered(options);
  std::vector<std::string> recovered_events;
  recovered.AddListener([&](const serve::StoreEvent& event) {
    recovered_events.push_back(Describe(event));
  });
  ASSERT_TRUE(recovered.RecoverFromDir().ok());

  options.snapshot_dir = reference_dir;
  serve::ReleaseStore reference(options);
  std::vector<std::string> reference_events;
  reference.AddListener([&](const serve::StoreEvent& event) {
    reference_events.push_back(Describe(event));
  });
  for (const std::string& name : RpsFiles(reference_dir)) {
    const auto opened = reference.OpenSnapshot(reference_dir + "/" + name);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  }

  EXPECT_EQ(recovered_events, reference_events);
  EXPECT_EQ(RpsFiles(dir), RpsFiles(reference_dir));
  EXPECT_EQ(RpsFiles(dir).size(), 12u);  // each release's epoch 1 is gone
  const std::vector<serve::ReleaseInfo> infos = recovered.List();
  ASSERT_EQ(infos.size(), 3u);
  for (const serve::ReleaseInfo& info : infos) {
    SCOPED_TRACE(info.name);
    EXPECT_EQ(info.oldest_epoch, 2u);
    EXPECT_EQ(info.epoch, 5u);
    const auto window = recovered.Window(info.name);
    const auto reference_window = reference.Window(info.name);
    ASSERT_TRUE(window.ok());
    ASSERT_TRUE(reference_window.ok());
    ASSERT_EQ(window->size(), reference_window->size());
    for (size_t i = 0; i < window->size(); ++i) {
      EXPECT_EQ((*window)[i]->epoch, (*reference_window)[i]->epoch);
      EXPECT_EQ((*window)[i]->content_digest,
                (*reference_window)[i]->content_digest);
    }
    // Both continue the epoch sequence past the recovered window.
    const auto next = recovered.Publish(info.name,
                                        recpriv::testing::DemoBundle(7));
    const auto reference_next =
        reference.Publish(info.name, recpriv::testing::DemoBundle(7));
    ASSERT_TRUE(next.ok());
    ASSERT_TRUE(reference_next.ok());
    EXPECT_EQ((*next)->epoch, 6u);
    EXPECT_EQ((*reference_next)->epoch, 6u);
  }
}

TEST(ReleaseStorePersistence, SanitizedFilenamesForHostileNames) {
  const std::string dir = TempDir("hostile_names");
  serve::ReleaseStore::Options options;
  options.snapshot_dir = dir;
  serve::ReleaseStore store(options);
  ASSERT_TRUE(store.RecoverFromDir().ok());
  ASSERT_TRUE(store
                  .Publish("../etc/passwd x%41",
                           recpriv::testing::DemoBundle(2015))
                  .ok());
  // Everything the publish wrote stays inside the managed directory, and
  // recovery restores the hostile name from the manifest, not the path.
  size_t files = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    EXPECT_TRUE(e.is_regular_file());
    EXPECT_EQ(e.path().extension(), ".rps");
    ++files;
  }
  EXPECT_EQ(files, 1u);
  serve::ReleaseStore restarted(options);
  ASSERT_TRUE(restarted.RecoverFromDir().ok());
  EXPECT_TRUE(restarted.Get("../etc/passwd x%41").ok());
}

// --- golden image bytes ------------------------------------------------------

/// A snapshot whose public key needs 9 x 8 = 72 bits, so the index falls
/// back to wide row-major keys (no kPackedKeys section).
std::shared_ptr<const ReleaseSnapshot> WideKeySnapshot() {
  std::vector<table::Attribute> attrs;
  for (int a = 0; a < 9; ++a) {
    table::Dictionary d;
    for (int v = 0; v < 129; ++v) {
      std::string value = "a";
      value += std::to_string(a);
      value += "v";
      value += std::to_string(v);
      d.GetOrAdd(value);
    }
    attrs.push_back(table::Attribute{"A" + std::to_string(a), std::move(d)});
  }
  attrs.push_back(table::Attribute{
      "SA", *table::Dictionary::FromValues({"s0", "s1", "s2"})});
  auto schema = std::make_shared<table::Schema>(
      *table::Schema::Make(std::move(attrs), /*sensitive_index=*/9));
  table::Table data(schema);
  Rng rng(20150323);
  std::vector<uint32_t> row(10);
  for (int r = 0; r < 600; ++r) {
    // Codes drawn from a few values per attribute so groups repeat.
    for (size_t a = 0; a < 9; ++a) row[a] = uint32_t(rng.NextUint64(3) * 61);
    row[9] = uint32_t(rng.NextUint64(3));
    data.AppendRowUnchecked(row);
  }
  core::PrivacyParams params;
  params.domain_m = 3;
  auto snap = SnapshotRelease(ReleaseBundle{std::move(data), params, "SA", {}},
                              /*epoch=*/3);
  EXPECT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_FALSE((*snap)->index.packed());
  return *snap;
}

std::shared_ptr<const ReleaseSnapshot> DemoSnapshot() {
  auto snap = SnapshotRelease(recpriv::testing::DemoBundle(2015), 7);
  EXPECT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_TRUE((*snap)->index.packed());
  return *snap;
}

/// Size and XXH64 of SerializeSnapshot's output, pinned: the persisted
/// bytes (and so every replication digest) must never drift.
struct GoldenImageCase {
  const char* name;
  std::shared_ptr<const ReleaseSnapshot> (*make)();
  uint64_t bytes;
  uint64_t digest;
};

const GoldenImageCase kGoldenImages[] = {
    {"demo", DemoSnapshot, 17568, 0x2ca04e984f516b32ULL},
    {"wide", WideKeySnapshot, 88416, 0x53bab131fde34af2ULL},
};

TEST(GoldenImage, SerializedBytesArePinned) {
  for (const GoldenImageCase& golden : kGoldenImages) {
    SCOPED_TRACE(golden.name);
    auto bytes = SerializeSnapshot(*golden.make(), golden.name);
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    EXPECT_EQ(bytes->size(), golden.bytes);
    EXPECT_EQ(XxHash64(bytes->data(), bytes->size()), golden.digest);
  }
}

TEST(GoldenImage, RangeReadsSpliceBackToTheWholeImage) {
  Rng rng(recpriv::testing::HarnessSeed(2015));
  for (const GoldenImageCase& golden : kGoldenImages) {
    SCOPED_TRACE(golden.name);
    const auto snap = golden.make();
    auto image = SnapshotImage::Make(*snap, golden.name);
    ASSERT_TRUE(image.ok()) << image.status().ToString();
    const SnapshotImage& layout = **image;
    ASSERT_EQ(layout.size(), golden.bytes);
    EXPECT_EQ(layout.digest(), golden.digest);
    auto serialized = SerializeSnapshot(*snap, golden.name);
    ASSERT_TRUE(serialized.ok()) << serialized.status().ToString();
    const std::vector<uint8_t>& whole = *serialized;
    ASSERT_EQ(XxHash64(whole.data(), whole.size()), golden.digest);

    // Random (offset, len) reads agree with the whole image...
    for (int i = 0; i < 200; ++i) {
      const uint64_t offset = rng.NextUint64(layout.size() + 1);
      const uint64_t len = rng.NextUint64(layout.size() - offset + 1);
      std::vector<uint8_t> part(len);
      ASSERT_TRUE(layout.Read(offset, part).ok());
      ASSERT_TRUE(std::equal(part.begin(), part.end(),
                             whole.begin() + ptrdiff_t(offset)))
          << "offset " << offset << " len " << len;
    }
    // ...and consecutive random-length reads splice back to exactly it.
    std::vector<uint8_t> spliced;
    while (spliced.size() < layout.size()) {
      const uint64_t left = layout.size() - spliced.size();
      std::vector<uint8_t> part(
          1 + rng.NextUint64(std::min<uint64_t>(left, 777)));
      ASSERT_TRUE(layout.Read(spliced.size(), part).ok());
      spliced.insert(spliced.end(), part.begin(), part.end());
    }
    EXPECT_EQ(spliced, whole);

    // Ranges past the end are refused, not clamped.
    std::vector<uint8_t> one(1);
    EXPECT_EQ(layout.Read(layout.size(), one).code(),
              StatusCode::kInvalidArgument);
    EXPECT_TRUE(layout.Read(layout.size(), std::span<uint8_t>()).ok());
  }
}

TEST(GoldenImage, StreamedFileDigestIsTheGolden) {
  const std::string dir = TempDir("golden_file");
  for (const GoldenImageCase& golden : kGoldenImages) {
    SCOPED_TRACE(golden.name);
    const std::string path = dir + "/" + golden.name + ".rps";
    ASSERT_TRUE(WriteSnapshot(*golden.make(), golden.name, path).ok());
    EXPECT_FALSE(fs::exists(path + ".tmp"));
    EXPECT_EQ(fs::file_size(path), golden.bytes);
    auto digest = repl::FileDigest(path);
    ASSERT_TRUE(digest.ok()) << digest.status().ToString();
    EXPECT_EQ(*digest, golden.digest);
    // The streamed file opens and answers like the original.
    auto opened = OpenSnapshot(path);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    EXPECT_EQ(opened->release, golden.name);
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace recpriv::store
