// Seeded corruption fuzz over the binary snapshot format: random bit
// flips and truncations applied to a pristine .rps file must either be
// rejected structurally (kDataLoss / kNotImplemented) or leave the
// snapshot's content bit-identical — a corrupt file must never crash the
// reader or silently change an answer. Targeted flips inside every
// checksummed section additionally MUST be rejected.
//
// Deterministic under the harness seed (RECPRIV_SEED reruns a failure);
// runs under the sanitizer matrix in CI, where "never crashes" means no
// ASan/UBSan finding on any of the corrupted inputs either.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/release.h"
#include "common/checksum.h"
#include "common/random.h"
#include "store/snapshot_reader.h"
#include "store/snapshot_writer.h"
#include "table/flat_group_index.h"
#include "testing_util.h"

namespace recpriv::store {
namespace {

namespace fs = std::filesystem;

using recpriv::analysis::ReleaseSnapshot;
using recpriv::table::FlatGroupIndex;

/// Content identity of an opened snapshot: every array the index serves
/// from, every table column, the schema dictionaries, and the privacy
/// parameters, chained through XXH64. Two snapshots with equal
/// fingerprints answer every count query identically.
uint64_t ContentFingerprint(const ReleaseSnapshot& snap) {
  uint64_t h = 0;
  auto mix = [&h](const void* data, size_t len) {
    h = XxHash64(data, len, h);
  };
  auto mix_span = [&](auto span) {
    mix(span.data(), span.size_bytes());
  };
  const FlatGroupIndex::Storage st = snap.index.storage();
  const uint64_t shape[3] = {uint64_t(st.packed), st.num_groups,
                             st.num_records};
  mix(shape, sizeof(shape));
  mix_span(st.packed_keys);
  mix_span(st.na_codes);
  mix_span(st.sa_counts);
  mix_span(st.row_offsets);
  mix_span(st.row_values);
  for (size_t c = 0; c < snap.bundle.data.num_columns(); ++c) {
    const auto& column = snap.bundle.data.column(c);
    mix(column.data(), column.size() * sizeof(column[0]));
  }
  const auto& schema = *snap.bundle.data.schema();
  for (size_t a = 0; a < schema.num_attributes(); ++a) {
    for (const std::string& value : schema.attribute(a).domain.values()) {
      mix(value.data(), value.size());
      mix("\x1f", 1);  // separator: {"ab","c"} must differ from {"a","bc"}
    }
  }
  const double params[4] = {snap.bundle.params.retention_p,
                            snap.bundle.params.lambda,
                            snap.bundle.params.delta,
                            double(snap.bundle.params.domain_m)};
  mix(params, sizeof(params));
  mix(&snap.epoch, sizeof(snap.epoch));
  return h;
}

class SnapshotFuzz : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = new std::string(
        (fs::temp_directory_path() / "recpriv_snapshot_fuzz").string());
    fs::remove_all(*dir_);
    fs::create_directories(*dir_);
    auto snap = recpriv::analysis::SnapshotRelease(
        recpriv::testing::DemoBundle(2015), /*epoch=*/3);
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();
    const std::string path = *dir_ + "/pristine.rps";
    ASSERT_TRUE(WriteSnapshot(**snap, "demo", path).ok());
    std::ifstream in(path, std::ios::binary);
    pristine_ = new std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                                         std::istreambuf_iterator<char>());
    ASSERT_GT(pristine_->size(), kSuperblockBytes);
    auto opened = OpenSnapshot(path);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    baseline_ = ContentFingerprint(*opened->snapshot);
  }

  static void TearDownTestSuite() {
    fs::remove_all(*dir_);
    delete dir_;
    delete pristine_;
  }

  /// Writes `bytes` to a scratch file and opens it; EXPECTs that the open
  /// either fails with a structured error or yields the baseline content.
  /// Returns true when the open failed (the corruption was detected).
  static bool MustRejectOrMatch(const std::vector<uint8_t>& bytes,
                                const std::string& what) {
    const std::string path = *dir_ + "/corrupt.rps";
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(bytes.data()),
                std::streamsize(bytes.size()));
    }
    auto opened = OpenSnapshot(path);
    if (!opened.ok()) {
      const StatusCode code = opened.status().code();
      EXPECT_TRUE(code == StatusCode::kDataLoss ||
                  code == StatusCode::kNotImplemented)
          << what << ": unexpected error class "
          << opened.status().ToString();
      return true;
    }
    EXPECT_EQ(ContentFingerprint(*opened->snapshot), baseline_)
        << what << ": opened successfully but with DIFFERENT content";
    return false;
  }

  static std::string* dir_;
  static std::vector<uint8_t>* pristine_;
  static uint64_t baseline_;
};

std::string* SnapshotFuzz::dir_ = nullptr;
std::vector<uint8_t>* SnapshotFuzz::pristine_ = nullptr;
uint64_t SnapshotFuzz::baseline_ = 0;

TEST_F(SnapshotFuzz, RandomBitFlipsNeverYieldWrongAnswers) {
  Rng rng(recpriv::testing::HarnessSeed(0xF1155EED));
  size_t detected = 0;
  constexpr size_t kTrials = 220;
  for (size_t trial = 0; trial < kTrials; ++trial) {
    std::vector<uint8_t> bytes = *pristine_;
    // 1-3 independent bit flips anywhere in the file.
    const size_t flips = 1 + rng.NextUint64(3);
    std::string what = "trial " + std::to_string(trial) + " flips";
    for (size_t f = 0; f < flips; ++f) {
      const size_t pos = rng.NextUint64(bytes.size());
      bytes[pos] ^= uint8_t(1u << rng.NextUint64(8));
      what += ' ';
      what += std::to_string(pos);
    }
    if (MustRejectOrMatch(bytes, what)) ++detected;
  }
  // Only flips landing in alignment padding can go unnoticed; the demo
  // file is >95% checksummed payload, so detection must dominate.
  EXPECT_GT(detected, kTrials / 2);
}

TEST_F(SnapshotFuzz, RandomTruncationsAlwaysRejected) {
  Rng rng(recpriv::testing::HarnessSeed(0x7A75C47E));
  for (size_t trial = 0; trial < 80; ++trial) {
    std::vector<uint8_t> bytes = *pristine_;
    bytes.resize(rng.NextUint64(bytes.size()));  // strictly shorter
    EXPECT_TRUE(MustRejectOrMatch(bytes,
                                  "truncate to " +
                                      std::to_string(bytes.size())))
        << "a truncated file must never open";
  }
}

TEST_F(SnapshotFuzz, GrowingTheFileIsRejected) {
  std::vector<uint8_t> bytes = *pristine_;
  bytes.insert(bytes.end(), 128, 0xCC);  // trailing garbage
  EXPECT_TRUE(MustRejectOrMatch(bytes, "append 128 bytes"))
      << "file_bytes mismatch must be rejected";
}

TEST_F(SnapshotFuzz, EverySectionDetectsTargetedFlips) {
  const std::string path = *dir_ + "/pristine.rps";
  auto info = InspectSnapshot(path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  Rng rng(recpriv::testing::HarnessSeed(0x5EC7104));
  for (const SectionEntry& e : info->sections) {
    // Several positions per section: first byte, last byte, random interior.
    std::vector<uint64_t> positions = {e.offset, e.offset + e.bytes - 1};
    for (int i = 0; i < 6; ++i) {
      positions.push_back(e.offset + rng.NextUint64(e.bytes));
    }
    for (const uint64_t pos : positions) {
      std::vector<uint8_t> bytes = *pristine_;
      bytes[pos] ^= 0x40;
      EXPECT_TRUE(MustRejectOrMatch(
          bytes, "section " + std::to_string(e.kind) + " byte " +
                     std::to_string(pos)))
          << "a flip inside checksummed section " << e.kind
          << " must be detected";
    }
  }
}

TEST_F(SnapshotFuzz, HeaderFieldFlipsAreDetected) {
  // Every byte of the superblock + section table, exhaustively.
  const Superblock sb = DecodeSuperblock(pristine_->data());
  const uint64_t header_bytes = kSuperblockBytes + sb.table_bytes;
  for (uint64_t pos = 0; pos < header_bytes; ++pos) {
    std::vector<uint8_t> bytes = *pristine_;
    bytes[pos] ^= 0x01;
    EXPECT_TRUE(MustRejectOrMatch(bytes,
                                  "header byte " + std::to_string(pos)))
        << "the header crc covers byte " << pos;
  }
}

}  // namespace
}  // namespace recpriv::store
