// Property test of the direct query codec (serve/wire.h): seeded random
// requests and answers go through the four direct functions and through
// their tree references, and the two must agree byte for byte (writers)
// and value for value (readers):
//
//   WriteQueryRequest   vs  EncodeQueryRequest(...).ToString()
//   ReadQueryRequest    vs  DecodeQueryRequest(JsonValue::Parse(line))
//   WriteQueryResponse  vs  EncodeQueryResponse(...).ToString()
//   ReadQueryResponse   vs  DecodeQueryResponse(ParseResponse(line))
//
// The draws cover what the golden transcripts only sample: escaped and
// non-ASCII names, repeated and unsorted where-attributes, an empty where,
// pinned epochs above 2^53, tenants, deadlines, and estimates that are
// integral on both sides of 1e15 or fractional. A decoded answer must also
// equal the one that was written, so a lossy number format fails here even
// though both paths share it.

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "client/api.h"
#include "common/json.h"
#include "common/random.h"
#include "serve/wire.h"
#include "testing_util.h"

namespace recpriv::serve {
namespace {

using recpriv::testing::HarnessSeed;

constexpr size_t kDraws = 2000;

/// A name from pieces that exercise every escape class and multi-byte
/// UTF-8, or a plain one.
std::string RandomName(Rng& rng) {
  static const char* const kPieces[] = {
      "a",  "Job", "north", "\xC3\xA9", "\xE6\x97\xA5", "\"", "\\",
      "\n", "\t",  "\x01",  "\x1F",     "/",            " ",  "\x7F"};
  std::string out;
  const size_t n = rng.NextUint64(5);
  for (size_t i = 0; i < n; ++i) {
    out += kPieces[rng.NextUint64(sizeof(kPieces) / sizeof(kPieces[0]))];
  }
  return out;
}

uint64_t RandomUint(Rng& rng) {
  switch (rng.NextUint64(4)) {
    case 0:
      return rng.NextUint64(100);
    case 1:
      return (uint64_t(1) << 53) + rng.NextUint64(1000);
    case 2:
      return UINT64_MAX - rng.NextUint64(3);
    default:
      return rng();
  }
}

client::QueryRequest RandomRequest(Rng& rng) {
  static const char* const kAttrs[] = {"Job", "City", "n\xC3\xA9", "a\"b",
                                       "", "Zone"};
  client::QueryRequest request;
  request.release = RandomName(rng);
  if (rng.NextBernoulli(0.5)) request.epoch = RandomUint(rng);
  const size_t queries = rng.NextUint64(6);
  for (size_t q = 0; q < queries; ++q) {
    client::QuerySpec spec;
    spec.sa = RandomName(rng);
    // Repeated attributes and any order: the tree keeps the last binding
    // of an attribute and writes them sorted.
    const size_t bindings = rng.NextUint64(5);
    for (size_t b = 0; b < bindings; ++b) {
      spec.where.emplace_back(kAttrs[rng.NextUint64(6)], RandomName(rng));
    }
    request.queries.push_back(std::move(spec));
  }
  if (rng.NextBernoulli(0.5)) request.tenant = RandomName(rng);
  if (rng.NextBernoulli(0.5)) {
    request.deadline_ms = rng.NextBernoulli(0.2)
                              ? -int64_t(rng.NextUint64(1000))
                              : int64_t(rng.NextUint64(1u << 30));
  }
  return request;
}

double RandomEstimate(Rng& rng) {
  const double sign = rng.NextBernoulli(0.2) ? -1.0 : 1.0;
  switch (rng.NextUint64(5)) {
    case 0:  // integral, printed as an integer
      return sign * double(rng.NextUint64(uint64_t(1e15)));
    case 1:  // integral at or past 1e15, printed with %.17g
      return sign * (1e15 + double(rng.NextUint64(uint64_t(1e6))) * 1e9);
    case 2:  // tiny
      return sign * rng.NextDouble() * 1e-300;
    case 3:  // large fractional
      return sign * rng.NextDouble() * 1e6;
    default:  // any fraction
      return sign * rng.NextDouble();
  }
}

client::BatchAnswer RandomAnswer(Rng& rng) {
  client::BatchAnswer batch;
  batch.release = RandomName(rng);
  batch.epoch = RandomUint(rng);
  batch.cache_hits = RandomUint(rng);
  batch.cache_misses = RandomUint(rng);
  const size_t rows = rng.NextUint64(6);
  for (size_t i = 0; i < rows; ++i) {
    batch.answers.push_back(client::AnswerRow{
        RandomUint(rng), RandomUint(rng), RandomEstimate(rng),
        rng.NextBernoulli(0.5)});
  }
  return batch;
}

void ExpectSameRequest(const client::QueryRequest& got,
                       const client::QueryRequest& want,
                       const std::string& line) {
  EXPECT_EQ(got.release, want.release) << line;
  EXPECT_EQ(got.epoch, want.epoch) << line;
  EXPECT_EQ(got.tenant, want.tenant) << line;
  EXPECT_EQ(got.deadline_ms, want.deadline_ms) << line;
  ASSERT_EQ(got.queries.size(), want.queries.size()) << line;
  for (size_t q = 0; q < got.queries.size(); ++q) {
    EXPECT_EQ(got.queries[q].sa, want.queries[q].sa) << line;
    EXPECT_EQ(got.queries[q].where, want.queries[q].where) << line;
  }
}

void ExpectSameAnswer(const client::BatchAnswer& got,
                      const client::BatchAnswer& want,
                      const std::string& line) {
  EXPECT_EQ(got.release, want.release) << line;
  EXPECT_EQ(got.epoch, want.epoch) << line;
  EXPECT_EQ(got.cache_hits, want.cache_hits) << line;
  EXPECT_EQ(got.cache_misses, want.cache_misses) << line;
  ASSERT_EQ(got.answers.size(), want.answers.size()) << line;
  for (size_t i = 0; i < got.answers.size(); ++i) {
    EXPECT_EQ(got.answers[i].observed, want.answers[i].observed) << line;
    EXPECT_EQ(got.answers[i].matched_size, want.answers[i].matched_size)
        << line;
    EXPECT_EQ(got.answers[i].estimate, want.answers[i].estimate) << line;
    EXPECT_EQ(got.answers[i].cached, want.answers[i].cached) << line;
  }
}

TEST(WireCodecTest, RequestWriterAndReaderMatchTheTree) {
  Rng rng(HarnessSeed(0xC0DEC0DEu));
  for (size_t draw = 0; draw < kDraws; ++draw) {
    const client::QueryRequest request = RandomRequest(rng);
    const uint64_t id = RandomUint(rng);
    // A session pin stands in for a request without its own epoch.
    std::optional<uint64_t> epoch = request.epoch;
    client::QueryRequest effective = request;
    if (!epoch.has_value() && rng.NextBernoulli(0.5)) {
      epoch = effective.epoch = RandomUint(rng);
    }
    std::string line;
    wire::WriteQueryRequest(request, epoch, id, line);
    ASSERT_EQ(line, wire::EncodeQueryRequest(effective, id).ToString());

    auto tree = JsonValue::Parse(line);
    ASSERT_TRUE(tree.ok()) << line;
    Result<client::QueryRequest> want = wire::DecodeQueryRequest(*tree);
    client::QueryRequest got;
    got.tenant = "stale";  // the reader must overwrite reused buffers
    got.queries.resize(9);
    wire::QueryEnvelope envelope;
    ASSERT_EQ(wire::ReadQueryRequest(line, &got, &envelope), want.ok())
        << line;
    if (!want.ok()) continue;  // a negative deadline: the tree's error
    ExpectSameRequest(got, *want, line);
    EXPECT_EQ(envelope.version, kWireVersionCurrent);
    ASSERT_TRUE(envelope.id.has_value());
    EXPECT_EQ(envelope.id->ToString(), std::to_string(id));
    EXPECT_EQ(envelope.pinned_epoch, epoch.has_value());
    if (HasFailure()) return;
  }
}

TEST(WireCodecTest, ResponseWriterAndReaderMatchTheTree) {
  Rng rng(HarnessSeed(0xA115E7u));
  for (size_t draw = 0; draw < kDraws; ++draw) {
    const client::BatchAnswer batch = RandomAnswer(rng);
    const uint64_t id = rng.NextUint64(uint64_t(INT64_MAX));
    const int64_t version =
        rng.NextBernoulli(0.8) ? kWireVersionCurrent : kWireVersionLegacy;
    std::optional<JsonValue> echo;
    switch (rng.NextUint64(3)) {
      case 0:
        echo = JsonValue::Uint(id);
        break;
      case 1:
        echo = JsonValue::String(RandomName(rng));
        break;
      default:
        break;
    }
    const JsonValue* echo_ptr = echo ? &*echo : nullptr;
    std::string line;
    wire::WriteQueryResponse(batch, version, echo_ptr, line);
    ASSERT_EQ(line,
              wire::EncodeQueryResponse(batch, version, echo_ptr).ToString());

    // Only a v2 response echoing the expected numeric id is the client's
    // to take; anything else is the tree path's to report.
    const uint64_t expect = draw % 4 == 3 ? id + 1 : id;
    const bool takes = version == kWireVersionCurrent && expect == id &&
                       echo.has_value() && echo->is_number();
    client::BatchAnswer got;
    ASSERT_EQ(wire::ReadQueryResponse(line, expect, &got), takes) << line;
    auto envelope = wire::ParseResponse(line, expect);
    ASSERT_EQ(envelope.ok(), takes) << line;
    if (!takes) continue;
    Result<client::BatchAnswer> want = wire::DecodeQueryResponse(*envelope);
    ASSERT_TRUE(want.ok()) << line;
    ExpectSameAnswer(got, *want, line);
    // And what was written is what comes back.
    ExpectSameAnswer(got, batch, line);
    if (HasFailure()) return;
  }
}

TEST(WireCodecTest, ResponseReaderLeavesErrorsAndEventsToTheTree) {
  client::BatchAnswer got;
  for (const char* line : {
           R"({"error":{"code":"NOT_FOUND","message":"x"},"id":1,"ok":false,"v":2})",
           R"({"epoch":2,"event":"epoch","kind":"retire","release":"demo","v":2})",
           R"({"answers":[],"cache_hits":0,"cache_misses":0,"epoch":1,"id":2,"ok":true,"release":"demo","v":2})",
           R"({"answers":[],"cache_hits":0,"cache_misses":0,"epoch":1,"id":1,"ok":true,"release":"demo","v":1})",
           R"({"answers":[],"cache_hits":0,"cache_misses":0,"epoch":1,"event":"x","id":1,"ok":true,"release":"demo","v":2})",
           R"({"answers":[],"cache_hits":0,"epoch":1,"id":1,"ok":true,"release":"demo","v":2})",
           R"({"answers":[],"cache_hits":0,"cache_misses":0,"epoch":1,"id":1,"id":1,"ok":true,"release":"demo","v":2})",
           R"({"answers":[{"cached":true,"estimate":1,"matched_size":1}],"cache_hits":0,"cache_misses":0,"epoch":1,"id":1,"ok":true,"release":"demo","v":2})",
       }) {
    EXPECT_FALSE(wire::ReadQueryResponse(line, 1, &got)) << line;
  }
  // Unknown keys are skipped, as the tree ignores them.
  EXPECT_TRUE(wire::ReadQueryResponse(
      R"({"answers":[{"cached":true,"estimate":2.5,"extra":[{}],"matched_size":4,"observed":1}],"cache_hits":1,"cache_misses":0,"epoch":1,"id":1,"note":"n","ok":true,"release":"demo","v":2})",
      1, &got));
  ASSERT_EQ(got.answers.size(), 1u);
  EXPECT_EQ(got.answers[0].estimate, 2.5);
  EXPECT_EQ(got.answers[0].matched_size, 4u);
}

}  // namespace
}  // namespace recpriv::serve
