// Seed-driven deterministic fuzz harness for the wire front end
// (serve/wire.h) and the typed service behind it: thousands of mutated,
// truncated, and type-confused request lines — all derived from valid
// v1/v2 requests plus raw garbage — are pushed through HandleRequestLine
// against a live engine, and every response must satisfy the protocol
// contract:
//
//   * the response parses as a JSON object with a boolean "ok";
//   * ok:false responses carry a structured {"error":{code,message}} whose
//     code is in the stable taxonomy (v2 shape), or the v1 flat string
//     when the request negotiated v1;
//   * a request that carried an "id" gets it echoed back, verbatim;
//   * the dispatcher never crashes, hangs, or emits unstructured output;
//   * the response is byte-identical, error text included, to the tree
//     path's (JsonValue::Parse + HandleRequest) on a twin engine that has
//     seen the same lines — so the direct query codec (wire::
//     ReadQueryRequest / WriteQueryResponse) never answers differently
//     from the reference, whatever the line.
//
// Everything is seeded from one Rng (common/random.h), so a failure
// reproduces exactly; the failing input line is printed by the assertion.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "client/api.h"
#include "common/json.h"
#include "common/random.h"
#include "serve/query_engine.h"
#include "serve/release_store.h"
#include "serve/wire.h"
#include "testing_util.h"

namespace recpriv::serve {
namespace {

using recpriv::testing::DemoBundle;
using recpriv::testing::HarnessSeed;

// --- valid request corpus --------------------------------------------------

std::vector<std::string> ValidCorpus() {
  return {
      // v1 shapes
      R"({"op":"list"})",
      R"({"op":"stats"})",
      R"({"op":"query","release":"demo","queries":[{"where":{"Job":"eng"},"sa":"flu"}]})",
      R"({"op":"query","release":"demo","queries":[{"sa":"bc"},{"where":{"City":"north","Job":"law"},"sa":"hiv"}]})",
      // v2 shapes, every op
      R"({"v":2,"id":1,"op":"list"})",
      R"({"v":2,"id":2,"op":"stats"})",
      R"({"v":2,"id":3,"op":"schema","release":"demo"})",
      R"({"v":2,"id":4,"op":"schema","release":"demo","epoch":1})",
      R"({"v":2,"id":5,"op":"query","release":"demo","epoch":1,"queries":[{"where":{"Job":"eng"},"sa":"flu"}]})",
      R"({"v":2,"id":6,"op":"query","release":"demo","queries":[{"sa":"flu"}]})",
      R"({"v":2,"id":7,"op":"publish","name":"other","release":"no_such_bundle"})",
      R"({"v":2,"id":8,"op":"drop","release":"demo"})",
      R"({"v":2,"id":9,"op":"drop","release":"never_published"})",
      R"({"v":2,"id":10,"op":"frobnicate"})",
      R"({"v":7,"id":11,"op":"list"})",
      // near-valid shapes that must be structured errors
      R"({"op":"query","release":"demo","queries":[{"where":{"Job":"nope"},"sa":"flu"}]})",
      R"({"op":"query","release":"demo","queries":[{"where":{"Disease":"flu"},"sa":"flu"}]})",
      R"({"v":2,"op":"query","release":"demo","epoch":999,"queries":[{"sa":"flu"}]})",
      R"({"v":2,"op":"query","release":"ghost","queries":[{"sa":"flu"}]})",
      // integer-exactness territory: ids and integral fields above 2^53,
      // where a double-typed decode silently rounds. The contract checker
      // compares the echoed id byte-for-byte, so these fail loudly if the
      // codec regresses to doubles.
      R"({"v":2,"id":9007199254740993,"op":"list"})",
      R"({"v":2,"id":18446744073709551615,"op":"stats"})",
      R"({"v":2,"id":20,"op":"schema","release":"demo","epoch":9007199254740993})",
      R"({"v":2,"id":21,"op":"schema","release":"demo","epoch":18446744073709551615})",
      R"({"v":2,"id":22,"op":"schema","release":"demo","epoch":1e18})",
      R"({"v":2,"id":23,"op":"schema","release":"demo","epoch":-1})",
      R"({"v":2,"id":24,"op":"schema","release":"demo","epoch":18446744073709551616})",
      // the direct query codec's territory: every optional field, escapes,
      // key order, repeated and unknown keys, odd ids and versions
      R"({"deadline_ms":86400000,"epoch":1,"id":30,"op":"query","queries":[{"sa":"flu","where":{"City":"north","Job":"eng"}},{"sa":"hiv","where":{}}],"release":"demo","tenant":"t\u00e9","v":2})",
      R"({"v":2,"id":31,"op":"query","release":"demo","queries":[{"where":{"Job":"law","City":"south"},"sa":"bc"}]})",
      R"({"v":2,"id":32,"op":"query","release":"demo","queries":[{"where":{"Job":"eng","Job":"law"},"sa":"flu"}]})",
      R"({"v":2,"id":33,"id":34,"op":"query","release":"demo","queries":[{"sa":"flu"}]})",
      R"({"v":2,"id":39,"op":"query","release":"demo","queries":[{"where":{"Job":"eng"},"where":{"City":"north"},"sa":"flu","sa":"hiv"}],"queries":[{"sa":"bc"}]})",
      R"({"v":2,"id":"thirty-five","op":"query","release":"demo","extra":[1,{"x":null}],"queries":[{"sa":"flu","note":true}]})",
      R"({"v":2.0,"id":{"n":36},"op":"query","release":"demo","queries":[],"deadline_ms":0})",
      R"({"v":1,"id":37,"op":"query","release":"demo","tenant":"","queries":[{"where":{"Job":"nope"},"sa":"flu"}]})",
      R"(  {"id":38,"op":"query","release":"d\u0065mo","queries":[{"sa":"fl\u0075"}],"epoch":2}  )",
  };
}

// --- mutators --------------------------------------------------------------

/// Replacement palette for structured type confusion.
JsonValue RandomReplacement(Rng& rng) {
  switch (rng.NextUint64(9)) {
    case 0: return JsonValue::Null();
    case 1: return JsonValue::Bool(rng.NextBernoulli(0.5));
    case 2: return JsonValue::Int(-1);
    case 3: return JsonValue::Number(1e308);
    case 4: return JsonValue::String("");
    case 5: return JsonValue::Array();
    case 6: return JsonValue::Object();
    case 7: return JsonValue::Int(int64_t(rng.NextUint64(1) == 0
                                              ? 999999999999LL
                                              : 0));
    default: return JsonValue::String("zzz_nonexistent");
  }
}

size_t CountNodes(const JsonValue& v) {
  size_t n = 1;
  if (v.is_array()) {
    for (size_t i = 0; i < v.size(); ++i) n += CountNodes(**v.At(i));
  } else if (v.is_object()) {
    for (const std::string& key : v.Keys()) n += CountNodes(**v.Get(key));
  }
  return n;
}

/// Rebuilds `v` with the node at preorder index `target` replaced.
JsonValue ReplaceNode(const JsonValue& v, size_t& counter, size_t target,
                      const JsonValue& replacement) {
  const size_t index = counter++;
  if (index == target) return replacement;
  if (v.is_array()) {
    JsonValue out = JsonValue::Array();
    for (size_t i = 0; i < v.size(); ++i) {
      out.Append(ReplaceNode(**v.At(i), counter, target, replacement));
    }
    return out;
  }
  if (v.is_object()) {
    JsonValue out = JsonValue::Object();
    for (const std::string& key : v.Keys()) {
      out.Set(key, ReplaceNode(**v.Get(key), counter, target, replacement));
    }
    return out;
  }
  return v;
}

/// Drops the object key at preorder-ish position `target` (top level only
/// matters most: "op", "release", "queries", ...).
JsonValue DropRandomKey(const JsonValue& v, Rng& rng) {
  if (!v.is_object() || v.size() == 0) return v;
  const std::vector<std::string> keys = v.Keys();
  const std::string victim = keys[rng.NextUint64(keys.size())];
  JsonValue out = JsonValue::Object();
  for (const std::string& key : keys) {
    if (key != victim) out.Set(key, **v.Get(key));
  }
  return out;
}

std::string MutateLine(const std::string& line, Rng& rng) {
  switch (rng.NextUint64(8)) {
    case 0:  // truncate
      return line.substr(0, rng.NextUint64(line.size() + 1));
    case 1: {  // flip one byte to anything
      if (line.empty()) return line;
      std::string out = line;
      out[rng.NextUint64(out.size())] = char(rng.NextUint64(256));
      return out;
    }
    case 2: {  // insert a byte
      std::string out = line;
      out.insert(out.begin() + long(rng.NextUint64(out.size() + 1)),
                 char(rng.NextUint64(256)));
      return out;
    }
    case 3: {  // delete a byte
      if (line.empty()) return line;
      std::string out = line;
      out.erase(out.begin() + long(rng.NextUint64(out.size())));
      return out;
    }
    case 4: {  // structured type confusion
      auto parsed = JsonValue::Parse(line);
      if (!parsed.ok()) return line + "}";
      const size_t nodes = CountNodes(*parsed);
      size_t counter = 0;
      return ReplaceNode(*parsed, counter, rng.NextUint64(nodes),
                         RandomReplacement(rng))
          .ToString();
    }
    case 5: {  // drop a key
      auto parsed = JsonValue::Parse(line);
      if (!parsed.ok()) return "";
      return DropRandomKey(*parsed, rng).ToString();
    }
    case 6:  // trailing garbage (Parse must reject)
      return line + line;
    default: {  // pure garbage line
      std::string out;
      const size_t len = rng.NextUint64(40);
      for (size_t i = 0; i < len; ++i) out.push_back(char(rng.NextUint64(256)));
      return out;
    }
  }
}

// --- the protocol contract -------------------------------------------------

/// Checks one response line against the wire contract; `input` only feeds
/// the failure message.
void CheckResponseContract(const std::string& input,
                           const std::string& response_line) {
  ASSERT_FALSE(response_line.empty()) << "empty response for: " << input;
  auto response = JsonValue::Parse(response_line);
  ASSERT_TRUE(response.ok()) << "unparseable response '" << response_line
                             << "' for: " << input;
  ASSERT_TRUE(response->is_object()) << "non-object response for: " << input;
  ASSERT_TRUE(response->Has("ok")) << "no 'ok' field for: " << input;
  auto ok = (*response->Get("ok"))->AsBool();
  ASSERT_TRUE(ok.ok()) << "'ok' not a bool for: " << input;

  if (!*ok) {
    ASSERT_TRUE(response->Has("error")) << "ok:false without error for: "
                                        << input;
    const JsonValue* error = *response->Get("error");
    if (response->Has("v")) {
      // v2 shape: structured code from the stable taxonomy + a message.
      ASSERT_TRUE(error->is_object())
          << "v2 error not structured for: " << input;
      ASSERT_TRUE(error->Has("code") && error->Has("message"))
          << "v2 error missing code/message for: " << input;
      auto code = (*error->Get("code"))->AsString();
      ASSERT_TRUE(code.ok()) << "error code not a string for: " << input;
      ASSERT_TRUE(client::ErrorCodeFromName(*code).has_value())
          << "unknown error code '" << *code << "' for: " << input;
      ASSERT_TRUE((*error->Get("message"))->is_string())
          << "error message not a string for: " << input;
    } else {
      // v1 legacy shape: the flat "<Code>: <message>" string.
      ASSERT_TRUE(error->is_string()) << "v1 error not a string for: " << input;
    }
  }

  // The id, when the request carried one, is echoed verbatim.
  auto request = JsonValue::Parse(input);
  if (request.ok() && request->is_object() && request->Has("id")) {
    ASSERT_TRUE(response->Has("id")) << "id not echoed for: " << input;
    EXPECT_EQ((*response->Get("id"))->ToString(),
              (*request->Get("id"))->ToString())
        << "id changed for: " << input;
  }
}

/// The tree path alone: what HandleRequestLine answered before the direct
/// query codec, and still answers for every line that codec does not take.
std::string TreeReference(const std::string& line, QueryEngine& engine,
                          RequestInfo* info) {
  auto request = JsonValue::Parse(line);
  if (!request.ok()) {
    info->error_code = client::ErrorCode::kMalformed;
    return ErrorResponseLine(client::ErrorCode::kMalformed,
                             request.status().message());
  }
  return HandleRequest(*request, engine, RequestContext{}, info).ToString();
}

/// Drops the stats payload's "store" array: its per-release load timings
/// differ between any two engines. (Its entries are flat objects, which is
/// what the golden-session harness relies on for the same strip.)
std::string WithoutStoreTimings(std::string response) {
  const size_t begin = response.find("\"store\":[");
  if (begin == std::string::npos) return response;
  const size_t end = response.find(']', begin);
  if (end == std::string::npos) return response;
  response.erase(begin, end + 1 - begin);
  return response;
}

class WireFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    QueryEngineOptions options;
    options.num_threads = 2;
    for (Twin* twin : {&served_, &reference_}) {
      twin->store = std::make_shared<ReleaseStore>();
      twin->engine = std::make_unique<QueryEngine>(twin->store, options);
      ASSERT_TRUE(twin->store->Publish("demo", DemoBundle(2015)).ok());
    }
  }

  /// Feeds one line to HandleRequestLine, checks the contract, and checks
  /// the response and request info against the tree reference. Republishes
  /// "demo" when a fuzzed drop actually removed it, so later query lines
  /// still have a live release to land on.
  void Feed(const std::string& line) {
    RequestInfo info;
    const std::string response =
        HandleRequestLine(line, *served_.engine, RequestContext{}, &info);
    CheckResponseContract(line, response);
    RequestInfo want;
    ASSERT_EQ(WithoutStoreTimings(response),
              WithoutStoreTimings(
                  TreeReference(line, *reference_.engine, &want)))
        << "direct path differs from the tree for: " << line;
    ASSERT_EQ(info.parsed, want.parsed) << line;
    ASSERT_EQ(info.ok, want.ok) << line;
    ASSERT_EQ(info.version, want.version) << line;
    ASSERT_EQ(info.pinned_epoch, want.pinned_epoch) << line;
    ASSERT_EQ(info.op, want.op) << line;
    ASSERT_EQ(info.error_code, want.error_code) << line;
    for (Twin* twin : {&served_, &reference_}) {
      if (!twin->store->Get("demo").ok()) {
        ASSERT_TRUE(twin->store->Publish("demo", DemoBundle(2015)).ok());
      }
    }
  }

  /// The engine under test and the reference's twin: both hold the same
  /// release and see the same lines, so their caches (and so the
  /// "cached" / hit / miss fields of every answer) stay in step.
  struct Twin {
    std::shared_ptr<ReleaseStore> store;
    std::unique_ptr<QueryEngine> engine;
  };
  Twin served_;
  Twin reference_;
};

TEST_F(WireFuzzTest, ValidCorpusSatisfiesContract) {
  for (const std::string& line : ValidCorpus()) Feed(line);
}

TEST_F(WireFuzzTest, MutatedCorpusNeverBreaksTheContract) {
  constexpr size_t kRounds = 300;
  Rng rng(HarnessSeed(0xF022EDB7u));
  const std::vector<std::string> corpus = ValidCorpus();
  for (size_t round = 0; round < kRounds; ++round) {
    for (const std::string& base : corpus) {
      Feed(MutateLine(base, rng));
      if (HasFatalFailure()) return;  // first failing input is enough
    }
  }
}

TEST_F(WireFuzzTest, DoublyMutatedLinesNeverBreakTheContract) {
  constexpr size_t kRounds = 150;
  Rng rng(HarnessSeed(0xD06F00Du));
  const std::vector<std::string> corpus = ValidCorpus();
  for (size_t round = 0; round < kRounds; ++round) {
    const std::string& base = corpus[rng.NextUint64(corpus.size())];
    Feed(MutateLine(MutateLine(base, rng), rng));
    if (HasFatalFailure()) return;
  }
}

TEST_F(WireFuzzTest, IntegralWireFieldsAreExactAboveTwoToThe53) {
  // A schema request pinned to an epoch above 2^53 must come back as a
  // STALE_EPOCH-class error naming a different epoch — never succeed
  // because the requested epoch rounded down to the published one, and
  // never crash. 9007199254740993 (2^53 + 1) rounds to 2^53 in a double.
  const std::string line =
      R"({"v":2,"id":1,"op":"schema","release":"demo","epoch":9007199254740993})";
  auto response = JsonValue::Parse(HandleRequestLine(line, *served_.engine));
  ASSERT_TRUE(response.ok());
  EXPECT_FALSE(*(*response->Get("ok"))->AsBool());

  // Non-exact syntax for the same magnitude (1e18, an integral double) is
  // rejected outright: the codec refuses to guess which integer was meant.
  const std::string sloppy =
      R"({"v":2,"id":2,"op":"schema","release":"demo","epoch":1e18})";
  response = JsonValue::Parse(HandleRequestLine(sloppy, *served_.engine));
  ASSERT_TRUE(response.ok());
  EXPECT_FALSE(*(*response->Get("ok"))->AsBool());
  auto code = (*(*response->Get("error"))->Get("code"))->AsString();
  ASSERT_TRUE(code.ok());
  EXPECT_EQ(*code, "INVALID_REQUEST");

  // The id survives byte-for-byte even at UINT64_MAX.
  const std::string huge_id = R"({"v":2,"id":18446744073709551615,"op":"list"})";
  response = JsonValue::Parse(HandleRequestLine(huge_id, *served_.engine));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ((*response->Get("id"))->ToString(), "18446744073709551615");
}

TEST_F(WireFuzzTest, EmptyAndWhitespaceLines) {
  // ServeLines skips blanks; HandleRequestLine itself must still answer
  // structurally if handed one.
  for (const std::string line : {"", " ", "\t", "   \t "}) {
    Feed(line);
  }
}

}  // namespace
}  // namespace recpriv::serve
