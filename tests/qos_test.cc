// Multi-tenant QoS and overload robustness: per-tenant token-bucket
// admission (serve/admission.h), deadline propagation and shedding
// through the engine, the RESOURCE_EXHAUSTED / DEADLINE_EXCEEDED taxonomy
// identical across both client backends, the "tenants" stats section
// over the wire, the retry/backoff layer (client/retry.h), fault-injected
// transports recovering answer-clean under retry, and the workload
// scenario QoS block's JSON contract.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "client/api.h"
#include "client/in_process_client.h"
#include "client/line_protocol_client.h"
#include "client/retry.h"
#include "common/json.h"
#include "common/random.h"
#include "core/sps.h"
#include "datagen/simple.h"
#include "net/fault_injector.h"
#include "serve/admission.h"
#include "serve/query_engine.h"
#include "serve/release_store.h"
#include "serve/wire.h"
#include "workload/driver.h"
#include "workload/generator.h"
#include "workload/scenario.h"

namespace recpriv::client {
namespace {

using recpriv::analysis::ReleaseBundle;
using recpriv::core::PrivacyParams;
using recpriv::datagen::GroupSpec;
using recpriv::datagen::SimpleDatasetSpec;
using recpriv::serve::AdmissionController;
using recpriv::serve::AdmissionOptions;
using recpriv::serve::QueryEngine;
using recpriv::serve::QueryEngineOptions;
using recpriv::serve::ReleaseStore;
using recpriv::table::Table;

// --- fixtures (the client_test "simple" release, QoS-enabled engine) -------

SimpleDatasetSpec MakeSpec() {
  SimpleDatasetSpec spec;
  spec.public_attributes = {"Job", "City"};
  spec.sensitive_attribute = "Disease";
  spec.sa_domain = {"flu", "hiv", "bc"};
  spec.groups.push_back(GroupSpec{{"eng", "north"}, 2000, {70, 20, 10}});
  spec.groups.push_back(GroupSpec{{"law", "south"}, 1000, {20, 30, 50}});
  return spec;
}

ReleaseBundle MakeBundle(uint64_t seed = 2015) {
  Table raw = *recpriv::datagen::GenerateSimpleExact(MakeSpec());
  PrivacyParams params;
  params.domain_m = raw.schema()->sa_domain_size();
  Rng rng(seed);
  auto sps = *recpriv::core::SpsPerturbTable(params, raw, rng);
  return ReleaseBundle{std::move(sps.table), params, "Disease", {}};
}

struct Backends {
  std::shared_ptr<ReleaseStore> store;
  std::shared_ptr<QueryEngine> engine;
  std::unique_ptr<InProcessClient> embedded;
  std::unique_ptr<LineProtocolClient> remote;
};

Backends MakeBackends(QueryEngineOptions options = {}) {
  Backends b;
  b.store = std::make_shared<ReleaseStore>(2);
  b.engine = std::make_shared<QueryEngine>(b.store, options);
  b.embedded = std::make_unique<InProcessClient>(b.engine);
  b.remote = std::make_unique<LineProtocolClient>(
      std::make_unique<LoopbackTransport>(*b.engine));
  EXPECT_TRUE(b.embedded->PublishBundle("simple", MakeBundle()).ok());
  return b;
}

QueryRequest SimpleRequest() {
  QueryRequest req;
  req.release = "simple";
  req.queries.push_back(QuerySpec{{{"Job", "eng"}}, "flu"});
  return req;
}

// --- admission: token-bucket semantics --------------------------------------

TEST(AdmissionTest, BucketStartsFullAndRejectsWhenDrained) {
  // qps so slow the bucket cannot measurably refill during the test.
  AdmissionController ctl({/*quota_qps=*/0.001, /*quota_burst=*/5});
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(ctl.Admit("t", 1)) << "query " << i;
  }
  EXPECT_FALSE(ctl.Admit("t", 1));
  auto stats = ctl.Stats();
  EXPECT_EQ(stats.tenants.at("t").admitted, 5u);
  EXPECT_EQ(stats.tenants.at("t").rejected, 1u);
  EXPECT_EQ(stats.tenants.at("t").shed, 0u);
}

TEST(AdmissionTest, BatchesChargeOneTokenPerQuery) {
  AdmissionController ctl({0.001, 10});
  EXPECT_TRUE(ctl.Admit("t", 7));   // 3 tokens left
  EXPECT_FALSE(ctl.Admit("t", 4));  // needs 4
  EXPECT_TRUE(ctl.Admit("t", 3));
  // An empty batch still costs one token (it still occupies the pipeline).
  AdmissionController empty({0.001, 1});
  EXPECT_TRUE(empty.Admit("t", 0));
  EXPECT_FALSE(empty.Admit("t", 0));
}

TEST(AdmissionTest, BurstDefaultsToMaxOfQpsAndOne) {
  // burst <= 0 resolves to max(quota_qps, 1): a 3 q/s tenant gets a
  // 3-token bucket...
  AdmissionController ctl({/*quota_qps=*/3.0, /*quota_burst=*/0});
  EXPECT_TRUE(ctl.Admit("t", 3));
  EXPECT_FALSE(ctl.Admit("t", 1));
  // ...and a sub-1 q/s tenant still gets one whole token.
  AdmissionController slow({0.5, 0});
  EXPECT_TRUE(slow.Admit("t", 1));
  EXPECT_FALSE(slow.Admit("t", 1));
}

TEST(AdmissionTest, BucketRefillsAtQpsAndCapsAtBurst) {
  // 1000 q/s, 2-deep: drained, then a few ms restores the full burst —
  // but never more than burst.
  AdmissionController ctl({1000.0, 2});
  EXPECT_TRUE(ctl.Admit("t", 2));
  EXPECT_FALSE(ctl.Admit("t", 1));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_TRUE(ctl.Admit("t", 2));   // refilled to the 2-token cap
  EXPECT_FALSE(ctl.Admit("t", 1));  // ...and no further
}

TEST(AdmissionTest, TenantsAreIsolated) {
  AdmissionController ctl({0.001, 2});
  EXPECT_TRUE(ctl.Admit("a", 2));
  EXPECT_FALSE(ctl.Admit("a", 1));
  // Draining a's bucket leaves b's untouched.
  EXPECT_TRUE(ctl.Admit("b", 2));
}

TEST(AdmissionTest, TenantMapIsBoundedByOverflowBucket) {
  AdmissionOptions options;
  options.quota_qps = 0.001;
  options.quota_burst = 2;
  options.max_tenants = 2;
  AdmissionController ctl(options);
  EXPECT_TRUE(ctl.Admit("a", 1));
  EXPECT_TRUE(ctl.Admit("b", 1));
  // c and d arrive past the cap: both account to the shared "(other)"
  // bucket, so an adversary inventing names cannot grow the map.
  EXPECT_TRUE(ctl.Admit("c", 2));
  EXPECT_FALSE(ctl.Admit("d", 1));  // c already drained the shared bucket
  auto stats = ctl.Stats();
  EXPECT_EQ(stats.tenants.size(), 3u);  // a, b, "(other)"
  ASSERT_TRUE(stats.tenants.count(recpriv::serve::kOverflowTenant));
  EXPECT_EQ(stats.tenants.at(recpriv::serve::kOverflowTenant).admitted, 1u);
  EXPECT_EQ(stats.tenants.at(recpriv::serve::kOverflowTenant).rejected, 1u);
}

TEST(AdmissionTest, CountShedIsTracked) {
  AdmissionController ctl({100.0, 10});
  ctl.CountShed("t");
  ctl.CountShed("t");
  EXPECT_EQ(ctl.Stats().tenants.at("t").shed, 2u);
}

// --- deadlines: expiry semantics and shedding -------------------------------

TEST(DeadlineTest, ExpiryIsAbsentPastOrFuture) {
  using recpriv::serve::Deadline;
  using recpriv::serve::DeadlineExpired;
  EXPECT_FALSE(DeadlineExpired(Deadline{}));
  const auto now = std::chrono::steady_clock::now();
  EXPECT_TRUE(DeadlineExpired(Deadline{now - std::chrono::milliseconds(1)}));
  EXPECT_FALSE(DeadlineExpired(Deadline{now + std::chrono::hours(1)}));
}

TEST(DeadlineTest, ZeroBudgetIsShedIdenticallyOnBothBackends) {
  // deadline_ms = 0 anchors the deadline at service entry, so the batch is
  // deterministically past-due: DEADLINE_EXCEEDED from both backends,
  // byte-identical Status, and the shed is counted against the tenant.
  QueryEngineOptions options;
  options.tenant_quota_qps = 1e6;  // admission on, never the limiter
  Backends b = MakeBackends(options);
  QueryRequest req = SimpleRequest();
  req.tenant = "t";
  req.deadline_ms = 0;

  auto embedded = b.embedded->Query(req);
  auto remote = b.remote->Query(req);
  ASSERT_FALSE(embedded.ok());
  ASSERT_FALSE(remote.ok());
  EXPECT_EQ(embedded.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(embedded.status(), remote.status())
      << "embedded: " << embedded.status() << " remote: " << remote.status();
  EXPECT_EQ(ErrorCodeFromStatus(remote.status()),
            ErrorCode::kDeadlineExceeded);

  auto stats = b.engine->tenant_stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->tenants.at("t").shed, 2u);  // one per backend
  EXPECT_EQ(stats->tenants.at("t").admitted, 2u);
}

TEST(DeadlineTest, GenerousBudgetAnswersNormally) {
  Backends b = MakeBackends();
  QueryRequest req = SimpleRequest();
  req.deadline_ms = 60000;
  auto with = b.remote->Query(req);
  ASSERT_TRUE(with.ok()) << with.status();
  req.deadline_ms.reset();
  auto without = b.remote->Query(req);
  ASSERT_TRUE(without.ok());
  EXPECT_EQ(with->answers[0].observed, without->answers[0].observed);
  EXPECT_DOUBLE_EQ(with->answers[0].estimate, without->answers[0].estimate);
}

// --- quotas through the full client surface ---------------------------------

TEST(QuotaTest, OverQuotaTenantIsRejectedIdenticallyOnBothBackends) {
  QueryEngineOptions options;
  options.tenant_quota_qps = 0.001;  // effectively no refill mid-test
  options.tenant_quota_burst = 2;
  Backends b = MakeBackends(options);
  QueryRequest req = SimpleRequest();
  req.tenant = "greedy";

  ASSERT_TRUE(b.embedded->Query(req).ok());
  ASSERT_TRUE(b.remote->Query(req).ok());
  auto embedded = b.embedded->Query(req);
  auto remote = b.remote->Query(req);
  ASSERT_FALSE(embedded.ok());
  ASSERT_FALSE(remote.ok());
  EXPECT_EQ(embedded.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(embedded.status(), remote.status())
      << "embedded: " << embedded.status() << " remote: " << remote.status();

  // An undeclared tenant accounts to "default", isolated from "greedy".
  EXPECT_TRUE(b.remote->Query(SimpleRequest()).ok());
}

TEST(QuotaTest, TenantStatsFlowThroughTheWireStatsOp) {
  QueryEngineOptions options;
  options.tenant_quota_qps = 0.001;
  options.tenant_quota_burst = 1;
  Backends b = MakeBackends(options);
  QueryRequest req = SimpleRequest();
  req.tenant = "t";
  ASSERT_TRUE(b.remote->Query(req).ok());
  ASSERT_FALSE(b.remote->Query(req).ok());

  auto stats = b.remote->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  ASSERT_TRUE(stats->tenants.has_value());
  EXPECT_DOUBLE_EQ(stats->tenants->quota_qps, 0.001);
  EXPECT_DOUBLE_EQ(stats->tenants->quota_burst, 1.0);
  ASSERT_TRUE(stats->tenants->tenants.count("t"));
  EXPECT_EQ(stats->tenants->tenants.at("t").admitted, 1u);
  EXPECT_EQ(stats->tenants->tenants.at("t").rejected, 1u);
  // The remote decode matches the engine's own counters field-for-field.
  auto direct = b.engine->tenant_stats();
  ASSERT_TRUE(direct.has_value());
  EXPECT_EQ(direct->tenants.at("t").admitted,
            stats->tenants->tenants.at("t").admitted);
}

TEST(QuotaTest, StatsSectionAbsentWhenQuotasDisabled) {
  // No quota configured: no admission controller, no "tenants" section on
  // the wire — so pre-QoS stats consumers (and golden transcripts) see
  // byte-identical responses.
  Backends b = MakeBackends();
  EXPECT_EQ(b.engine->tenant_stats(), std::nullopt);
  EXPECT_EQ(b.engine->admission(), nullptr);
  auto stats = b.remote->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_FALSE(stats->tenants.has_value());
}

// --- wire codec: tenant + deadline fields -----------------------------------

TEST(WireQosTest, TenantAndDeadlineRoundTripThroughTheCodec) {
  QueryRequest req = SimpleRequest();
  req.tenant = "acme";
  req.deadline_ms = 250;
  JsonValue encoded = recpriv::serve::wire::EncodeQueryRequest(req, 7);
  EXPECT_EQ((*encoded.Get("tenant"))->AsString().ValueOrDie(), "acme");
  EXPECT_EQ((*encoded.Get("deadline_ms"))->AsInt().ValueOrDie(), 250);

  // Legacy requests omit both fields entirely.
  JsonValue legacy =
      recpriv::serve::wire::EncodeQueryRequest(SimpleRequest(), 8);
  EXPECT_FALSE(legacy.Has("tenant"));
  EXPECT_FALSE(legacy.Has("deadline_ms"));
}

TEST(WireQosTest, MalformedQosFieldsAreInvalidRequests) {
  Backends b = MakeBackends();
  const char* cases[] = {
      R"({"v":2,"op":"query","release":"simple","deadline_ms":-5,"queries":[{"sa":"flu"}]})",
      R"({"v":2,"op":"query","release":"simple","deadline_ms":"soon","queries":[{"sa":"flu"}]})",
      R"({"v":2,"op":"query","release":"simple","tenant":7,"queries":[{"sa":"flu"}]})",
  };
  for (const char* line : cases) {
    JsonValue response = *JsonValue::Parse(
        recpriv::serve::HandleRequestLine(line, *b.engine));
    EXPECT_FALSE((*response.Get("ok"))->AsBool().ValueOrDie()) << line;
    EXPECT_EQ((*(*response.Get("error"))->Get("code"))->AsString().ValueOrDie(),
              ErrorCodeName(ErrorCode::kInvalidRequest))
        << line;
  }
}

TEST(WireQosTest, NewCodesRoundTripByName) {
  for (ErrorCode code :
       {ErrorCode::kResourceExhausted, ErrorCode::kDeadlineExceeded}) {
    auto back = ErrorCodeFromName(ErrorCodeName(code));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, code);
  }
  EXPECT_EQ(ErrorCodeName(ErrorCode::kResourceExhausted),
            "RESOURCE_EXHAUSTED");
  EXPECT_EQ(ErrorCodeName(ErrorCode::kDeadlineExceeded), "DEADLINE_EXCEEDED");
  // ...and through the Status taxonomy both ways.
  EXPECT_EQ(ErrorCodeFromStatus(Status::ResourceExhausted("m")),
            ErrorCode::kResourceExhausted);
  EXPECT_EQ(ErrorCodeFromStatus(Status::DeadlineExceeded("m")),
            ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(ApiError::FromStatus(Status::DeadlineExceeded("m")).ToStatus(),
            Status::DeadlineExceeded("m"));
}

// --- retry policy -----------------------------------------------------------

TEST(RetryPolicyTest, OnlyTransientCodesAreRetryable) {
  EXPECT_TRUE(IsRetryableCode(ErrorCode::kUnavailable));
  EXPECT_TRUE(IsRetryableCode(ErrorCode::kResourceExhausted));
  EXPECT_TRUE(IsRetryableCode(ErrorCode::kIoError));
  // Answer-bearing codes — the server ruled on the request — never retry,
  // and a dead deadline can never be met by trying again.
  EXPECT_FALSE(IsRetryableCode(ErrorCode::kDeadlineExceeded));
  EXPECT_FALSE(IsRetryableCode(ErrorCode::kNotFound));
  EXPECT_FALSE(IsRetryableCode(ErrorCode::kInvalidRequest));
  EXPECT_FALSE(IsRetryableCode(ErrorCode::kStaleEpoch));
  EXPECT_FALSE(IsRetryableCode(ErrorCode::kMalformed));
  EXPECT_FALSE(IsRetryableCode(ErrorCode::kOk));
}

/// Scripted Client: fails the next `failures` List() calls with `failure`,
/// then succeeds. Shared state lets the factory count rebuilds.
struct FlakyState {
  int failures = 0;
  Status failure = Status::OK();
  int clients_built = 0;
  int calls = 0;
};

class FlakyClient : public Client {
 public:
  explicit FlakyClient(std::shared_ptr<FlakyState> state)
      : state_(std::move(state)) {}

  Result<std::vector<ReleaseDescriptor>> List() override {
    ++state_->calls;
    if (state_->failures > 0) {
      --state_->failures;
      return state_->failure;
    }
    return std::vector<ReleaseDescriptor>{};
  }
  Result<BatchAnswer> Query(const QueryRequest&) override {
    return Status::Internal("unused");
  }
  Result<ReleaseSchema> GetSchema(const std::string&,
                                  std::optional<uint64_t>) override {
    return Status::Internal("unused");
  }
  Result<ServerStats> Stats() override { return Status::Internal("unused"); }
  Result<ReleaseDescriptor> Publish(const std::string&,
                                    const std::string&) override {
    return Status::Internal("unused");
  }
  Result<ReleaseDescriptor> Drop(const std::string&) override {
    return Status::Internal("unused");
  }

 private:
  std::shared_ptr<FlakyState> state_;
};

RetryPolicy FastPolicy() {
  RetryPolicy policy;
  policy.max_retries = 3;
  policy.initial_backoff_ms = 1;
  policy.max_backoff_ms = 2;
  return policy;
}

std::unique_ptr<RetryingClient> MakeRetrying(
    const std::shared_ptr<FlakyState>& state, RetryPolicy policy) {
  auto client = RetryingClient::Create(
      [state]() -> Result<std::unique_ptr<Client>> {
        ++state->clients_built;
        return std::unique_ptr<Client>(std::make_unique<FlakyClient>(state));
      },
      policy);
  EXPECT_TRUE(client.ok()) << client.status();
  return std::move(*client);
}

TEST(RetryingClientTest, TransientFailureIsRetriedWithReconnect) {
  auto state = std::make_shared<FlakyState>();
  state->failures = 2;
  state->failure = Status::Unavailable("flaky");
  auto client = MakeRetrying(state, FastPolicy());
  EXPECT_TRUE(client->List().ok());
  EXPECT_EQ(state->calls, 3);
  // UNAVAILABLE means dead transport: each retry rebuilt the inner client
  // (1 eager + 2 rebuilds).
  EXPECT_EQ(state->clients_built, 3);
  EXPECT_EQ(client->retry_stats().attempts, 3u);
  EXPECT_EQ(client->retry_stats().retries, 2u);
  EXPECT_EQ(client->retry_stats().retried_ok, 1u);
  EXPECT_EQ(client->retry_stats().reconnects, 2u);
  EXPECT_EQ(client->retry_stats().exhausted, 0u);
}

TEST(RetryingClientTest, QuotaRejectionBacksOffWithoutReconnect) {
  auto state = std::make_shared<FlakyState>();
  state->failures = 1;
  state->failure = Status::ResourceExhausted("over quota");
  auto client = MakeRetrying(state, FastPolicy());
  EXPECT_TRUE(client->List().ok());
  // The connection is fine — only the bucket needed time.
  EXPECT_EQ(state->clients_built, 1);
  EXPECT_EQ(client->retry_stats().reconnects, 0u);
  EXPECT_EQ(client->retry_stats().retried_ok, 1u);
}

TEST(RetryingClientTest, AnswerBearingErrorsReturnImmediately) {
  for (const Status& failure :
       {Status::NotFound("gone"), Status::DeadlineExceeded("late")}) {
    auto state = std::make_shared<FlakyState>();
    state->failures = 1;
    state->failure = failure;
    auto client = MakeRetrying(state, FastPolicy());
    auto result = client->List();
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status(), failure);
    EXPECT_EQ(state->calls, 1) << failure.ToString();
    EXPECT_EQ(client->retry_stats().retries, 0u);
  }
}

TEST(RetryingClientTest, ExhaustionSurfacesTheLastError) {
  auto state = std::make_shared<FlakyState>();
  state->failures = 100;  // never recovers within the budget
  state->failure = Status::Unavailable("down hard");
  auto client = MakeRetrying(state, FastPolicy());
  auto result = client->List();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(state->calls, 4);  // 1 + max_retries
  EXPECT_EQ(client->retry_stats().exhausted, 1u);
  EXPECT_EQ(client->retry_stats().retried_ok, 0u);
}

// --- fault injection end to end: faulted runs complete answer-clean --------

TEST(FaultTransportTest, DeadTransportStaysDeadUntilRebuilt) {
  Backends b = MakeBackends();
  net::FaultOptions fo;
  fo.drop_rate = 1.0;
  auto injector = std::make_shared<net::FaultInjector>(fo);
  LineProtocolClient faulty(std::make_unique<FaultInjectingTransport>(
      std::make_unique<LoopbackTransport>(*b.engine), injector));
  auto first = faulty.List();
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(first.status().message().find("fault injection"),
            std::string::npos);
  // A real dead socket does not resurrect either.
  EXPECT_FALSE(faulty.List().ok());
  EXPECT_GE(injector->Stats().drops, 1u);
}

TEST(FaultTransportTest, RetryLayerRecoversFromInjectedFaults) {
  // drop fires on roughly every third write: each session dies repeatedly
  // and the retry layer must rebuild it mid-stream, yet every request
  // ultimately succeeds against the engine.
  Backends b = MakeBackends();
  net::FaultOptions fo;
  fo.seed = 7;
  fo.drop_rate = 0.3;
  auto injector = std::make_shared<net::FaultInjector>(fo);
  // Deep retry budget: at 30% drop, runs of 4+ consecutive drops happen.
  RetryPolicy policy = FastPolicy();
  policy.max_retries = 6;
  auto client = RetryingClient::Create(
      [&]() -> Result<std::unique_ptr<Client>> {
        return std::unique_ptr<Client>(std::make_unique<LineProtocolClient>(
            std::make_unique<FaultInjectingTransport>(
                std::make_unique<LoopbackTransport>(*b.engine), injector)));
      },
      policy);
  ASSERT_TRUE(client.ok()) << client.status();
  for (int i = 0; i < 30; ++i) {
    auto answer = (*client)->Query(SimpleRequest());
    ASSERT_TRUE(answer.ok()) << "request " << i << ": " << answer.status();
  }
  EXPECT_GT(injector->Stats().drops, 0u);
  EXPECT_GT((*client)->retry_stats().reconnects, 0u);
  EXPECT_EQ((*client)->retry_stats().exhausted, 0u);
}

// --- workload scenario: the qos block's JSON contract -----------------------

namespace wl = recpriv::workload;

TEST(ScenarioQosTest, AbusiveTenantProfileRoundTripsLosslessly) {
  auto spec = wl::BuiltinScenario("abusive_tenant", 2015);
  ASSERT_TRUE(spec.ok()) << spec.status();
  EXPECT_EQ(spec->qos.abusive_clients, 2u);
  EXPECT_EQ(spec->qos.abusive_tenant, "abuser");
  EXPECT_EQ(spec->qos.tenant, "victim");
  const JsonValue json = wl::ScenarioToJson(*spec);
  EXPECT_TRUE(json.Has("qos"));
  auto parsed = wl::ScenarioFromJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(wl::ScenarioToJson(*parsed).ToString(2), json.ToString(2));
}

TEST(ScenarioQosTest, QosFreeSpecsStayByteCompatible) {
  // A spec with default QoS emits no "qos" key — pre-QoS scenario files
  // and their recorded JSON stay byte-identical — and a file without one
  // parses to the defaults.
  auto spec = wl::BuiltinScenario("steady_uniform", 3);
  ASSERT_TRUE(spec.ok());
  const JsonValue json = wl::ScenarioToJson(*spec);
  EXPECT_FALSE(json.Has("qos"));
  auto parsed = wl::ScenarioFromJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->qos.abusive_clients, 0u);
  EXPECT_TRUE(parsed->qos.tenant.empty());
  EXPECT_EQ(parsed->qos.deadline_ms, 0);
}

TEST(ScenarioQosTest, AbusersInflateOnlyTheirOwnStreams) {
  // Turning a client abusive lengthens its stream by the multiplier and
  // leaves every other client's op stream byte-identical — the generator
  // draws the extra ops from the abuser's own fork.
  auto base = wl::BuiltinScenario("abusive_tenant", 11);
  ASSERT_TRUE(base.ok());
  wl::ScenarioSpec calm = *base;
  calm.qos.abusive_clients = 0;

  auto abusive = wl::GenerateWorkload(*base);
  auto plain = wl::GenerateWorkload(calm);
  ASSERT_TRUE(abusive.ok());
  ASSERT_TRUE(plain.ok());
  ASSERT_EQ(abusive->client_ops.size(), plain->client_ops.size());
  for (size_t c = 0; c < abusive->client_ops.size(); ++c) {
    if (c < base->qos.abusive_clients) {
      EXPECT_EQ(abusive->client_ops[c].size(),
                base->ops_per_client * base->qos.abusive_ops_multiplier);
    } else {
      ASSERT_EQ(abusive->client_ops[c].size(), plain->client_ops[c].size());
      for (size_t i = 0; i < abusive->client_ops[c].size(); ++i) {
        EXPECT_EQ(abusive->client_ops[c][i].queries.size(),
                  plain->client_ops[c][i].queries.size())
            << "client " << c << " op " << i;
      }
    }
  }
}

// --- workload driver: quotas, faults + retry, end to end --------------------

TEST(DriverQosTest, QuotedAbuserIsRejectedWhileVictimsStayClean) {
  auto spec = wl::BuiltinScenario("abusive_tenant", 19);
  ASSERT_TRUE(spec.ok());
  spec->ops_per_client = 10;   // abusers still send 60 each (6x)
  spec->pacing_us = 10000;     // victims: ~400 q/s aggregate, under quota
  wl::DriverOptions options;
  options.engine.num_threads = 2;
  // Sized so the outcome is arithmetic, not timing: the victims' paced
  // ~400 q/s never drains a 500 q/s bucket, while the unpaced abusers
  // demand 120 queries against 20 of burst plus milliseconds of refill.
  options.engine.tenant_quota_qps = 500;
  options.engine.tenant_quota_burst = 20;
  auto report = wl::RunScenario(*spec, options);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->mismatches, 0u);
  EXPECT_EQ(report->hard_failures, 0u);
  EXPECT_EQ(report->unknown_epochs, 0u);
  // The only error a quota run may produce is the structured rejection.
  for (const auto& [code, count] : report->errors) {
    EXPECT_EQ(code, "RESOURCE_EXHAUSTED") << code << "=" << count;
  }
  ASSERT_TRUE(report->tenants.has_value());
  ASSERT_TRUE(report->tenants->tenants.count("abuser"));
  // The unpaced abusers burn their bucket far faster than it refills.
  EXPECT_GT(report->tenants->tenants.at("abuser").rejected, 0u);
  // Victims' latency profile is tracked under their declared tenant.
  ASSERT_TRUE(report->tenant_latency.count("victim"));
  EXPECT_GT(report->tenant_latency.at("victim").requests, 0u);
  EXPECT_EQ(report->tenant_latency.at("victim").errors, 0u);
}

TEST(DriverQosTest, FaultedRunWithRetryCompletesAnswerClean) {
  auto spec = wl::BuiltinScenario("steady_uniform", 23);
  ASSERT_TRUE(spec.ok());
  spec->clients = 3;
  spec->ops_per_client = 12;
  net::FaultOptions fo;
  fo.seed = 2015;
  fo.drop_rate = 0.05;
  fo.delay_rate = 0.05;
  fo.delay_ms = 2;
  wl::DriverOptions options;
  options.engine.num_threads = 2;
  options.fault_injector = std::make_shared<net::FaultInjector>(fo);
  options.retry = true;
  options.retry_policy = FastPolicy();
  auto report = wl::RunScenario(*spec, options);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->mismatches, 0u);
  EXPECT_EQ(report->hard_failures, 0u);
  EXPECT_TRUE(report->errors.empty());
  EXPECT_EQ(report->verified, report->requests);
  ASSERT_TRUE(report->faults.has_value());
  EXPECT_GT(report->faults->total(), 0u);
  ASSERT_TRUE(report->retry.has_value());
  EXPECT_GT(report->retry->retries, 0u);
  EXPECT_EQ(report->retry->exhausted, 0u);
}

TEST(DriverQosTest, FaultedTcpRunWithRetryCompletesAnswerClean) {
  // The same contract over real sockets, where faults are byte-level:
  // truncated lines, mid-line disconnects, split writes.
  auto spec = wl::BuiltinScenario("steady_uniform", 29);
  ASSERT_TRUE(spec.ok());
  spec->clients = 2;
  spec->ops_per_client = 10;
  net::FaultOptions fo;
  fo.seed = 2015;
  fo.drop_rate = 0.04;
  fo.truncate_rate = 0.04;
  fo.short_write_rate = 0.08;
  wl::DriverOptions options;
  options.engine.num_threads = 2;
  options.over_tcp = true;
  options.fault_injector = std::make_shared<net::FaultInjector>(fo);
  options.retry = true;
  options.retry_policy = FastPolicy();
  auto report = wl::RunScenario(*spec, options);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->mismatches, 0u);
  EXPECT_EQ(report->hard_failures, 0u);
  EXPECT_TRUE(report->errors.empty());
  EXPECT_EQ(report->verified, report->requests);
  ASSERT_TRUE(report->faults.has_value());
  EXPECT_GT(report->faults->total(), 0u);
}

}  // namespace
}  // namespace recpriv::client
