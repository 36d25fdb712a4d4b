#include "serve/service.h"

#include <chrono>
#include <utility>

#include "common/timer.h"
#include "query/count_query.h"
#include "serve/admission.h"
#include "table/predicate.h"

namespace recpriv::serve {

using recpriv::analysis::ReleaseBundle;
using recpriv::query::CountQuery;
using recpriv::table::Predicate;
using recpriv::table::Schema;

namespace {

client::ReleaseDescriptor ToDescriptor(const ReleaseInfo& info) {
  client::ReleaseDescriptor d;
  d.name = info.name;
  d.epoch = info.epoch;
  d.num_records = info.num_records;
  d.num_groups = info.num_groups;
  d.retained_epochs = info.retained_epochs;
  d.oldest_epoch = info.oldest_epoch;
  return d;
}

Result<SnapshotPtr> ResolveSnapshot(QueryEngine& engine,
                                    const std::string& release,
                                    std::optional<uint64_t> epoch) {
  if (epoch.has_value()) return engine.store().Get(release, *epoch);
  return engine.store().Get(release);
}

/// Binds one string-level QuerySpec against the release schema.
Result<CountQuery> ResolveQuery(const client::QuerySpec& spec,
                                const Schema& schema) {
  CountQuery q(schema.num_attributes());
  RECPRIV_ASSIGN_OR_RETURN(q.na_predicate,
                           Predicate::FromBindings(schema, spec.where));
  if (q.na_predicate.is_bound(schema.sensitive_index())) {
    return Status::InvalidArgument(
        "'where' must not constrain the sensitive attribute; use 'sa'");
  }
  q.dimensionality = q.na_predicate.num_bound();
  RECPRIV_ASSIGN_OR_RETURN(q.sa_code,
                           schema.sensitive().domain.GetCode(spec.sa));
  return q;
}

}  // namespace

Result<std::vector<client::ReleaseDescriptor>> ListReleases(
    QueryEngine& engine) {
  std::vector<client::ReleaseDescriptor> out;
  for (const ReleaseInfo& info : engine.store().List()) {
    out.push_back(ToDescriptor(info));
  }
  return out;
}

Result<client::BatchAnswer> ExecuteQuery(QueryEngine& engine,
                                         const client::QueryRequest& request) {
  const std::string& tenant =
      request.tenant.empty() ? kDefaultTenant : request.tenant;
  // Admission first: an over-quota tenant must be rejected before its
  // request costs a snapshot pin, query resolution, or a pool slot.
  AdmissionController* admission = engine.admission();
  if (admission != nullptr &&
      !admission->Admit(tenant, request.queries.size())) {
    return Status::ResourceExhausted(
        "tenant '" + tenant + "' is over its query quota; retry later");
  }
  Deadline deadline;
  if (request.deadline_ms.has_value()) {
    deadline = std::chrono::steady_clock::now() +
               std::chrono::milliseconds(*request.deadline_ms);
  }

  RECPRIV_ASSIGN_OR_RETURN(
      SnapshotPtr snap, ResolveSnapshot(engine, request.release, request.epoch));
  const Schema& schema = *snap->bundle.data.schema();

  std::vector<CountQuery> batch;
  batch.reserve(request.queries.size());
  for (const client::QuerySpec& spec : request.queries) {
    RECPRIV_ASSIGN_OR_RETURN(CountQuery q, ResolveQuery(spec, schema));
    batch.push_back(std::move(q));
  }

  // Evaluate against the same snapshot the codes were resolved with: a
  // republish between our Get and evaluation must not remap the codes.
  // The engine fast-fails the batch if the deadline passes before it
  // reaches the pool; that shed is counted against the tenant.
  Result<BatchResult> answered =
      engine.AnswerBatch(request.release, snap, batch, deadline);
  if (!answered.ok()) {
    if (admission != nullptr &&
        answered.status().code() == StatusCode::kDeadlineExceeded) {
      admission->CountShed(tenant);
    }
    return answered.status();
  }
  BatchResult result = std::move(*answered);
  client::BatchAnswer out;
  out.release = request.release;
  out.epoch = result.epoch;
  out.cache_hits = result.cache_hits;
  out.cache_misses = result.cache_misses;
  out.answers.reserve(result.answers.size());
  for (const Answer& a : result.answers) {
    out.answers.push_back(
        client::AnswerRow{a.observed, a.matched_size, a.estimate, a.cached});
  }
  return out;
}

Result<client::ReleaseSchema> DescribeRelease(QueryEngine& engine,
                                              const std::string& release,
                                              std::optional<uint64_t> epoch) {
  RECPRIV_ASSIGN_OR_RETURN(SnapshotPtr snap,
                           ResolveSnapshot(engine, release, epoch));
  const Schema& schema = *snap->bundle.data.schema();
  client::ReleaseSchema out;
  out.release = release;
  out.epoch = snap->epoch;
  out.attributes.reserve(schema.num_attributes());
  for (size_t a = 0; a < schema.num_attributes(); ++a) {
    client::AttributeInfo attr;
    attr.name = schema.attribute(a).name;
    attr.sensitive = schema.is_sensitive(a);
    attr.values = schema.attribute(a).domain.values();
    out.attributes.push_back(std::move(attr));
  }
  return out;
}

Result<client::ServerStats> CollectStats(QueryEngine& engine) {
  client::ServerStats stats;
  stats.threads = engine.pool().num_threads();
  stats.cache = client::CacheStats{engine.cache().size(),
                                   engine.cache().capacity(),
                                   engine.cache().hits(),
                                   engine.cache().misses()};
  for (const ReleaseInfo& info : engine.store().List()) {
    stats.releases.push_back(ToDescriptor(info));
    client::StoreReleaseStats source;
    source.release = info.name;
    source.epoch = info.epoch;
    source.source = info.source_kind;
    source.open_ms = info.source_open_ms;
    source.parse_ms = info.source_parse_ms;
    source.build_ms = info.source_build_ms;
    source.bytes_mapped = info.source_bytes_mapped;
    stats.store.push_back(std::move(source));
  }
  stats.tenants = engine.tenant_stats();
  return stats;
}

Result<client::ReleaseDescriptor> PublishFromFile(
    QueryEngine& engine, const std::string& name,
    const std::string& basename) {
  WallTimer timer;
  RECPRIV_ASSIGN_OR_RETURN(ReleaseBundle bundle,
                           recpriv::analysis::LoadRelease(basename));
  recpriv::analysis::SnapshotSource source;
  source.kind = "csv";
  source.parse_ms = timer.Millis();
  ReleaseInfo info;
  RECPRIV_ASSIGN_OR_RETURN(
      SnapshotPtr snap, engine.store().PublishWithSource(
                            name, std::move(bundle), std::move(source), &info));
  (void)snap;
  return ToDescriptor(info);
}

Result<client::ReleaseDescriptor> PublishBundle(QueryEngine& engine,
                                                const std::string& name,
                                                ReleaseBundle bundle) {
  ReleaseInfo info;
  RECPRIV_ASSIGN_OR_RETURN(
      SnapshotPtr snap, engine.store().Publish(name, std::move(bundle), &info));
  (void)snap;
  return ToDescriptor(info);
}

Result<client::ReleaseDescriptor> DropRelease(QueryEngine& engine,
                                              const std::string& name) {
  RECPRIV_ASSIGN_OR_RETURN(ReleaseInfo info, engine.store().Drop(name));
  return ToDescriptor(info);
}

}  // namespace recpriv::serve
