#include "workload/scenario.h"

#include <fstream>
#include <sstream>
#include <utility>

namespace recpriv::workload {

namespace {

// Field access via the shared common/json.h Require* helpers: explicit
// errors per missing/mistyped field so a hand-edited scenario file fails
// loudly, with the same wording as every other codec in the tree.

Result<size_t> RequireSize(const JsonValue& obj, const std::string& key) {
  RECPRIV_ASSIGN_OR_RETURN(int64_t v, RequireInt(obj, key));
  if (v < 0) {
    return Status::InvalidArgument("'" + key + "' must be >= 0");
  }
  return size_t(v);
}

JsonValue ReleaseToJson(const SyntheticReleaseSpec& r) {
  JsonValue out = JsonValue::Object();
  out.Set("name", JsonValue::String(r.name));
  out.Set("data_seed", JsonValue::Int(int64_t(r.data_seed)));
  out.Set("records", JsonValue::Int(int64_t(r.records)));
  JsonValue domains = JsonValue::Array();
  for (size_t d : r.public_domains) domains.Append(JsonValue::Int(int64_t(d)));
  out.Set("public_domains", std::move(domains));
  out.Set("sa_domain", JsonValue::Int(int64_t(r.sa_domain)));
  out.Set("retention_p", JsonValue::Number(r.retention_p));
  out.Set("na_skew", JsonValue::Number(r.na_skew));
  out.Set("sa_skew", JsonValue::Number(r.sa_skew));
  return out;
}

Result<SyntheticReleaseSpec> ReleaseFromJson(const JsonValue& json) {
  if (!json.is_object()) {
    return Status::InvalidArgument("release spec must be an object");
  }
  SyntheticReleaseSpec r;
  RECPRIV_ASSIGN_OR_RETURN(r.name, RequireString(json, "name"));
  RECPRIV_ASSIGN_OR_RETURN(int64_t data_seed, RequireInt(json, "data_seed"));
  r.data_seed = uint64_t(data_seed);
  RECPRIV_ASSIGN_OR_RETURN(r.records, RequireSize(json, "records"));
  RECPRIV_ASSIGN_OR_RETURN(const JsonValue* domains,
                           json.Get("public_domains"));
  if (!domains->is_array()) {
    return Status::InvalidArgument("'public_domains' must be an array");
  }
  r.public_domains.clear();
  for (size_t i = 0; i < domains->size(); ++i) {
    RECPRIV_ASSIGN_OR_RETURN(const JsonValue* d, domains->At(i));
    RECPRIV_ASSIGN_OR_RETURN(int64_t size, d->AsInt());
    if (size < 1) {
      return Status::InvalidArgument("public domain sizes must be >= 1");
    }
    r.public_domains.push_back(size_t(size));
  }
  RECPRIV_ASSIGN_OR_RETURN(r.sa_domain, RequireSize(json, "sa_domain"));
  RECPRIV_ASSIGN_OR_RETURN(r.retention_p, RequireDouble(json, "retention_p"));
  RECPRIV_ASSIGN_OR_RETURN(r.na_skew, RequireDouble(json, "na_skew"));
  RECPRIV_ASSIGN_OR_RETURN(r.sa_skew, RequireDouble(json, "sa_skew"));
  return r;
}

/// "r<i>", built by appending: GCC 12 -O3 misreports `"r" + to_string(i)`
/// here as an overlapping copy (-Wrestrict).
std::string ReleaseName(size_t i) {
  std::string name = "r";
  return name += std::to_string(i);
}

}  // namespace

JsonValue ScenarioToJson(const ScenarioSpec& spec) {
  JsonValue out = JsonValue::Object();
  out.Set("schema", JsonValue::String("recpriv_scenario/v1"));
  out.Set("name", JsonValue::String(spec.name));
  out.Set("seed", JsonValue::Int(int64_t(spec.seed)));
  JsonValue releases = JsonValue::Array();
  for (const SyntheticReleaseSpec& r : spec.releases) {
    releases.Append(ReleaseToJson(r));
  }
  out.Set("releases", std::move(releases));
  out.Set("clients", JsonValue::Int(int64_t(spec.clients)));
  out.Set("ops_per_client", JsonValue::Int(int64_t(spec.ops_per_client)));
  out.Set("queries_per_request",
          JsonValue::Int(int64_t(spec.queries_per_request)));
  out.Set("hot_release_zipf", JsonValue::Number(spec.hot_release_zipf));
  out.Set("pinned_fraction", JsonValue::Number(spec.pinned_fraction));
  out.Set("burst_size", JsonValue::Int(int64_t(spec.burst_size)));
  out.Set("pacing_us", JsonValue::Int(spec.pacing_us));

  JsonValue mix = JsonValue::Object();
  JsonValue weights = JsonValue::Array();
  for (double w : spec.mix.dimensionality_weights) {
    weights.Append(JsonValue::Number(w));
  }
  mix.Set("dimensionality_weights", std::move(weights));
  mix.Set("value_skew",
          JsonValue::String(spec.mix.value_skew == ValueSkew::kZipf
                                ? "zipf"
                                : "uniform"));
  mix.Set("zipf_s", JsonValue::Number(spec.mix.zipf_s));
  out.Set("mix", std::move(mix));

  JsonValue churn = JsonValue::Object();
  churn.Set("writer_ops", JsonValue::Int(int64_t(spec.churn.writer_ops)));
  churn.Set("drop_every", JsonValue::Int(int64_t(spec.churn.drop_every)));
  churn.Set("pacing_us", JsonValue::Int(spec.churn.pacing_us));
  out.Set("churn", std::move(churn));

  // Emitted only when the scenario actually uses QoS features, so files
  // written before this block and files written after are byte-identical
  // for QoS-free scenarios.
  if (spec.qos.abusive_clients > 0 || !spec.qos.tenant.empty() ||
      spec.qos.deadline_ms > 0) {
    JsonValue qos = JsonValue::Object();
    qos.Set("abusive_clients", JsonValue::Int(int64_t(spec.qos.abusive_clients)));
    qos.Set("abusive_ops_multiplier",
            JsonValue::Int(int64_t(spec.qos.abusive_ops_multiplier)));
    qos.Set("abusive_tenant", JsonValue::String(spec.qos.abusive_tenant));
    qos.Set("tenant", JsonValue::String(spec.qos.tenant));
    qos.Set("deadline_ms", JsonValue::Int(spec.qos.deadline_ms));
    out.Set("qos", std::move(qos));
  }
  return out;
}

Result<ScenarioSpec> ScenarioFromJson(const JsonValue& json) {
  if (!json.is_object()) {
    return Status::InvalidArgument("scenario must be a JSON object");
  }
  RECPRIV_ASSIGN_OR_RETURN(std::string schema, RequireString(json, "schema"));
  if (schema != "recpriv_scenario/v1") {
    return Status::InvalidArgument("unsupported scenario schema '" + schema +
                                   "'");
  }
  ScenarioSpec spec;
  RECPRIV_ASSIGN_OR_RETURN(spec.name, RequireString(json, "name"));
  RECPRIV_ASSIGN_OR_RETURN(int64_t seed, RequireInt(json, "seed"));
  spec.seed = uint64_t(seed);
  RECPRIV_ASSIGN_OR_RETURN(const JsonValue* releases, json.Get("releases"));
  if (!releases->is_array() || releases->size() == 0) {
    return Status::InvalidArgument("'releases' must be a non-empty array");
  }
  spec.releases.clear();
  for (size_t i = 0; i < releases->size(); ++i) {
    RECPRIV_ASSIGN_OR_RETURN(const JsonValue* r, releases->At(i));
    RECPRIV_ASSIGN_OR_RETURN(SyntheticReleaseSpec release,
                             ReleaseFromJson(*r));
    spec.releases.push_back(std::move(release));
  }
  RECPRIV_ASSIGN_OR_RETURN(spec.clients, RequireSize(json, "clients"));
  RECPRIV_ASSIGN_OR_RETURN(spec.ops_per_client,
                           RequireSize(json, "ops_per_client"));
  RECPRIV_ASSIGN_OR_RETURN(spec.queries_per_request,
                           RequireSize(json, "queries_per_request"));
  RECPRIV_ASSIGN_OR_RETURN(spec.hot_release_zipf,
                           RequireDouble(json, "hot_release_zipf"));
  RECPRIV_ASSIGN_OR_RETURN(spec.pinned_fraction,
                           RequireDouble(json, "pinned_fraction"));
  RECPRIV_ASSIGN_OR_RETURN(spec.burst_size, RequireSize(json, "burst_size"));
  RECPRIV_ASSIGN_OR_RETURN(int64_t pacing, RequireInt(json, "pacing_us"));
  spec.pacing_us = int(pacing);

  RECPRIV_ASSIGN_OR_RETURN(const JsonValue* mix, json.Get("mix"));
  if (!mix->is_object()) {
    return Status::InvalidArgument("'mix' must be an object");
  }
  RECPRIV_ASSIGN_OR_RETURN(const JsonValue* weights,
                           mix->Get("dimensionality_weights"));
  if (!weights->is_array() || weights->size() == 0) {
    return Status::InvalidArgument(
        "'dimensionality_weights' must be a non-empty array");
  }
  spec.mix.dimensionality_weights.clear();
  for (size_t i = 0; i < weights->size(); ++i) {
    RECPRIV_ASSIGN_OR_RETURN(const JsonValue* w, weights->At(i));
    RECPRIV_ASSIGN_OR_RETURN(double weight, w->AsDouble());
    spec.mix.dimensionality_weights.push_back(weight);
  }
  RECPRIV_ASSIGN_OR_RETURN(std::string skew, RequireString(*mix, "value_skew"));
  if (skew == "uniform") {
    spec.mix.value_skew = ValueSkew::kUniform;
  } else if (skew == "zipf") {
    spec.mix.value_skew = ValueSkew::kZipf;
  } else {
    return Status::InvalidArgument("'value_skew' must be uniform or zipf");
  }
  RECPRIV_ASSIGN_OR_RETURN(spec.mix.zipf_s, RequireDouble(*mix, "zipf_s"));

  RECPRIV_ASSIGN_OR_RETURN(const JsonValue* churn, json.Get("churn"));
  if (!churn->is_object()) {
    return Status::InvalidArgument("'churn' must be an object");
  }
  RECPRIV_ASSIGN_OR_RETURN(spec.churn.writer_ops,
                           RequireSize(*churn, "writer_ops"));
  RECPRIV_ASSIGN_OR_RETURN(spec.churn.drop_every,
                           RequireSize(*churn, "drop_every"));
  RECPRIV_ASSIGN_OR_RETURN(int64_t churn_pacing,
                           RequireInt(*churn, "pacing_us"));
  spec.churn.pacing_us = int(churn_pacing);

  if (json.Has("qos")) {  // optional: pre-QoS scenario files lack it
    RECPRIV_ASSIGN_OR_RETURN(const JsonValue* qos, json.Get("qos"));
    if (!qos->is_object()) {
      return Status::InvalidArgument("'qos' must be an object");
    }
    RECPRIV_ASSIGN_OR_RETURN(spec.qos.abusive_clients,
                             RequireSize(*qos, "abusive_clients"));
    RECPRIV_ASSIGN_OR_RETURN(spec.qos.abusive_ops_multiplier,
                             RequireSize(*qos, "abusive_ops_multiplier"));
    if (spec.qos.abusive_ops_multiplier == 0) {
      return Status::InvalidArgument("'abusive_ops_multiplier' must be >= 1");
    }
    RECPRIV_ASSIGN_OR_RETURN(spec.qos.abusive_tenant,
                             RequireString(*qos, "abusive_tenant"));
    RECPRIV_ASSIGN_OR_RETURN(spec.qos.tenant, RequireString(*qos, "tenant"));
    RECPRIV_ASSIGN_OR_RETURN(spec.qos.deadline_ms,
                             RequireInt(*qos, "deadline_ms"));
    if (spec.qos.deadline_ms < 0) {
      return Status::InvalidArgument("'deadline_ms' must be >= 0");
    }
  }
  return spec;
}

Status SaveScenario(const ScenarioSpec& spec, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return Status::IOError("cannot write scenario file " + path);
  }
  out << ScenarioToJson(spec).ToString(2) << "\n";
  return out.good() ? Status::OK()
                    : Status::IOError("write failed for " + path);
}

Result<ScenarioSpec> LoadScenario(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::IOError("cannot read scenario file " + path);
  }
  std::ostringstream text;
  text << in.rdbuf();
  RECPRIV_ASSIGN_OR_RETURN(JsonValue json, JsonValue::Parse(text.str()));
  return ScenarioFromJson(json);
}

std::vector<std::string> BuiltinScenarioNames() {
  return {"steady_uniform", "hot_release_zipf", "burst_same_release",
          "republish_churn", "pin_heavy", "abusive_tenant"};
}

Result<ScenarioSpec> BuiltinScenario(const std::string& name, uint64_t seed) {
  ScenarioSpec spec;
  spec.name = name;
  spec.seed = seed;

  SyntheticReleaseSpec base;
  base.records = 3000;
  base.public_domains = {4, 8};
  base.sa_domain = 3;

  if (name == "steady_uniform") {
    for (size_t i = 0; i < 2; ++i) {
      SyntheticReleaseSpec r = base;
      r.name = ReleaseName(i);
      r.data_seed = seed + i;
      spec.releases.push_back(std::move(r));
    }
    spec.clients = 4;
    spec.ops_per_client = 40;
    return spec;
  }
  if (name == "hot_release_zipf") {
    for (size_t i = 0; i < 4; ++i) {
      SyntheticReleaseSpec r = base;
      r.name = ReleaseName(i);
      r.data_seed = seed + i;
      r.na_skew = 1.0;  // hot cells inside the releases, too
      spec.releases.push_back(std::move(r));
    }
    spec.clients = 6;
    spec.ops_per_client = 40;
    spec.hot_release_zipf = 1.5;
    spec.mix.value_skew = ValueSkew::kZipf;
    return spec;
  }
  if (name == "burst_same_release") {
    SyntheticReleaseSpec r = base;
    r.name = "hot";
    r.data_seed = seed;
    r.records = 20000;
    r.public_domains = {8, 32, 16};
    spec.releases.push_back(std::move(r));
    spec.clients = 8;
    spec.ops_per_client = 60;
    spec.burst_size = 16;
    spec.pacing_us = 200;
    // Broad queries: mostly 0- and 1-dimensional predicates, the regime
    // where fusing a burst into one index pass pays the most.
    spec.mix.dimensionality_weights = {3.0, 2.0, 1.0};
    return spec;
  }
  if (name == "republish_churn") {
    for (size_t i = 0; i < 2; ++i) {
      SyntheticReleaseSpec r = base;
      r.name = ReleaseName(i);
      r.data_seed = seed + i;
      spec.releases.push_back(std::move(r));
    }
    spec.clients = 6;
    spec.ops_per_client = 50;
    spec.pinned_fraction = 0.5;
    spec.churn.writer_ops = 30;
    spec.churn.drop_every = 5;
    spec.churn.pacing_us = 300;
    return spec;
  }
  if (name == "abusive_tenant") {
    // One shared release everyone hammers: two "abuser" clients at 6x
    // volume with no pacing, four paced "victim" clients. Without quotas
    // the abusers monopolize the pool; with tenant_quota_qps set their
    // excess is rejected RESOURCE_EXHAUSTED and victim latency recovers
    // (bench/bench_serve_qos.cc gates exactly that).
    SyntheticReleaseSpec r = base;
    r.name = "shared";
    r.data_seed = seed;
    r.records = 10000;
    r.public_domains = {8, 16};
    spec.releases.push_back(std::move(r));
    spec.clients = 6;
    spec.ops_per_client = 30;
    spec.pacing_us = 200;
    spec.mix.dimensionality_weights = {2.0, 2.0, 1.0};
    spec.qos.abusive_clients = 2;
    spec.qos.abusive_ops_multiplier = 6;
    spec.qos.abusive_tenant = "abuser";
    spec.qos.tenant = "victim";
    return spec;
  }
  if (name == "pin_heavy") {
    SyntheticReleaseSpec r = base;
    r.name = "pinned";
    r.data_seed = seed;
    spec.releases.push_back(std::move(r));
    spec.clients = 6;
    spec.ops_per_client = 50;
    spec.pinned_fraction = 1.0;
    spec.churn.writer_ops = 25;
    spec.churn.pacing_us = 300;
    return spec;
  }
  return Status::NotFound("unknown builtin scenario '" + name +
                          "' (see BuiltinScenarioNames)");
}

}  // namespace recpriv::workload
