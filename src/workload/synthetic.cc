#include "workload/synthetic.h"

#include <cmath>
#include <utility>

#include "common/random.h"
#include "core/reconstruction_privacy.h"
#include "perturb/uniform_perturbation.h"
#include "table/dictionary.h"
#include "table/schema.h"

namespace recpriv::workload {

using recpriv::table::Attribute;
using recpriv::table::Dictionary;
using recpriv::table::Schema;
using recpriv::table::SchemaPtr;
using recpriv::table::Table;

/// `prefix` followed by the decimal `n`.
std::string Numbered(std::string prefix, size_t n) {
  return prefix += std::to_string(n);
}

std::string AttributeName(size_t k) { return Numbered("A", k); }

std::string AttributeValue(size_t k, size_t v) {
  return Numbered(Numbered("a", k) + "_", v);
}

std::string SensitiveValue(size_t v) { return Numbered("s", v); }

std::vector<double> ZipfWeights(size_t n, double s) {
  std::vector<double> w(n, 1.0);
  if (s > 0.0) {
    for (size_t i = 0; i < n; ++i) {
      w[i] = 1.0 / std::pow(double(i + 1), s);
    }
  }
  return w;
}

namespace {

Result<SchemaPtr> MakeSchema(const SyntheticReleaseSpec& spec) {
  if (spec.public_domains.empty()) {
    return Status::InvalidArgument("spec needs at least one public attribute");
  }
  if (spec.sa_domain < 2) {
    return Status::InvalidArgument("SA domain must have m >= 2 values");
  }
  std::vector<Attribute> attributes;
  attributes.reserve(spec.public_domains.size() + 1);
  for (size_t k = 0; k < spec.public_domains.size(); ++k) {
    if (spec.public_domains[k] == 0) {
      return Status::InvalidArgument("public domain sizes must be >= 1");
    }
    std::vector<std::string> values;
    values.reserve(spec.public_domains[k]);
    for (size_t v = 0; v < spec.public_domains[k]; ++v) {
      values.push_back(AttributeValue(k, v));
    }
    RECPRIV_ASSIGN_OR_RETURN(Dictionary domain, Dictionary::FromValues(values));
    attributes.push_back(Attribute{AttributeName(k), std::move(domain)});
  }
  std::vector<std::string> sa_values;
  sa_values.reserve(spec.sa_domain);
  for (size_t v = 0; v < spec.sa_domain; ++v) {
    sa_values.push_back(SensitiveValue(v));
  }
  RECPRIV_ASSIGN_OR_RETURN(Dictionary sa_domain,
                           Dictionary::FromValues(sa_values));
  attributes.push_back(Attribute{kSensitiveName, std::move(sa_domain)});
  RECPRIV_ASSIGN_OR_RETURN(
      Schema schema, Schema::Make(std::move(attributes),
                                  /*sensitive_index=*/spec.public_domains.size()));
  return std::make_shared<Schema>(std::move(schema));
}

}  // namespace

Result<Table> MakeRawTable(const SyntheticReleaseSpec& spec) {
  RECPRIV_ASSIGN_OR_RETURN(SchemaPtr schema, MakeSchema(spec));
  Table raw(schema);
  raw.Reserve(spec.records);

  Rng rng(spec.data_seed);
  const size_t m = spec.sa_domain;
  std::vector<AliasSampler> na_samplers;
  na_samplers.reserve(spec.public_domains.size());
  for (size_t domain : spec.public_domains) {
    na_samplers.emplace_back(ZipfWeights(domain, spec.na_skew));
  }
  const AliasSampler sa_sampler(ZipfWeights(m, spec.sa_skew));

  std::vector<uint32_t> row(spec.public_domains.size() + 1);
  for (size_t r = 0; r < spec.records; ++r) {
    uint32_t na_sum = 0;
    for (size_t k = 0; k < na_samplers.size(); ++k) {
      row[k] = uint32_t(na_samplers[k].Sample(rng));
      na_sum += row[k];
    }
    // Rotate the SA distribution by the NA codes: different personal
    // groups carry genuinely different SA mixes, so reconstruction has
    // structure to recover rather than one global histogram.
    row.back() = uint32_t((sa_sampler.Sample(rng) + na_sum) % m);
    raw.AppendRowUnchecked(row);
  }
  return raw;
}

Result<std::vector<std::vector<uint32_t>>> MakeDeltaRows(
    const SyntheticReleaseSpec& spec, uint64_t delta_seed, size_t count) {
  if (spec.public_domains.empty()) {
    return Status::InvalidArgument("spec needs at least one public attribute");
  }
  if (spec.sa_domain < 2) {
    return Status::InvalidArgument("SA domain must have m >= 2 values");
  }
  Rng rng(delta_seed);
  const size_t m = spec.sa_domain;
  std::vector<AliasSampler> na_samplers;
  na_samplers.reserve(spec.public_domains.size());
  for (size_t domain : spec.public_domains) {
    na_samplers.emplace_back(ZipfWeights(domain, spec.na_skew));
  }
  const AliasSampler sa_sampler(ZipfWeights(m, spec.sa_skew));

  std::vector<std::vector<uint32_t>> rows;
  rows.reserve(count);
  std::vector<uint32_t> row(spec.public_domains.size() + 1);
  for (size_t r = 0; r < count; ++r) {
    uint32_t na_sum = 0;
    for (size_t k = 0; k < na_samplers.size(); ++k) {
      row[k] = uint32_t(na_samplers[k].Sample(rng));
      na_sum += row[k];
    }
    row.back() = uint32_t((sa_sampler.Sample(rng) + na_sum) % m);
    rows.push_back(row);
  }
  return rows;
}

Result<recpriv::analysis::ReleaseBundle> MakeBundle(
    const SyntheticReleaseSpec& spec, uint64_t perturb_seed) {
  RECPRIV_ASSIGN_OR_RETURN(Table raw, MakeRawTable(spec));

  recpriv::core::PrivacyParams params;
  params.retention_p = spec.retention_p;
  params.domain_m = spec.sa_domain;
  RECPRIV_RETURN_NOT_OK(params.Validate());

  recpriv::perturb::UniformPerturbation up{spec.retention_p, spec.sa_domain};
  Rng rng(perturb_seed);
  RECPRIV_ASSIGN_OR_RETURN(Table perturbed,
                           recpriv::perturb::PerturbTable(up, raw, rng));
  return recpriv::analysis::ReleaseBundle{std::move(perturbed), params,
                                          kSensitiveName, {}};
}

}  // namespace recpriv::workload
