// recpriv_publish — the command-line publisher: CSV in, privacy-enforced
// CSV out. This is the complete pipeline a data owner would run:
//
//   recpriv_publish --input patients.csv --sensitive Disease
//                   --output release.csv
//                   [--p 0.5] [--lambda 0.3] [--delta 0.3]
//                   [--rho1 0.1 --rho2 0.5]   (derive p from a rho target)
//                   [--no-generalize] [--report report.csv] [--seed N]
//
// Steps: read CSV -> (optionally derive p from a rho1-rho2 target, §3.1)
// -> chi-squared generalization of NA values (§3.4) -> violation audit
// (Cor. 4) -> SPS release (§5) -> write CSV (+ optional audit report CSV).

#include <iostream>
#include <set>

#include "recpriv.h"
#include "common/flags.h"
#include "core/rho_privacy.h"
#include "analysis/release.h"

namespace {

using namespace recpriv;  // NOLINT

constexpr const char* kUsage = R"(usage: recpriv_publish --input FILE --sensitive ATTR --output FILE [options]

required:
  --input FILE        input CSV with a header row
  --sensitive ATTR    name of the sensitive attribute (SA)
  --output FILE       where to write the privacy-enforced release CSV

options:
  --p P               retention probability in (0,1)        [default 0.5]
  --rho1 R --rho2 R   derive p from a rho1-rho2 target instead of --p
  --lambda L          reconstruction-privacy lambda          [default 0.3]
  --delta D           reconstruction-privacy delta           [default 0.3]
  --no-generalize     skip the chi-squared NA-value merge (not recommended:
                      aggregate groups may then act as personal groups)
  --report FILE       also write a per-group audit report CSV
  --manifest BASE     also write BASE.csv + BASE.manifest.json (a
                      self-describing release; see analysis/release.h)
  --missing TOKEN     rows containing TOKEN are skipped      [default "?"]
  --seed N            RNG seed for the release               [default 2015]
)";

int Fail(const Status& status) {
  std::cerr << "error: " << status.ToString() << "\n";
  return 1;
}

int Run(int argc, char** argv) {
  auto flags_or = FlagSet::Parse(argc, argv);
  if (!flags_or.ok()) return Fail(flags_or.status());
  const FlagSet& flags = *flags_or;

  const std::set<std::string> known = {
      "input",  "sensitive", "output",  "p",     "rho1", "rho2",
      "lambda", "delta",     "generalize", "report", "missing", "seed",
      "manifest", "help"};
  for (const auto& name : flags.FlagNames()) {
    if (!known.count(name)) {
      std::cerr << "unknown flag --" << name << "\n" << kUsage;
      return 1;
    }
  }
  if (flags.Has("help") || !flags.Has("input") || !flags.Has("sensitive") ||
      !flags.Has("output")) {
    std::cerr << kUsage;
    return flags.Has("help") ? 0 : 1;
  }

  // --- read ---
  table::CsvReadOptions read_options;
  read_options.sensitive_attribute = flags.GetString("sensitive");
  read_options.missing_token = flags.GetString("missing", "?");
  auto data = table::ReadCsv(flags.GetString("input"), read_options);
  if (!data.ok()) return Fail(data.status());
  std::cout << "read " << FormatWithCommas(int64_t(data->num_rows()))
            << " records, " << data->num_columns() << " attributes, SA = "
            << data->schema()->sensitive().name << " (m = "
            << data->schema()->sa_domain_size() << ")\n";
  if (data->schema()->sa_domain_size() < 2) {
    return Fail(Status::InvalidArgument(
        "the sensitive attribute needs at least 2 distinct values"));
  }

  // --- parameters ---
  core::PrivacyParams params;
  auto lambda = flags.GetDouble("lambda", 0.3);
  auto delta = flags.GetDouble("delta", 0.3);
  auto p_flag = flags.GetDouble("p", 0.5);
  if (!lambda.ok()) return Fail(lambda.status());
  if (!delta.ok()) return Fail(delta.status());
  if (!p_flag.ok()) return Fail(p_flag.status());
  params.lambda = *lambda;
  params.delta = *delta;
  params.retention_p = *p_flag;
  params.domain_m = data->schema()->sa_domain_size();

  if (flags.Has("rho1") || flags.Has("rho2")) {
    core::RhoPrivacy target;
    auto rho1 = flags.GetDouble("rho1", target.rho1);
    auto rho2 = flags.GetDouble("rho2", target.rho2);
    if (!rho1.ok()) return Fail(rho1.status());
    if (!rho2.ok()) return Fail(rho2.status());
    target.rho1 = *rho1;
    target.rho2 = *rho2;
    auto p_max = core::MaxRetentionForRho(target, params.domain_m);
    if (!p_max.ok()) return Fail(p_max.status());
    params.retention_p = *p_max;
    std::cout << "rho-derived retention: p = " << FormatDouble(*p_max, 4)
              << " (gamma bound " << FormatDouble(target.BreachBound(), 4)
              << ")\n";
  }
  if (auto st = params.Validate(); !st.ok()) return Fail(st);

  // --- generalize ---
  auto generalize = flags.GetBool("generalize", true);
  if (!generalize.ok()) return Fail(generalize.status());
  table::Table publishable = data->Clone();
  core::Generalization plan;
  if (*generalize) {
    auto plan_or = core::ComputeGeneralization(*data);
    if (!plan_or.ok()) return Fail(plan_or.status());
    plan = std::move(*plan_or);
    auto generalized = core::ApplyGeneralization(plan, *data);
    if (!generalized.ok()) return Fail(generalized.status());
    publishable = std::move(*generalized);
    for (size_t a = 0; a < plan.merges.size(); ++a) {
      if (a == data->schema()->sensitive_index()) continue;
      std::cout << "  " << data->schema()->attribute(a).name << ": "
                << plan.merges[a].domain_before << " -> "
                << plan.merges[a].domain_after << " generalized values\n";
    }
  }

  // --- audit ---
  const table::FlatGroupIndex index = table::FlatGroupIndex::Build(publishable);
  core::ViolationReport audit = core::AuditViolations(index, params);
  std::cout << "audit: " << index.num_groups() << " personal groups; "
            << audit.violating_groups << " would violate ("
            << FormatPercent(audit.RecordViolationRate())
            << " of records) under plain perturbation at p = "
            << FormatDouble(params.retention_p, 4) << "\n";

  // --- enforce + write ---
  auto seed = flags.GetInt("seed", 2015);
  if (!seed.ok()) return Fail(seed.status());
  Rng rng{uint64_t(*seed)};
  auto release = core::SpsPerturbTable(params, publishable, rng);
  if (!release.ok()) return Fail(release.status());
  if (auto st = table::WriteCsv(release->table, flags.GetString("output"));
      !st.ok()) {
    return Fail(st);
  }
  std::cout << "wrote " << FormatWithCommas(int64_t(release->table.num_rows()))
            << " records to " << flags.GetString("output") << " ("
            << release->stats.groups_sampled << " groups sampled)\n";

  // --- optional self-describing release bundle ---
  if (flags.Has("manifest")) {
    analysis::ReleaseBundle bundle{release->table.Clone(), params,
                                   data->schema()->sensitive().name, {}};
    if (*generalize) {
      for (const auto& merge : plan.merges) {
        bundle.generalization.push_back(merge.merged_names);
      }
    }
    if (auto st = analysis::WriteRelease(bundle, flags.GetString("manifest"));
        !st.ok()) {
      return Fail(st);
    }
    std::cout << "wrote release bundle " << flags.GetString("manifest")
              << ".csv + .manifest.json" << std::endl;

    // Serving self-check: reload the bundle through the typed client API —
    // exactly what recpriv_serve will do — so a publish that produced an
    // unservable bundle (manifest/CSV disagreement, unindexable schema)
    // fails here, not at serving time.
    serve::QueryEngineOptions check_options;
    check_options.num_threads = 1;
    check_options.cache_capacity = 0;
    client::InProcessClient check(std::make_shared<serve::ReleaseStore>(),
                                  check_options);
    auto desc = check.Publish("check", flags.GetString("manifest"));
    if (!desc.ok()) return Fail(desc.status());
    auto served_schema = check.GetSchema("check");
    if (!served_schema.ok()) return Fail(served_schema.status());
    std::cout << "serving self-check: "
              << FormatWithCommas(int64_t(desc->num_records)) << " records in "
              << FormatWithCommas(int64_t(desc->num_groups)) << " groups, "
              << served_schema->attributes.size() << " attributes — servable"
              << std::endl;
  }

  // --- optional per-group report ---
  if (flags.Has("report")) {
    exp::AsciiTable report({"group", "size", "max_frequency", "s_g",
                            "violates_under_plain_up"});
    for (size_t gi = 0; gi < index.num_groups(); ++gi) {
      std::string key;
      for (size_t k = 0; k < index.num_public(); ++k) {
        if (k > 0) key += "/";
        size_t attr = index.public_indices()[k];
        key += publishable.schema()->attribute(attr).domain.value(
            index.na_code(gi, k));
      }
      const double max_f = index.MaxFrequency(gi);
      const double s_g = core::MaxGroupSize(params, max_f);
      report.AddRow(
          {key, std::to_string(index.group_size(gi)), FormatDouble(max_f, 4),
           FormatDouble(s_g, 6),
           core::GroupIsPrivate(params, index.group_size(gi), max_f) ? "no"
                                                                     : "yes"});
    }
    if (auto st = report.WriteCsv(flags.GetString("report")); !st.ok()) {
      return Fail(st);
    }
    std::cout << "wrote audit report to " << flags.GetString("report") << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
