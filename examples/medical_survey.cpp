// Example 2 from the paper, end to end: a hospital publishes
// D(Gender, Job, Disease) with a 10-value Disease attribute under uniform
// perturbation, and an analyst-versus-adversary story unfolds:
//
//  * Bob is a male engineer. The adversary reconstructs the disease
//    distribution of the PERSONAL group D*(male, eng) — all records
//    matching everything it knows about Bob — to gauge whether Bob has
//    breast cancer ("bc").
//  * The analyst reconstructs the AGGREGATE group D*(*, eng) to learn that
//    career engineers skew to cervical spondylosis ("cs") — the paper's
//    "statistical relationship" the mechanism must keep learnable.
//
// The demo measures the reconstruction error of both, first under plain
// uniform perturbation (accurate personal reconstruction = privacy risk),
// then under SPS (personal reconstruction degraded, aggregate intact).

#include <cmath>
#include <iostream>

#include "recpriv.h"

using namespace recpriv;  // NOLINT

namespace {

/// Reconstruction error (absolute, in percentage points) of `sa` over the
/// given groups, averaged over `runs` randomized releases.
double MeasureError(const table::FlatGroupIndex& index,
                    const std::vector<uint32_t>& group_ids, size_t sa,
                    const core::PrivacyParams& params, bool use_sps,
                    size_t runs, Rng& rng) {
  const perturb::UniformPerturbation up{params.retention_p, params.domain_m};
  // Truth over the union of the selected groups.
  uint64_t true_count = 0, true_size = 0;
  for (uint32_t gi : group_ids) {
    true_count += index.sa_count(gi, sa);
    true_size += index.group_size(gi);
  }
  const double truth = double(true_count) / double(true_size);

  double total_err = 0.0;
  for (size_t run = 0; run < runs; ++run) {
    uint64_t observed = 0, size = 0;
    for (uint32_t gi : group_ids) {
      std::vector<uint64_t> obs;
      if (use_sps) {
        obs = core::SpsPerturbGroupCounts(params, index.sa_counts(gi), rng)
                  ->observed;
      } else {
        obs = *perturb::PerturbCounts(up, index.sa_counts(gi), rng);
      }
      observed += obs[sa];
      for (uint64_t c : obs) size += c;
    }
    const double estimate = perturb::MleFrequency(up, observed, size);
    total_err += std::abs(estimate - truth);
  }
  return total_err / double(runs);
}

}  // namespace

int main() {
  // --- the hospital table ---
  datagen::SimpleDatasetSpec spec;
  spec.public_attributes = {"Gender", "Job"};
  spec.sensitive_attribute = "Disease";
  spec.sa_domain = {"flu",      "diabetes", "hepatitis", "hiv",  "bc",
                    "cs",       "asthma",   "anemia",    "gout", "ulcer"};
  // Engineers (both genders) skew to cervical spondylosis; breast cancer
  // concentrates in the female groups — so D(male,eng) and D(female,eng)
  // genuinely differ and aggregation would mislead the adversary.
  spec.groups = {
      {{"male", "eng"}, 6000, {18, 8, 6, 4, 1, 30, 9, 6, 10, 8}},
      {{"female", "eng"}, 5000, {16, 7, 5, 3, 12, 28, 9, 8, 4, 8}},
      {{"male", "law"}, 4000, {20, 18, 6, 6, 1, 8, 10, 7, 14, 10}},
      {{"female", "law"}, 4000, {18, 16, 5, 5, 14, 7, 11, 10, 5, 9}},
  };
  Rng rng(2015);
  table::Table data = *datagen::GenerateSimple(spec, rng);

  core::PrivacyParams params;
  params.lambda = 0.3;
  params.delta = 0.3;
  params.retention_p = 0.2;  // Example 2 uses 20% retention
  params.domain_m = 10;

  table::FlatGroupIndex index = table::FlatGroupIndex::Build(data);
  const size_t bc = *data.schema()->sensitive().domain.GetCode("bc");
  const size_t cs = *data.schema()->sensitive().domain.GetCode("cs");

  // Bob's personal group and the analyst's aggregate group.
  const uint32_t male = *data.schema()->attribute(0).domain.GetCode("male");
  const uint32_t eng = *data.schema()->attribute(1).domain.GetCode("eng");
  const std::vector<uint32_t> bob_key{male, eng};
  std::vector<uint32_t> personal{uint32_t(*index.FindGroup(bob_key))};
  table::Predicate engineers(3);
  engineers.Bind(1, eng);
  std::vector<uint32_t> aggregate = index.MatchingGroups(engineers);

  std::cout << "D(Gender, Job, Disease): " << data.num_rows()
            << " records, m = 10 diseases, retention p = 0.2\n";
  std::cout << "personal group D(male, eng): "
            << index.group_size(personal[0]) << " records, bc rate "
            << FormatPercent(index.Frequency(personal[0], bc))
            << "\n";

  const size_t runs = 200;
  std::cout << "\nmean |reconstruction error| over " << runs
            << " releases (percentage points):\n\n";
  exp::AsciiTable out({"reconstruction", "plain UP", "SPS"});
  auto row = [&](const std::string& label, const std::vector<uint32_t>& groups,
                 size_t sa) {
    Rng up_rng(1), sps_rng(2);
    out.AddRow({label,
                FormatPercent(MeasureError(index, groups, sa, params, false,
                                           runs, up_rng)),
                FormatPercent(MeasureError(index, groups, sa, params, true,
                                           runs, sps_rng))});
  };
  row("PERSONAL: bc in D*(male, eng)   [adversary]", personal, bc);
  row("AGGREGATE: cs in D*(*, eng)     [analyst]", aggregate, cs);
  out.Print(std::cout);

  std::cout
      << "\nreading: SPS degrades the adversary's personal reconstruction "
         "while the\nanalyst's aggregate reconstruction (more records = "
         "more random trials, the\nlaw of large numbers) stays accurate — "
         "the paper's split-role principle.\n";
  return 0;
}
