#include "core/streaming.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "perturb/uniform_perturbation.h"

namespace recpriv::core {

using recpriv::perturb::PerturbValue;
using recpriv::perturb::UniformPerturbation;
using recpriv::table::FlatGroupIndex;
using recpriv::table::SchemaPtr;
using recpriv::table::Table;

namespace {

/// One sorted run of raw groups: NA keys ascending with SA histograms.
struct SideRun {
  std::vector<uint32_t> na;      ///< num_groups x num_public
  std::vector<uint64_t> counts;  ///< num_groups x m
  uint64_t num_groups = 0;
};

/// Groups the rows [begin, num_rows) of `t` — the delta of an incremental
/// publish — with a small side FlatGroupIndex build and keeps its (key,
/// raw histogram) run. Cost is the side build over the delta only.
SideRun BuildSideRun(const Table& t, size_t begin) {
  std::vector<size_t> rows(t.num_rows() - begin);
  std::iota(rows.begin(), rows.end(), begin);
  const Table delta = t.Select(rows);
  const FlatGroupIndex side = FlatGroupIndex::Build(delta);
  const FlatGroupIndex::Storage s = side.storage();
  SideRun run;
  run.na.assign(s.na_codes.begin(), s.na_codes.end());
  run.counts.assign(s.sa_counts.begin(), s.sa_counts.end());
  run.num_groups = s.num_groups;
  return run;
}

/// Three-way NA-lexicographic key compare (n_pub == 0 compares equal:
/// every row belongs to the single empty-key group).
int LexCompare(const uint32_t* a, const uint32_t* b, size_t n_pub) {
  for (size_t k = 0; k < n_pub; ++k) {
    if (a[k] != b[k]) return a[k] < b[k] ? -1 : 1;
  }
  return 0;
}

/// Folds `delta` into the cumulative raw run (histograms summed on key
/// collisions) and collects the touched groups — every delta key with its
/// full merged histogram — in ascending key order.
void MergeIntoRawRun(size_t n_pub, size_t m, std::vector<uint32_t>& raw_na,
                     std::vector<uint64_t>& raw_counts, const SideRun& delta,
                     std::vector<uint32_t>* touched_na,
                     std::vector<uint64_t>* touched_counts) {
  const uint64_t gr = m == 0 ? 0 : raw_counts.size() / m;
  std::vector<uint32_t> new_na;
  std::vector<uint64_t> new_counts;
  new_na.reserve(raw_na.size() + delta.na.size());
  new_counts.reserve(raw_counts.size() + delta.counts.size());

  uint64_t i = 0, j = 0;
  while (i < gr || j < delta.num_groups) {
    int cmp;
    if (i == gr) {
      cmp = 1;
    } else if (j == delta.num_groups) {
      cmp = -1;
    } else {
      cmp = LexCompare(raw_na.data() + i * n_pub,
                       delta.na.data() + j * n_pub, n_pub);
    }
    if (cmp < 0) {
      new_na.insert(new_na.end(), raw_na.data() + i * n_pub,
                    raw_na.data() + (i + 1) * n_pub);
      new_counts.insert(new_counts.end(), raw_counts.data() + i * m,
                        raw_counts.data() + (i + 1) * m);
      ++i;
      continue;
    }
    const uint32_t* key = delta.na.data() + j * n_pub;
    new_na.insert(new_na.end(), key, key + n_pub);
    touched_na->insert(touched_na->end(), key, key + n_pub);
    const size_t hist_at = new_counts.size();
    new_counts.insert(new_counts.end(), delta.counts.data() + j * m,
                      delta.counts.data() + (j + 1) * m);
    if (cmp == 0) {
      for (size_t sa = 0; sa < m; ++sa) {
        new_counts[hist_at + sa] += raw_counts[i * m + sa];
      }
      ++i;
    }
    touched_counts->insert(touched_counts->end(),
                           new_counts.begin() + hist_at, new_counts.end());
    ++j;
  }
  raw_na.swap(new_na);
  raw_counts.swap(new_counts);
}

/// The canonical group-major table an index describes: groups in key
/// order, each row carrying its group's NA key, with the group's SA values
/// laid out in ascending-value runs — the table whose Build is the
/// identity row permutation, i.e. exactly what MergeRuns's output indexes.
Result<Table> MaterializeTable(const FlatGroupIndex& idx) {
  const SchemaPtr& schema = idx.schema();
  const size_t n = idx.num_records();
  const std::vector<size_t>& pub = idx.public_indices();
  const size_t sa_col = schema->sensitive_index();
  const FlatGroupIndex::Storage st = idx.storage();

  std::vector<std::vector<uint32_t>> cols(schema->num_attributes());
  for (std::vector<uint32_t>& c : cols) c.resize(n);
  for (size_t g = 0; g < idx.num_groups(); ++g) {
    const size_t off = size_t(st.row_offsets[g]);
    const size_t size = size_t(st.row_offsets[g + 1]) - off;
    const std::span<const uint32_t> key = idx.na_codes(g);
    for (size_t k = 0; k < pub.size(); ++k) {
      std::fill_n(cols[pub[k]].begin() + off, size, key[k]);
    }
    size_t pos = off;
    const std::span<const uint64_t> hist = idx.sa_counts(g);
    for (uint32_t v = 0; v < hist.size(); ++v) {
      std::fill_n(cols[sa_col].begin() + pos, size_t(hist[v]), v);
      pos += size_t(hist[v]);
    }
  }
  return Table::FromColumns(schema, std::move(cols));
}

}  // namespace

Result<StreamingPublisher> StreamingPublisher::Make(SchemaPtr schema,
                                                    PrivacyParams params) {
  if (schema == nullptr) {
    return Status::InvalidArgument("schema must not be null");
  }
  RECPRIV_RETURN_NOT_OK(params.Validate());
  if (schema->sa_domain_size() != params.domain_m) {
    return Status::InvalidArgument(
        "params.domain_m does not match the schema's SA domain size");
  }
  return StreamingPublisher(std::move(schema), params);
}

Status StreamingPublisher::Insert(std::span<const uint32_t> row) {
  return buffer_.AppendRow(row);
}

Result<std::vector<uint32_t>> StreamingPublisher::InsertAndRelease(
    std::span<const uint32_t> row, Rng& rng) {
  // Validate fully BEFORE the first Rng draw: a rejected row must leave
  // the caller's RNG stream untouched, or every release after it shifts
  // and record/replay byte-equality breaks.
  RECPRIV_RETURN_NOT_OK(buffer_.ValidateRow(row));
  const UniformPerturbation up{params_.retention_p, params_.domain_m};
  std::vector<uint32_t> released(row.begin(), row.end());
  const size_t sa_col = buffer_.schema()->sensitive_index();
  released[sa_col] = PerturbValue(up, released[sa_col], rng);
  buffer_.AppendRowUnchecked(row);
  return released;
}

ViolationReport StreamingPublisher::Audit() const {
  return AuditViolations(FlatGroupIndex::Build(buffer_), params_);
}

ViolationReport StreamingPublisher::AuditFromRuns() const {
  const size_t n_pub = buffer_.schema()->public_indices().size();
  const size_t m = params_.domain_m;
  SideRun pending;
  if (pending_delta_rows() > 0) {
    pending = BuildSideRun(buffer_, published_rows_);
  }

  // (size, max frequency) profile of every group of raw run ⊕ pending
  // delta, merged by key — the same groups Audit() builds from the buffer.
  const uint64_t gr = raw_counts_.size() / m;
  std::vector<std::pair<uint64_t, double>> profiles;
  uint64_t i = 0, j = 0;
  std::vector<uint64_t> hist(m);
  while (i < gr || j < pending.num_groups) {
    int cmp;
    if (i == gr) {
      cmp = 1;
    } else if (j == pending.num_groups) {
      cmp = -1;
    } else {
      cmp = LexCompare(raw_na_.data() + i * n_pub,
                       pending.na.data() + j * n_pub, n_pub);
    }
    std::fill(hist.begin(), hist.end(), 0);
    if (cmp <= 0) {
      for (size_t sa = 0; sa < m; ++sa) hist[sa] += raw_counts_[i * m + sa];
      ++i;
    }
    if (cmp >= 0) {
      for (size_t sa = 0; sa < m; ++sa) hist[sa] += pending.counts[j * m + sa];
      ++j;
    }
    uint64_t size = 0, max_count = 0;
    for (const uint64_t c : hist) {
      size += c;
      max_count = std::max(max_count, c);
    }
    profiles.emplace_back(
        size, size == 0 ? 0.0 : double(max_count) / double(size));
  }
  return AuditViolations(profiles, params_);
}

Result<SpsTableResult> StreamingPublisher::Publish(Rng& rng) const {
  return SpsPerturbTable(params_, buffer_, rng);
}

Result<IncrementalPublishResult> StreamingPublisher::PublishIncremental(
    Rng& rng, bool merge_index) {
  const size_t n_pub = buffer_.schema()->public_indices().size();
  const size_t m = params_.domain_m;
  IncrementalPublishStats stats;
  stats.delta_rows = pending_delta_rows();

  // Group the delta with a small side index and fold its raw histograms
  // into the cumulative raw run; the fold yields the touched groups with
  // their full (base + delta) raw histograms in ascending key order.
  std::vector<uint32_t> touched_na;
  std::vector<uint64_t> touched_raw;
  if (stats.delta_rows > 0) {
    const SideRun side = BuildSideRun(buffer_, published_rows_);
    MergeIntoRawRun(n_pub, m, raw_na_, raw_counts_, side, &touched_na,
                    &touched_raw);
  }
  const size_t touched = touched_raw.size() / m;
  stats.groups_touched = touched;

  // SPS privacy re-check on the touched groups only, in ascending key
  // order — the draw order is part of the publish's deterministic
  // contract. Untouched groups keep their previous observed histogram.
  std::vector<uint64_t> overlay_counts(touched * m, 0);
  for (size_t g = 0; g < touched; ++g) {
    const std::span<const uint64_t> raw{touched_raw.data() + g * m, m};
    RECPRIV_ASSIGN_OR_RETURN(const SpsCountsResult res,
                             SpsPerturbGroupCounts(params_, raw, rng));
    for (size_t sa = 0; sa < m; ++sa) {
      stats.sps.records_in += raw[sa];
      stats.sps.records_out += res.observed[sa];
      overlay_counts[g * m + sa] = res.observed[sa];
    }
    ++stats.sps.num_groups;
    if (res.sampled) {
      ++stats.sps.groups_sampled;
      stats.sps.records_sampled += res.sample_size;
    }
  }

  // Carried groups: base groups the overlay does not replace.
  const uint64_t base_groups = base_counts_.size() / m;
  {
    uint64_t overlap = 0, i = 0, j = 0;
    while (i < base_groups && j < touched) {
      const int cmp = LexCompare(base_na_.data() + i * n_pub,
                                 touched_na.data() + j * n_pub, n_pub);
      if (cmp == 0) {
        ++overlap;
        ++i;
        ++j;
      } else if (cmp < 0) {
        ++i;
      } else {
        ++j;
      }
    }
    stats.groups_carried = size_t(base_groups - overlap);
  }

  const FlatGroupIndex::GroupRun base_run{base_na_, base_counts_, base_groups};
  const FlatGroupIndex::GroupRun overlay{touched_na, overlay_counts,
                                         uint64_t(touched)};
  RECPRIV_ASSIGN_OR_RETURN(
      FlatGroupIndex merged,
      FlatGroupIndex::MergeRuns(buffer_.schema(), base_run, overlay));
  RECPRIV_ASSIGN_OR_RETURN(Table table, MaterializeTable(merged));

  // Adopt the merged release as the next base level.
  const FlatGroupIndex::Storage ms = merged.storage();
  base_na_.assign(ms.na_codes.begin(), ms.na_codes.end());
  base_counts_.assign(ms.sa_counts.begin(), ms.sa_counts.end());
  published_rows_ = buffer_.num_rows();

  // Both build paths describe the same canonical table bit-identically;
  // the flag selects run-merge (O(groups + delta)) vs the radix-sort
  // reference (O(n log n)) — see the header.
  FlatGroupIndex index =
      merge_index ? std::move(merged) : FlatGroupIndex::Build(table);
  return IncrementalPublishResult{std::move(table), std::move(index), stats};
}

}  // namespace recpriv::core
