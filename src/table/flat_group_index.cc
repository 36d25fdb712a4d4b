#include "table/flat_group_index.h"

#include <algorithm>
#include <iterator>
#include <numeric>
#include <utility>

#include "common/logging.h"
#include "table/group_order.h"
#include "table/simd/dispatch.h"

namespace recpriv::table {

namespace {

/// One row's packed NA key paired with its row id.
struct KeyRow {
  uint64_t key;
  uint32_t row;
};

/// LSD radix sort of `a` by key, one byte per pass, skipping passes whose
/// byte is constant and everything above `total_bits`. Stable, so rows stay
/// ascending within each group. Small inputs fall back to std::sort.
void RadixSortKeys(std::vector<KeyRow>& a, uint32_t total_bits) {
  const size_t n = a.size();
  if (n < 2 || total_bits == 0) return;
  if (n < 4096) {
    std::sort(a.begin(), a.end(), [](const KeyRow& x, const KeyRow& y) {
      return x.key != y.key ? x.key < y.key : x.row < y.row;
    });
    return;
  }
  std::vector<KeyRow> b(n);
  const uint32_t passes = (total_bits + 7) / 8;
  for (uint32_t p = 0; p < passes; ++p) {
    const uint32_t shift = p * 8;
    size_t count[256] = {0};
    for (const KeyRow& kr : a) ++count[(kr.key >> shift) & 0xFF];
    if (count[(a[0].key >> shift) & 0xFF] == n) continue;  // constant byte
    size_t pos[256];
    size_t acc = 0;
    for (size_t i = 0; i < 256; ++i) {
      pos[i] = acc;
      acc += count[i];
    }
    for (const KeyRow& kr : a) b[pos[(kr.key >> shift) & 0xFF]++] = kr;
    a.swap(b);
  }
}

/// The one thread-local scratch left in this file: backs the scratch-less
/// kernel overloads for cold callers (tests, analysis tools, one-shot
/// evaluation). Hot paths — the serving engine, pool generation — own an
/// AnswerScratch and thread it through explicitly, so this instance only
/// ever holds cold-path working sets and its never-shrinking capacity is
/// bounded by them.
AnswerScratch& SharedScratch() {
  static thread_local AnswerScratch scratch;
  return scratch;
}

}  // namespace

bool FlatGroupIndex::DeriveKeyLayout(bool want_packed) {
  public_idx_ = schema_->public_indices();
  m_ = schema_->sa_domain_size();
  PackedKeyLayout layout = PackedKeyLayout::Of(*schema_);
  packed_ = want_packed && layout.fits();
  key_bits_ = std::move(layout.bits);
  key_shifts_ = std::move(layout.shifts);
  return packed_ == want_packed;
}

void FlatGroupIndex::BindOwnedStorage() {
  packed_keys_ = packed_keys_own_;
  na_codes_ = na_codes_own_;
  sa_counts_ = sa_counts_own_;
  row_offsets_ = row_offsets_own_;
  row_values_ = row_values_own_;
}

FlatGroupIndex FlatGroupIndex::Build(const Table& t, KeyMode mode) {
  FlatGroupIndex idx;
  idx.schema_ = t.schema();
  idx.DeriveKeyLayout(mode == KeyMode::kAuto);
  idx.num_records_ = t.num_rows();

  const size_t n = t.num_rows();
  const size_t n_pub = idx.public_idx_.size();
  const size_t m = idx.m_;
  RowKeys keys = RowKeys::Pack(t, idx.packed_);

  // Group-major row order. A stable sort keeps rows ascending within each
  // group, and a stable sort of key-ordered input (an SPS release, which
  // is emitted group by group) is the identity, so that case skips it.
  std::vector<uint32_t>& order = idx.row_values_own_;
  order.resize(n);
  std::iota(order.begin(), order.end(), 0u);
  if (!keys.IsSorted()) {
    if (idx.packed_) {
      std::vector<KeyRow> kr(n);
      for (size_t r = 0; r < n; ++r) {
        kr[r] = KeyRow{keys.packed_keys[r], uint32_t(r)};
      }
      RadixSortKeys(kr, std::accumulate(idx.key_bits_.begin(),
                                        idx.key_bits_.end(), 0u));
      for (size_t i = 0; i < n; ++i) {
        order[i] = kr[i].row;
        keys.packed_keys[i] = kr[i].key;  // keys now follow `order`
      }
    } else {
      std::stable_sort(order.begin(), order.end(),
                       [&keys](uint32_t x, uint32_t y) {
                         return keys.Less(x, y);
                       });
    }
  }
  // True when sorted positions i and j hold the same key.
  auto same_key = [&](size_t i, size_t j) {
    return idx.packed_ ? keys.packed_keys[i] == keys.packed_keys[j]
                       : keys.Equal(order[i], order[j]);
  };

  // One pass counts the groups so every column is sized exactly once.
  size_t num_groups = n == 0 ? 0 : 1;
  for (size_t i = 1; i < n; ++i) num_groups += !same_key(i - 1, i);
  idx.num_groups_ = num_groups;
  idx.na_codes_own_.resize(num_groups * n_pub);
  idx.sa_counts_own_.assign(num_groups * m, 0);
  idx.row_offsets_own_.resize(num_groups + 1);
  if (idx.packed_) idx.packed_keys_own_.resize(num_groups);

  const uint32_t* sa_col = t.column(t.schema()->sensitive_index()).data();
  size_t g = 0;
  for (size_t i = 0; i < n; ++g) {
    size_t j = i + 1;
    while (j < n && same_key(i, j)) ++j;
    for (size_t k = 0; k < n_pub; ++k) {
      idx.na_codes_own_[g * n_pub + k] = t.at(order[i], idx.public_idx_[k]);
    }
    if (idx.packed_) idx.packed_keys_own_[g] = keys.packed_keys[i];
    uint64_t* hist = idx.sa_counts_own_.data() + g * m;
    for (size_t r = i; r < j; ++r) {
      const uint32_t sa = sa_col[order[r]];
      RECPRIV_DCHECK(sa < m);
      ++hist[sa];
    }
    idx.row_offsets_own_[g + 1] = j;
    i = j;
  }
  idx.BindOwnedStorage();
  return idx;
}

Result<FlatGroupIndex> FlatGroupIndex::FromStorage(SchemaPtr schema,
                                                   const Storage& s) {
  if (schema == nullptr) {
    return Status::DataLoss("snapshot index: null schema");
  }
  FlatGroupIndex idx;
  idx.schema_ = std::move(schema);
  if (!idx.DeriveKeyLayout(s.packed)) {
    return Status::DataLoss(
        "snapshot index: packed key layout does not fit the schema's "
        "public domains");
  }
  const size_t n_pub = idx.public_idx_.size();
  const size_t m = idx.m_;
  const uint64_t g = s.num_groups;
  const uint64_t n = s.num_records;
  idx.num_groups_ = size_t(g);
  idx.num_records_ = size_t(n);

  // Section sizes must agree with the manifest's dimensions exactly.
  if (s.na_codes.size() != g * n_pub) {
    return Status::DataLoss("snapshot index: na_codes size mismatch");
  }
  if (s.sa_counts.size() != g * m) {
    return Status::DataLoss("snapshot index: sa_counts size mismatch");
  }
  if (s.row_offsets.size() != g + 1) {
    return Status::DataLoss("snapshot index: row_offsets size mismatch");
  }
  if (s.row_values.size() != n) {
    return Status::DataLoss("snapshot index: row_values size mismatch");
  }
  if (s.packed_keys.size() != (s.packed ? g : 0)) {
    return Status::DataLoss("snapshot index: packed_keys size mismatch");
  }

  // NA codes must lie inside their attribute domains (the posting index
  // and FindGroup index by code) and group keys must be strictly
  // ascending in NA-lexicographic order (binary search depends on it).
  for (size_t k = 0; k < n_pub; ++k) {
    const uint32_t dom =
        uint32_t(idx.schema_->attribute(idx.public_idx_[k]).domain.size());
    for (uint64_t gi = 0; gi < g; ++gi) {
      if (s.na_codes[gi * n_pub + k] >= dom) {
        return Status::DataLoss("snapshot index: NA code outside its domain");
      }
    }
  }
  for (uint64_t gi = 0; gi + 1 < g; ++gi) {
    const uint32_t* a = s.na_codes.data() + gi * n_pub;
    const uint32_t* b = a + n_pub;
    if (!std::lexicographical_compare(a, a + n_pub, b, b + n_pub)) {
      return Status::DataLoss("snapshot index: group keys not ascending");
    }
  }
  if (s.packed) {
    // Packed keys must be exactly the packs of the NA-code rows; the
    // ascending check above then makes them strictly sorted too.
    for (uint64_t gi = 0; gi < g; ++gi) {
      uint64_t key = 0;
      if (!idx.PackKey({s.na_codes.data() + gi * n_pub, n_pub}, &key) ||
          key != s.packed_keys[gi]) {
        return Status::DataLoss(
            "snapshot index: packed key disagrees with NA codes");
      }
    }
  }

  // CSR offsets: zero-based, monotone, covering all records.
  if (g == 0 ? (s.row_offsets[0] != 0 || n != 0)
             : (s.row_offsets[0] != 0 || s.row_offsets[g] != n)) {
    return Status::DataLoss("snapshot index: CSR offsets do not cover rows");
  }
  for (uint64_t gi = 0; gi < g; ++gi) {
    if (s.row_offsets[gi] >= s.row_offsets[gi + 1]) {
      return Status::DataLoss("snapshot index: empty or descending group");
    }
  }

  // Row values must be a permutation of [0, n) — a duplicated or
  // out-of-range row would silently distort every count answer.
  std::vector<bool> seen(size_t(n), false);
  for (const uint32_t r : s.row_values) {
    if (r >= n || seen[r]) {
      return Status::DataLoss("snapshot index: rows are not a permutation");
    }
    seen[r] = true;
  }

  // Each histogram row must sum to its group's size.
  for (uint64_t gi = 0; gi < g; ++gi) {
    uint64_t sum = 0;
    for (size_t sa = 0; sa < m; ++sa) sum += s.sa_counts[gi * m + sa];
    if (sum != s.row_offsets[gi + 1] - s.row_offsets[gi]) {
      return Status::DataLoss(
          "snapshot index: SA histogram disagrees with group size");
    }
  }

  idx.packed_keys_ = s.packed_keys;
  idx.na_codes_ = s.na_codes;
  idx.sa_counts_ = s.sa_counts;
  idx.row_offsets_ = s.row_offsets;
  idx.row_values_ = s.row_values;
  return idx;
}

Result<FlatGroupIndex> FlatGroupIndex::MergeRuns(SchemaPtr schema,
                                                 const GroupRun& base,
                                                 const GroupRun& overlay,
                                                 KeyMode mode) {
  if (schema == nullptr) {
    return Status::InvalidArgument("MergeRuns: null schema");
  }
  FlatGroupIndex idx;
  idx.schema_ = std::move(schema);
  idx.DeriveKeyLayout(mode == KeyMode::kAuto);
  const size_t n_pub = idx.public_idx_.size();
  const size_t m = idx.m_;

  // Both runs are caller-assembled (the overlay from freshly perturbed
  // histograms, the base possibly from borrowed index sections), so their
  // invariants are re-checked before any section is trusted: consistent
  // sizes, in-domain codes, strictly ascending keys.
  for (const GroupRun* run : {&base, &overlay}) {
    if (run->na_codes.size() != run->num_groups * n_pub ||
        run->sa_counts.size() != run->num_groups * m) {
      return Status::InvalidArgument(
          "MergeRuns: run sections disagree with the group count");
    }
    for (size_t k = 0; k < n_pub; ++k) {
      const uint32_t dom =
          uint32_t(idx.schema_->attribute(idx.public_idx_[k]).domain.size());
      for (uint64_t gi = 0; gi < run->num_groups; ++gi) {
        if (run->na_codes[gi * n_pub + k] >= dom) {
          return Status::InvalidArgument(
              "MergeRuns: NA code outside its domain");
        }
      }
    }
    for (uint64_t gi = 0; gi + 1 < run->num_groups; ++gi) {
      const uint32_t* a = run->na_codes.data() + gi * n_pub;
      const uint32_t* b = a + n_pub;
      if (!std::lexicographical_compare(a, a + n_pub, b, b + n_pub)) {
        return Status::InvalidArgument(
            "MergeRuns: run keys not strictly ascending");
      }
    }
  }

  auto key_at = [n_pub](const GroupRun& run, uint64_t gi) {
    return run.na_codes.data() + gi * n_pub;
  };
  auto lex_cmp = [n_pub](const uint32_t* a, const uint32_t* b) {
    for (size_t k = 0; k < n_pub; ++k) {
      if (a[k] != b[k]) return a[k] < b[k] ? -1 : 1;
    }
    return 0;
  };

  idx.row_offsets_own_.push_back(0);
  const size_t expect_groups = size_t(base.num_groups + overlay.num_groups);
  idx.na_codes_own_.reserve(expect_groups * n_pub);
  idx.sa_counts_own_.reserve(expect_groups * m);
  auto emit = [&](const GroupRun& run, uint64_t gi) {
    const uint64_t* hist = run.sa_counts.data() + gi * m;
    uint64_t size = 0;
    for (size_t sa = 0; sa < m; ++sa) size += hist[sa];
    if (size == 0) return;  // tombstone: the group vanishes from the output
    const uint32_t* key = key_at(run, gi);
    if (idx.packed_) {
      uint64_t packed = 0;
      // Cannot fail: the domain check above bounds every code by its
      // attribute's bit field.
      const bool fits = idx.PackKey({key, n_pub}, &packed);
      RECPRIV_DCHECK(fits);
      (void)fits;
      idx.packed_keys_own_.push_back(packed);
    }
    idx.na_codes_own_.insert(idx.na_codes_own_.end(), key, key + n_pub);
    idx.sa_counts_own_.insert(idx.sa_counts_own_.end(), hist, hist + m);
    idx.row_offsets_own_.push_back(idx.row_offsets_own_.back() + size);
  };

  uint64_t i = 0, j = 0;
  while (i < base.num_groups || j < overlay.num_groups) {
    int cmp;
    if (i == base.num_groups) {
      cmp = 1;
    } else if (j == overlay.num_groups) {
      cmp = -1;
    } else {
      cmp = lex_cmp(key_at(base, i), key_at(overlay, j));
    }
    if (cmp < 0) {
      emit(base, i);
      ++i;
    } else {
      emit(overlay, j);  // on a collision the overlay replaces the base group
      ++j;
      if (cmp == 0) ++i;
    }
  }

  idx.num_groups_ = idx.row_offsets_own_.size() - 1;
  idx.num_records_ = size_t(idx.row_offsets_own_.back());
  idx.row_values_own_.resize(idx.num_records_);
  std::iota(idx.row_values_own_.begin(), idx.row_values_own_.end(), 0u);
  idx.BindOwnedStorage();
  return idx;
}

double FlatGroupIndex::AverageGroupSize() const {
  if (num_groups_ == 0) return 0.0;
  return static_cast<double>(num_records_) / static_cast<double>(num_groups_);
}

double FlatGroupIndex::Frequency(size_t g, size_t sa) const {
  const uint64_t size = group_size(g);
  return size == 0 ? 0.0
                   : static_cast<double>(sa_count(g, sa)) /
                         static_cast<double>(size);
}

double FlatGroupIndex::MaxFrequency(size_t g) const {
  const uint64_t size = group_size(g);
  if (size == 0) return 0.0;
  uint64_t max_count = 0;
  for (uint64_t c : sa_counts(g)) max_count = std::max(max_count, c);
  return static_cast<double>(max_count) / static_cast<double>(size);
}

bool FlatGroupIndex::PackKey(std::span<const uint32_t> na,
                             uint64_t* key) const {
  uint64_t k = 0;
  for (size_t i = 0; i < na.size(); ++i) {
    if (key_bits_[i] == 0) {
      if (na[i] != 0) return false;  // single-value domain: only code 0
      continue;
    }
    if ((uint64_t(na[i]) >> key_bits_[i]) != 0) return false;  // overflow
    k |= uint64_t(na[i]) << key_shifts_[i];
  }
  *key = k;
  return true;
}

int FlatGroupIndex::CompareKeyAt(size_t g,
                                 std::span<const uint32_t> na) const {
  const uint32_t* gk = na_codes_.data() + g * public_idx_.size();
  for (size_t k = 0; k < na.size(); ++k) {
    if (gk[k] != na[k]) return gk[k] < na[k] ? -1 : 1;
  }
  return 0;
}

Result<size_t> FlatGroupIndex::FindGroup(
    std::span<const uint32_t> na_codes) const {
  if (na_codes.size() != public_idx_.size() || num_groups_ == 0) {
    return Status::NotFound("no personal group with the given NA key");
  }
  if (packed_) {
    uint64_t key = 0;
    if (PackKey(na_codes, &key)) {
      const auto it =
          std::lower_bound(packed_keys_.begin(), packed_keys_.end(), key);
      if (it != packed_keys_.end() && *it == key) {
        return size_t(it - packed_keys_.begin());
      }
    }
  } else {
    size_t lo = 0, hi = num_groups_;
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      if (CompareKeyAt(mid, na_codes) < 0) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo < num_groups_ && CompareKeyAt(lo, na_codes) == 0) return lo;
  }
  return Status::NotFound("no personal group with the given NA key");
}

std::vector<uint32_t> FlatGroupIndex::MatchingGroups(
    const Predicate& pred) const {
  std::vector<uint32_t> out;
  MatchingGroupsInto(pred, out);
  return out;
}

void FlatGroupIndex::MatchingGroupsInto(const Predicate& pred,
                                        std::vector<uint32_t>& out) const {
  MatchingGroupsInto(pred, SharedScratch(), out);
}

void FlatGroupIndex::MatchingGroupsInto(const Predicate& pred,
                                        AnswerScratch& scratch,
                                        std::vector<uint32_t>& out) const {
  RECPRIV_CHECK(pred.num_attributes() == schema_->num_attributes())
      << "predicate arity mismatch";
  out.clear();
  const size_t n_pub = public_idx_.size();
  CollectBound(pred, scratch);
  if (scratch.bound.size() == n_pub && n_pub > 0) {
    // Fully bound: at most one group — binary search instead of a scan.
    scratch.key.resize(n_pub);
    for (const auto& [k, code] : scratch.bound) scratch.key[k] = code;
    const Result<size_t> found = FindGroup(scratch.key);
    if (found.ok()) out.push_back(uint32_t(*found));
    return;
  }
  const uint32_t* nk = na_codes_.data();
  for (size_t g = 0; g < num_groups_; ++g) {
    const uint32_t* gk = nk + g * n_pub;
    bool match = true;
    for (const auto& [k, code] : scratch.bound) {
      if (gk[k] != code) {
        match = false;
        break;
      }
    }
    if (match) out.push_back(uint32_t(g));
  }
}

uint64_t FlatGroupIndex::CountAnswer(const Predicate& pred,
                                     uint32_t sa) const {
  uint64_t observed = 0, matched_size = 0;
  AnswerInto(pred, sa, &observed, &matched_size);
  return observed;
}

void FlatGroupIndex::CollectBound(const Predicate& pred,
                                  AnswerScratch& scratch) const {
  scratch.bound.clear();
  const size_t n_pub = public_idx_.size();
  for (size_t k = 0; k < n_pub; ++k) {
    const size_t attr = public_idx_[k];
    if (pred.is_bound(attr)) {
      scratch.bound.emplace_back(uint32_t(k), pred.code(attr));
    }
  }
}

void FlatGroupIndex::AnswerInto(const Predicate& pred, uint32_t sa,
                                uint64_t* observed,
                                uint64_t* matched_size) const {
  AnswerInto(pred, sa, SharedScratch(), observed, matched_size);
}

void FlatGroupIndex::AnswerInto(const Predicate& pred, uint32_t sa,
                                AnswerScratch& scratch, uint64_t* observed,
                                uint64_t* matched_size) const {
  RECPRIV_CHECK(pred.num_attributes() == schema_->num_attributes())
      << "predicate arity mismatch";
  RECPRIV_DCHECK(sa < m_);
  *observed = 0;
  *matched_size = 0;
  const size_t n_pub = public_idx_.size();
  CollectBound(pred, scratch);
  if (scratch.bound.size() == n_pub && n_pub > 0) {
    scratch.key.resize(n_pub);
    for (const auto& [k, code] : scratch.bound) scratch.key[k] = code;
    const Result<size_t> found = FindGroup(scratch.key);
    if (found.ok()) {
      *observed = sa_count(*found, sa);
      *matched_size = group_size(*found);
    }
    return;
  }
  // The scan body dispatches to the best SIMD level the host supports;
  // every level is bit-identical to the scalar reference by construction
  // (integer sums only — see table/simd/dispatch.h).
  simd::FusedCountArgs fused;
  fused.na_codes = na_codes_;
  fused.sa_counts = sa_counts_;
  fused.row_offsets = row_offsets_;
  fused.num_groups = num_groups_;
  fused.n_pub = n_pub;
  fused.m = m_;
  fused.sa = sa;
  fused.bound = scratch.bound;
  if (packed_) {
    // Equivalent packed-key spelling of the same match: attribute k's
    // code sits in its own bit field, so the bound compare collapses to
    // one masked 64-bit equality per group over the contiguous sorted
    // keys (the layout Build sorted by).
    uint64_t mask = 0, want = 0;
    bool fits = true;
    for (const auto& [k, code] : scratch.bound) {
      const uint32_t bits = key_bits_[k];
      const uint64_t field =
          bits >= 64 ? ~uint64_t(0) : (uint64_t(1) << bits) - 1;
      if (uint64_t(code) > field) {
        // The code overflows its field, so no group's key can carry it:
        // the zero-initialized outputs are already the answer.
        fits = false;
        break;
      }
      mask |= field << key_shifts_[k];
      want |= uint64_t(code) << key_shifts_[k];
    }
    if (!fits) return;
    fused.packed_keys = packed_keys_;
    fused.packed_mask = mask;
    fused.packed_want = want;
  }
  simd::FusedCountSums(fused, observed, matched_size);
}

GroupPostingIndex::GroupPostingIndex(const FlatGroupIndex& index)
    : index_(&index) {
  const auto& pub = index.public_indices();
  postings_.resize(pub.size());
  for (size_t k = 0; k < pub.size(); ++k) {
    postings_[k].resize(index.schema()->attribute(pub[k]).domain.size());
  }
  for (size_t gi = 0; gi < index.num_groups(); ++gi) {
    for (size_t k = 0; k < pub.size(); ++k) {
      postings_[k][index.na_code(gi, k)].push_back(uint32_t(gi));
    }
  }
}

std::vector<uint32_t> GroupPostingIndex::MatchingGroups(
    const Predicate& pred) const {
  std::vector<uint32_t> scratch;
  std::vector<uint32_t> out;
  MatchingGroupsInto(pred, scratch, out);
  return out;
}

void GroupPostingIndex::MatchingGroupsInto(const Predicate& pred,
                                           std::vector<uint32_t>& scratch,
                                           std::vector<uint32_t>& out) const {
  out.clear();
  const auto& pub = index_->public_indices();
  // Collect the posting lists of the bound conditions, smallest first.
  std::vector<const std::vector<uint32_t>*> lists;
  for (size_t k = 0; k < pub.size(); ++k) {
    if (pred.is_bound(pub[k])) {
      const uint32_t code = pred.code(pub[k]);
      if (code >= postings_[k].size()) return;
      lists.push_back(&postings_[k][code]);
    }
  }
  if (lists.empty()) {
    out.resize(index_->num_groups());
    for (size_t gi = 0; gi < out.size(); ++gi) {
      out[gi] = static_cast<uint32_t>(gi);
    }
    return;
  }
  std::sort(lists.begin(), lists.end(),
            [](const auto* a, const auto* b) { return a->size() < b->size(); });
  out.assign(lists[0]->begin(), lists[0]->end());
  for (size_t li = 1; li < lists.size() && !out.empty(); ++li) {
    scratch.clear();
    std::set_intersection(out.begin(), out.end(), lists[li]->begin(),
                          lists[li]->end(), std::back_inserter(scratch));
    std::swap(out, scratch);
  }
}

uint64_t GroupPostingIndex::CountAnswer(const Predicate& pred,
                                        uint32_t sa) const {
  return CountAnswer(pred, sa, SharedScratch());
}

uint64_t GroupPostingIndex::CountAnswer(const Predicate& pred, uint32_t sa,
                                        AnswerScratch& scratch) const {
  // Pool generation makes millions of these calls; the threaded scratch
  // keeps them allocation-free after warmup without a per-kernel
  // thread_local.
  MatchingGroupsInto(pred, scratch.intersect, scratch.groups);
  uint64_t ans = 0;
  for (const uint32_t gi : scratch.groups) ans += index_->sa_count(gi, sa);
  return ans;
}

}  // namespace recpriv::table
