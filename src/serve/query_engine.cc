#include "serve/query_engine.h"

#include <string_view>
#include <unordered_map>
#include <utility>

#include "perturb/mle.h"
#include "perturb/uniform_perturbation.h"
#include "query/canonical.h"
#include "serve/admission.h"

namespace recpriv::serve {

using recpriv::analysis::ReleaseSnapshot;
using recpriv::query::CountQuery;
using recpriv::table::FlatGroupIndex;
using recpriv::table::Predicate;

namespace {

/// (release name, snapshot content digest, canonical query bytes) — see
/// answer_cache.h. The digest, not the epoch number, identifies what the
/// snapshot answers: Drop followed by OpenSnapshot (replication, restart
/// recovery) can reinstall a previously-used epoch number with different
/// data, and an epoch-keyed cache would serve answers from the dropped
/// release. Keying on the digest makes that impossible — and lets a
/// bit-identical republish (e.g. an incremental publish with an empty
/// delta) keep its warm cache for free.
std::string CacheKey(const std::string& release, uint64_t content_digest,
                     const CountQuery& q) {
  std::string key;
  key.reserve(release.size() + 9 + q.na_predicate.num_bound() * 8 + 5);
  key += release;
  key.push_back('\0');
  for (int shift = 0; shift < 64; shift += 8) {
    key.push_back(char((content_digest >> shift) & 0xFF));
  }
  key += recpriv::query::CanonicalKey(q);
  return key;
}

Answer MakeAnswer(const ReleaseSnapshot& snap, uint64_t observed,
                  uint64_t matched_size) {
  // snap.up was constructed and validated once at snapshot time — no
  // per-answer operator construction on the hot path.
  Answer a;
  a.observed = observed;
  a.matched_size = matched_size;
  a.estimate = recpriv::perturb::MleCount(snap.up, observed, matched_size);
  return a;
}

/// NA-key match of one flat-indexed group, without touching rows.
bool GroupMatches(const FlatGroupIndex& index, size_t gi,
                  const Predicate& pred) {
  const auto& pub = index.public_indices();
  for (size_t k = 0; k < pub.size(); ++k) {
    if (pred.is_bound(pub[k]) && pred.code(pub[k]) != index.na_code(gi, k)) {
      return false;
    }
  }
  return true;
}

Status ValidateBatchForSnapshot(const ReleaseSnapshot& snap,
                                const std::vector<CountQuery>& batch) {
  const auto& schema = *snap.bundle.data.schema();
  const size_t m = schema.sa_domain_size();
  const size_t sa_index = schema.sensitive_index();
  for (const CountQuery& q : batch) {
    if (q.na_predicate.num_attributes() != schema.num_attributes()) {
      return Status::InvalidArgument(
          "query predicate arity does not match the release schema");
    }
    if (q.sa_code >= m) {
      return Status::InvalidArgument(
          "query SA code is outside the release's SA domain");
    }
    if (q.na_predicate.is_bound(sa_index)) {
      return Status::InvalidArgument(
          "query predicate must not bind the sensitive attribute (the SA "
          "condition goes in sa_code)");
    }
  }
  return Status::OK();
}

}  // namespace

Answer EvaluateUncached(const ReleaseSnapshot& snap, const CountQuery& q) {
  // Fused scan: no match list is materialized and nothing is allocated.
  uint64_t observed = 0;
  uint64_t matched_size = 0;
  snap.index.AnswerInto(q.na_predicate, q.sa_code, &observed, &matched_size);
  return MakeAnswer(snap, observed, matched_size);
}

QueryEngine::QueryEngine(std::shared_ptr<ReleaseStore> store,
                         QueryEngineOptions options)
    : store_(std::move(store)),
      options_(options),
      cache_(options.cache_capacity),
      pool_(options.num_threads) {
  if (options_.tenant_quota_qps > 0.0) {
    AdmissionOptions admission_options;
    admission_options.quota_qps = options_.tenant_quota_qps;
    admission_options.quota_burst = options_.tenant_quota_burst;
    admission_ = std::make_unique<AdmissionController>(admission_options);
  }
}

QueryEngine::~QueryEngine() = default;

Result<BatchResult> QueryEngine::AnswerBatch(
    const std::string& release, const std::vector<CountQuery>& batch) {
  RECPRIV_ASSIGN_OR_RETURN(SnapshotPtr snap_ptr, store_->Get(release));
  return AnswerBatch(release, std::move(snap_ptr), batch);
}

Result<BatchResult> QueryEngine::AnswerBatch(
    const std::string& release, SnapshotPtr snap_ptr,
    const std::vector<CountQuery>& batch, const Deadline& deadline) {
  // Shed before the pool: evaluating a batch nobody is waiting for would
  // spend workers on dead work under exactly the overload that set the
  // deadline off.
  if (DeadlineExpired(deadline)) {
    return Status::DeadlineExceeded(
        "deadline passed before the batch reached the engine");
  }
  if (snap_ptr == nullptr) {
    return Status::InvalidArgument("AnswerBatch: null snapshot");
  }
  RECPRIV_RETURN_NOT_OK(ValidateBatchForSnapshot(*snap_ptr, batch));
  const ReleaseSnapshot& snap = *snap_ptr;  // pinned for the whole batch

  BatchResult result;
  result.epoch = snap.epoch;
  result.answers.resize(batch.size());

  // Cache pass: serve hits, collect misses. Semantically duplicate queries
  // within the batch (same canonical key) are evaluated once — `dups`
  // records (duplicate index, first-occurrence index) pairs to copy after
  // evaluation. With caching disabled (capacity 0) the LRU and its lock
  // are skipped entirely, and for a single-query uncached batch (the
  // per-request serving regime) no key is built at all — dedup cannot
  // fire there, so the string and hash-map work would be pure overhead.
  const bool use_cache = options_.cache_capacity > 0;
  const bool dedup = use_cache || batch.size() > 1;
  std::vector<size_t> miss;
  std::vector<std::pair<size_t, size_t>> dups;
  std::vector<std::string> keys(dedup ? batch.size() : 0);
  std::unordered_map<std::string_view, size_t> first_miss;
  miss.reserve(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    if (!dedup) {
      miss.push_back(i);
      continue;
    }
    keys[i] = use_cache ? CacheKey(release, snap.content_digest, batch[i])
                        : recpriv::query::CanonicalKey(batch[i]);
    CachedAnswer hit;
    if (use_cache && cache_.Lookup(keys[i], &hit)) {
      result.answers[i] =
          Answer{hit.observed, hit.matched_size, hit.estimate, true};
      ++result.cache_hits;
      continue;
    }
    auto [it, inserted] = first_miss.emplace(keys[i], i);
    if (inserted) {
      miss.push_back(i);
    } else {
      dups.emplace_back(i, it->second);
    }
  }
  result.cache_misses = batch.size() - result.cache_hits;
  if (miss.empty() && dups.empty()) return result;

  // A posting pass costs ~(matched groups) per query; a group-shard pass
  // costs one scan of all groups for the whole batch. Prefer the scan once
  // the batch is a sizable fraction of the group count.
  result.strategy_used = miss.size() * 4 >= snap.index.num_groups()
                             ? EvalStrategy::kGroupShard
                             : EvalStrategy::kPostings;

  if (result.strategy_used == EvalStrategy::kPostings) {
    pool_.ParallelFor(
        0, miss.size(), pool_.GrainFor(miss.size()),
        [&](size_t lo, size_t hi) {
          // Scratch lives per chunk: reused across the chunk's queries,
          // never shared between workers, and released when the chunk
          // ends — the engine is the owner of its kernels' memory.
          table::AnswerScratch scratch;
          for (size_t k = lo; k < hi; ++k) {
            const CountQuery& q = batch[miss[k]];
            snap.postings->MatchingGroupsInto(q.na_predicate,
                                              scratch.intersect,
                                              scratch.groups);
            uint64_t observed = 0;
            uint64_t matched_size = 0;
            for (uint32_t gi : scratch.groups) {
              observed += snap.index.sa_count(gi, q.sa_code);
              matched_size += snap.index.group_size(gi);
            }
            result.answers[miss[k]] = MakeAnswer(snap, observed, matched_size);
          }
        });
  } else {
    // Shard-by-group: every worker scans a contiguous shard of groups once
    // for all uncached queries, then the per-shard partial sums reduce.
    const size_t num_groups = snap.index.num_groups();
    const size_t grain = pool_.GrainFor(num_groups, /*min_grain=*/64);
    const size_t num_shards = num_groups == 0 ? 0 : (num_groups + grain - 1) / grain;
    std::vector<std::vector<std::pair<uint64_t, uint64_t>>> partials(
        num_shards);
    pool_.ParallelFor(0, num_groups, grain, [&](size_t lo, size_t hi) {
      auto& part = partials[lo / grain];  // chunks are grain-aligned
      part.assign(miss.size(), {0, 0});
      for (size_t gi = lo; gi < hi; ++gi) {
        const uint64_t size = snap.index.group_size(gi);
        for (size_t k = 0; k < miss.size(); ++k) {
          const CountQuery& q = batch[miss[k]];
          if (GroupMatches(snap.index, gi, q.na_predicate)) {
            part[k].first += snap.index.sa_count(gi, q.sa_code);
            part[k].second += size;
          }
        }
      }
    });
    for (size_t k = 0; k < miss.size(); ++k) {
      uint64_t observed = 0;
      uint64_t matched_size = 0;
      for (const auto& part : partials) {
        if (part.empty()) continue;  // shard never ran (empty range)
        observed += part[k].first;
        matched_size += part[k].second;
      }
      result.answers[miss[k]] = MakeAnswer(snap, observed, matched_size);
    }
  }

  for (const auto& [dup, original] : dups) {
    result.answers[dup] = result.answers[original];
  }
  if (use_cache) {
    for (size_t k : miss) {
      const Answer& a = result.answers[k];
      cache_.Insert(keys[k], CachedAnswer{a.observed, a.matched_size,
                                          a.estimate});
    }
  }
  return result;
}

std::optional<client::TenantStats> QueryEngine::tenant_stats() const {
  if (admission_ == nullptr) return std::nullopt;
  return admission_->Stats();
}

Result<Answer> QueryEngine::AnswerOne(const std::string& release,
                                      const CountQuery& q) {
  RECPRIV_ASSIGN_OR_RETURN(BatchResult batch, AnswerBatch(release, {q}));
  return batch.answers[0];
}

}  // namespace recpriv::serve
