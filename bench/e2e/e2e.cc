#include "e2e.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <thread>
#include <utility>

#include "workload/synthetic.h"

namespace recpriv::e2e {

double NearestRank(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = std::max<size_t>(
      1, size_t(std::ceil(p * double(v.size()) - 1e-9)));
  return v[std::min(rank, v.size()) - 1];
}

size_t SamplesBeyond(size_t n, double p) {
  const size_t rank =
      std::max<size_t>(1, size_t(std::ceil(p * double(n) - 1e-9)));
  return n > rank ? n - rank : 0;
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / double(v.size());
}

std::vector<std::vector<double>> SplitWindows(const std::vector<double>& at_s,
                                              const std::vector<double>& values,
                                              double window_s, double span_s) {
  const size_t count = size_t(std::floor(span_s / window_s + 1e-9));
  std::vector<std::vector<double>> windows(count);
  for (size_t i = 0; i < at_s.size() && i < values.size(); ++i) {
    if (at_s[i] < 0.0) continue;
    const size_t w = size_t(at_s[i] / window_s);
    if (w < count) windows[w].push_back(values[i]);
  }
  return windows;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

Streams::Streams(uint64_t seed) {
  Rng master(seed);
  data = master.Fork();
  sps = master.Fork();
  queries = master.Fork();
  arrivals = master.Fork();
  delta = master.Fork();
  probe = master.Fork();
}

// --- QueryMix --------------------------------------------------------------

QueryMix::QueryMix(const table::Schema& schema,
                   const std::vector<double>& dim_weights, double zipf_s)
    : sa_sampler_(workload::ZipfWeights(schema.sa_domain_size(), zipf_s)),
      dim_sampler_(dim_weights) {
  for (size_t a : schema.public_indices()) {
    const table::Attribute& attr = schema.attribute(a);
    attrs_.push_back(Attr{attr.name, attr.domain.values()});
    value_samplers_.emplace_back(
        workload::ZipfWeights(attr.domain.size(), zipf_s));
  }
  sa_values_ = schema.sensitive().domain.values();
}

uint64_t QueryMix::Draw(Rng& rng) const {
  const size_t d = std::min(dim_sampler_.Sample(rng), attrs_.size());
  const std::vector<uint64_t> chosen =
      SampleWithoutReplacement(rng, attrs_.size(), d);
  std::vector<uint64_t> digit(attrs_.size(), 0);
  for (uint64_t k : chosen) digit[k] = value_samplers_[k].Sample(rng) + 1;
  uint64_t key = sa_sampler_.Sample(rng);
  uint64_t radix = sa_values_.size();
  for (size_t k = 0; k < attrs_.size(); ++k) {
    key += digit[k] * radix;
    radix *= attrs_[k].values.size() + 1;
  }
  return key;
}

client::QuerySpec QueryMix::Spec(uint64_t key) const {
  client::QuerySpec spec;
  spec.sa = sa_values_[key % sa_values_.size()];
  key /= sa_values_.size();
  for (const Attr& attr : attrs_) {
    const uint64_t digit = key % (attr.values.size() + 1);
    key /= attr.values.size() + 1;
    if (digit > 0) spec.where.emplace_back(attr.name, attr.values[digit - 1]);
  }
  return spec;
}

size_t QueryMix::Dimensionality(uint64_t key) const {
  key /= sa_values_.size();
  size_t d = 0;
  for (const Attr& attr : attrs_) {
    if (key % (attr.values.size() + 1) != 0) ++d;
    key /= attr.values.size() + 1;
  }
  return d;
}

// --- verification ------------------------------------------------------------

std::vector<AnswerRecord> Flatten(AnswerLog log) {
  size_t total = 0;
  for (const auto& chunk : log) total += chunk.size();
  std::vector<AnswerRecord> out;
  out.reserve(total);
  for (auto& chunk : log) {
    out.insert(out.end(), chunk.begin(), chunk.end());
    std::vector<AnswerRecord>().swap(chunk);
  }
  return out;
}

void RecordAnswers(const std::vector<uint64_t>& keys,
                   const client::BatchAnswer& answer,
                   std::vector<AnswerRecord>* out) {
  // A batch whose row count differs from its query count is a protocol
  // failure verification must see: its rows are recorded with an impossible
  // estimate, so every one of them mismatches.
  const bool intact = answer.answers.size() == keys.size();
  for (size_t i = 0; i < keys.size(); ++i) {
    if (!intact) {
      out->push_back(AnswerRecord{keys[i], answer.epoch, 0, 0, -1.0});
      continue;
    }
    const client::AnswerRow& row = answer.answers[i];
    out->push_back(AnswerRecord{keys[i], answer.epoch, row.observed,
                                row.matched_size, row.estimate});
  }
}

void Verification::Merge(const Verification& other) {
  verified += other.verified;
  mismatches += other.mismatches;
  unknown_epochs += other.unknown_epochs;
  for (const std::string& d : other.details) {
    if (details.size() < 5) details.push_back(d);
  }
}

namespace {

bool SameAnswer(const AnswerRecord& a, const AnswerRecord& b) {
  // Bit-exact, estimate included: the serving stack must be
  // answer-preserving, so even a last-ulp difference is a mismatch.
  return a.observed == b.observed && a.matched == b.matched &&
         std::memcmp(&a.estimate, &b.estimate, sizeof(double)) == 0;
}

}  // namespace

Verification VerifyRecords(const workload::Oracle& oracle, const QueryMix& mix,
                           std::vector<AnswerRecord> records) {
  std::sort(records.begin(), records.end(),
            [](const AnswerRecord& a, const AnswerRecord& b) {
              return a.epoch != b.epoch ? a.epoch < b.epoch : a.key < b.key;
            });
  // Group boundaries: one oracle evaluation per distinct (epoch, key).
  std::vector<size_t> starts;
  for (size_t i = 0; i < records.size(); ++i) {
    if (i == 0 || records[i].epoch != records[i - 1].epoch ||
        records[i].key != records[i - 1].key) {
      starts.push_back(i);
    }
  }
  starts.push_back(records.size());
  const size_t groups = starts.size() - 1;

  const size_t threads = std::clamp<size_t>(
      std::thread::hardware_concurrency(), 1, 4);
  std::vector<Verification> parts(threads);
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      Verification& part = parts[t];
      for (size_t g = t; g < groups; g += threads) {
        const AnswerRecord& first = records[starts[g]];
        client::BatchAnswer answer;
        answer.release = kRelease;
        answer.epoch = first.epoch;
        answer.answers.push_back(client::AnswerRow{
            first.observed, first.matched, first.estimate, false});
        std::string detail;
        const auto verdict =
            oracle.Verify(kRelease, {mix.Spec(first.key)}, answer, &detail);
        const size_t count = starts[g + 1] - starts[g];
        if (verdict == workload::Oracle::Verdict::kUnknownEpoch) {
          part.unknown_epochs += count;
          if (part.details.size() < 5) {
            part.details.push_back("epoch " + std::to_string(first.epoch) +
                                   " was never registered");
          }
          continue;
        }
        if (verdict == workload::Oracle::Verdict::kMismatch) {
          part.mismatches += count;
          if (part.details.size() < 5) part.details.push_back(detail);
          continue;
        }
        for (size_t i = starts[g]; i < starts[g + 1]; ++i) {
          if (SameAnswer(records[i], first)) {
            ++part.verified;
          } else {
            ++part.mismatches;
            if (part.details.size() < 5) {
              part.details.push_back(
                  "query key " + std::to_string(first.key) + " @epoch " +
                  std::to_string(first.epoch) +
                  " answered differently across requests");
            }
          }
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  Verification out;
  for (const Verification& part : parts) out.Merge(part);
  return out;
}

}  // namespace recpriv::e2e
