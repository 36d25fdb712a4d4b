// Shared seed and fixture helpers for the test suites and benches — the
// ONE place the harness's RNG plumbing lives, so every seeded suite
// reproduces the same way and a failure prints the seed that re-runs it.
//
// gtest-free by design: the bench binaries include this header too (the
// CMake test/bench targets add tests/ to their include path).

#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "analysis/demo.h"
#include "client/api.h"
#include "common/result.h"

namespace recpriv::testing {

/// The seed a suite/bench should run with: `fallback` unless the
/// RECPRIV_SEED environment variable overrides it (for reproducing a CI
/// failure or widening local fuzzing). An override is announced on stderr
/// so a log always records which seed actually ran.
inline uint64_t HarnessSeed(uint64_t fallback) {
  const char* env = std::getenv("RECPRIV_SEED");
  if (env == nullptr || *env == '\0') return fallback;
  const uint64_t seed = std::strtoull(env, nullptr, 0);
  std::fprintf(stderr, "RECPRIV_SEED=%llu (overriding %llu)\n",
               static_cast<unsigned long long>(seed),
               static_cast<unsigned long long>(fallback));
  return seed;
}

/// The shared demo release (analysis/demo.h) at test scale (~1k records by
/// default); distinct seeds give genuinely different observed counts.
/// Aborts on generation failure — a fixture, not a code path under test.
inline recpriv::analysis::ReleaseBundle DemoBundle(
    uint64_t seed, size_t base_group_size = 100) {
  auto bundle = recpriv::analysis::MakeDemoReleaseBundle(seed,
                                                         base_group_size);
  if (!bundle.ok()) {
    std::fprintf(stderr, "demo bundle generation failed: %s\n",
                 bundle.status().ToString().c_str());
    std::abort();
  }
  return *std::move(bundle);
}

/// `prefix` followed by the decimal `n`, built by appending: GCC 12 -O3
/// misreports `"lit" + std::to_string(n)` as an overlapping copy
/// (-Wrestrict).
inline std::string Numbered(std::string prefix, uint64_t n) {
  return prefix += std::to_string(n);
}

/// The identity of an answer batch, excluding the cache flags (whether a
/// row came from the LRU is timing-dependent; the counts must not be).
inline std::string AnswerFingerprint(const recpriv::client::BatchAnswer& batch) {
  // Appends only, for the reason given at Numbered.
  std::string out = batch.release;
  out += '@';
  out += std::to_string(batch.epoch);
  for (const auto& row : batch.answers) {
    out += '|';
    out += std::to_string(row.observed);
    out += ',';
    out += std::to_string(row.matched_size);
    out += ',';
    out += std::to_string(row.estimate);
  }
  return out;
}

}  // namespace recpriv::testing
