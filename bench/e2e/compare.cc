#include "compare.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <vector>

#include "common/json.h"

namespace recpriv::e2e {

namespace {

namespace fs = std::filesystem;

Result<JsonValue> ReadJsonFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot read " + path);
  std::stringstream text;
  text << in.rdbuf();
  return JsonValue::Parse(text.str());
}

/// values[workload][metric] over the untraced records under `path`.
using Samples =
    std::map<std::string, std::map<std::string, std::vector<double>>>;

Result<Samples> LoadRecords(const std::string& path, size_t* records,
                            size_t* invalid) {
  std::vector<std::string> files;
  if (fs::is_directory(path)) {
    for (const auto& entry : fs::directory_iterator(path)) {
      if (entry.is_regular_file() && entry.path().extension() == ".json") {
        files.push_back(entry.path().string());
      }
    }
    std::sort(files.begin(), files.end());
  } else {
    files.push_back(path);
  }
  Samples out;
  for (const std::string& file : files) {
    RECPRIV_ASSIGN_OR_RETURN(JsonValue record, ReadJsonFile(file));
    RECPRIV_ASSIGN_OR_RETURN(const JsonValue* trace,
                             RequireField(record, "trace"));
    RECPRIV_ASSIGN_OR_RETURN(bool traced, trace->AsBool());
    if (traced) continue;  // end-to-end metrics come from untraced runs only
    RECPRIV_ASSIGN_OR_RETURN(std::string workload,
                             RequireString(record, "workload"));
    RECPRIV_ASSIGN_OR_RETURN(const JsonValue* valid,
                             RequireField(record, "valid"));
    if (!valid->AsBool().ValueOr(false)) ++*invalid;
    RECPRIV_ASSIGN_OR_RETURN(const JsonValue* metrics,
                             RequireField(record, "metrics"));
    for (const std::string& name : metrics->Keys()) {
      RECPRIV_ASSIGN_OR_RETURN(const JsonValue* m, metrics->Get(name));
      RECPRIV_ASSIGN_OR_RETURN(double value, RequireDouble(*m, "value"));
      out[workload][name].push_back(value);
    }
    ++*records;
  }
  return out;
}

/// Quartiles as Python's statistics.quantiles(values, n=4) computes them
/// (the default "exclusive" method); q[1] is the median.
std::vector<double> Quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  if (v.size() == 1) return {v[0], v[0], v[0]};
  std::vector<double> q;
  const size_t m = v.size() + 1;
  for (size_t i = 1; i <= 3; ++i) {
    const size_t j = std::clamp<size_t>(i * m / 4, 1, v.size() - 1);
    const double delta = double(i * m) - double(j * 4);
    q.push_back((v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0);
  }
  return q;
}

std::string Fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4g", v);
  return buf;
}

}  // namespace

Result<std::map<std::string, MetricSpec>> LoadMetricSpecs(
    const std::string& benchmark_path, const std::string& section) {
  RECPRIV_ASSIGN_OR_RETURN(JsonValue doc, ReadJsonFile(benchmark_path));
  RECPRIV_ASSIGN_OR_RETURN(const JsonValue* list, RequireField(doc, section));
  std::map<std::string, MetricSpec> out;
  for (size_t i = 0; i < list->size(); ++i) {
    RECPRIV_ASSIGN_OR_RETURN(const JsonValue* entry, list->At(i));
    RECPRIV_ASSIGN_OR_RETURN(std::string name, RequireString(*entry, "name"));
    MetricSpec spec;
    RECPRIV_ASSIGN_OR_RETURN(spec.unit, RequireString(*entry, "unit"));
    RECPRIV_ASSIGN_OR_RETURN(spec.better, RequireString(*entry, "better"));
    if (entry->Has("bound")) {
      RECPRIV_ASSIGN_OR_RETURN(spec.bound, RequireDouble(*entry, "bound"));
    }
    out.emplace(std::move(name), spec);
  }
  return out;
}

int RunCompare(const std::string& a, const std::string& b,
               const std::string& benchmark_path, std::ostream& out) {
  auto specs = LoadMetricSpecs(benchmark_path, "end_to_end");
  if (!specs.ok()) {
    std::cerr << specs.status() << "\n";
    return 2;
  }
  size_t records_a = 0, records_b = 0, invalid_a = 0, invalid_b = 0;
  auto side_a = LoadRecords(a, &records_a, &invalid_a);
  auto side_b = LoadRecords(b, &records_b, &invalid_b);
  if (!side_a.ok() || !side_b.ok()) {
    std::cerr << (side_a.ok() ? side_b.status() : side_a.status()) << "\n";
    return 2;
  }
  out << "A: " << a << " (" << records_a << " untraced records, " << invalid_a
      << " invalid)\nB: " << b << " (" << records_b << " untraced records, "
      << invalid_b << " invalid)\n";
  out << "workload metric unit A_median [A_q1 A_q3] nA B_median [B_q1 B_q3] "
         "nB B_worse_by spread bound verdict\n";
  std::set<std::string> workloads;
  for (const auto& [w, _] : *side_a) workloads.insert(w);
  for (const auto& [w, _] : *side_b) workloads.insert(w);
  int worse = 0;
  for (const std::string& w : workloads) {
    for (const auto& [name, spec] : *specs) {
      const std::vector<double> va = (*side_a)[w][name];
      const std::vector<double> vb = (*side_b)[w][name];
      if (va.empty() || vb.empty()) {
        out << w << " " << name << " " << spec.unit << " missing\n";
        continue;
      }
      const std::vector<double> qa = Quartiles(va), qb = Quartiles(vb);
      const double sign = spec.better == "higher" ? -1.0 : 1.0;
      // Positive means B is worse than A.
      const double change = sign * (qb[1] - qa[1]) / qa[1];
      const double spread =
          std::max((qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1]);
      const bool b_always_better =
          sign > 0 ? *std::max_element(vb.begin(), vb.end()) <
                         *std::min_element(va.begin(), va.end())
                   : *std::min_element(vb.begin(), vb.end()) >
                         *std::max_element(va.begin(), va.end());
      std::string verdict;
      if (b_always_better) {
        verdict = "better";
      } else if (change > spec.bound) {
        verdict = "worse";
        ++worse;
      } else if (spread > spec.bound) {
        verdict = "unresolved";
      } else if (-change > spec.bound) {
        verdict = "better";
      } else {
        verdict = "same";
      }
      out << w << " " << name << " " << spec.unit << " " << Fmt(qa[1]) << " ["
          << Fmt(qa[0]) << " " << Fmt(qa[2]) << "] " << va.size() << " "
          << Fmt(qb[1]) << " [" << Fmt(qb[0]) << " " << Fmt(qb[2]) << "] "
          << vb.size() << " " << Fmt(100.0 * change) << "% "
          << Fmt(100.0 * spread) << "% " << Fmt(100.0 * spec.bound) << "% "
          << verdict << "\n";
    }
  }
  return worse > 0 ? 1 : 0;
}

}  // namespace recpriv::e2e
