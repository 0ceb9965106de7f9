// Compares two sets of bench_serving runs, parent and change, metric by
// metric and workload by workload:
//
//   bench_compare [--spec BENCHMARK.json] --parent p1.json p2.json ...
//                 --change c1.json c2.json ...
//
// Each file is one `bench_serving --out` result. Run i of the parent and run
// i of the change form pair i; make them alternately, on one machine, with
// the same --seconds. For every metric in the files it prints each side's
// median and interquartile distance, the change's win share over the pairs
// (ties count for neither side), the parent's spread (interquartile
// distance over median) and, for the end-to-end metrics BENCHMARK.json
// gates, their regression bound; then a verdict:
//
//   improved    at least 10 pairs, the change wins >= 9/10 of them, and the
//               medians differ in its favour by more than the parent's
//               interquartile distance;
//   regressed   gated: the change's median is worse than the parent's by
//               more than the bound; ungated: the mirror image of improved;
//   unresolved  gated, and the parent's spread exceeds the bound, unless
//               every change run beats every parent run;
//   unchanged   otherwise.
//
// Exits 1 when a gated metric regressed, 2 on bad input.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "llmms/common/json.h"

namespace llmms::perfbench {
namespace {

constexpr size_t kMinPairs = 10;
constexpr double kWinShare = 0.9;

StatusOr<Json> ReadJson(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot read " + path);
  std::stringstream text;
  text << in.rdbuf();
  return Json::Parse(text.str());
}

// Quartiles as Python's statistics.quantiles(values, n=4) computes them
// (the "exclusive" method), so spreads match the ones the runs are judged
// by elsewhere.
struct Quartiles {
  double q1 = 0.0, median = 0.0, q3 = 0.0;
};
Quartiles QuartilesOf(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  if (v.size() == 1) return {v[0], v[0], v[0]};
  const long n = static_cast<long>(v.size());
  double q[3];
  for (long i = 1; i <= 3; ++i) {
    const long j = std::clamp(i * (n + 1) / 4, 1L, n - 1);
    const long delta = i * (n + 1) - j * 4;
    q[i - 1] = (v[j - 1] * (4 - delta) + v[j] * delta) / 4.0;
  }
  return {q[0], q[1], q[2]};
}

std::string Verdict(const std::vector<double>& parent,
                    const std::vector<double>& change, bool higher,
                    double bound) {
  // Signed improvement of b over a: > 0 when b is better.
  auto gain = [&](double a, double b) { return higher ? b - a : a - b; };
  const size_t n = std::min(parent.size(), change.size());
  size_t wins = 0, losses = 0;
  for (size_t i = 0; i < n; ++i) {
    const double g = gain(parent[i], change[i]);
    wins += g > 0.0;
    losses += g < 0.0;
  }
  const Quartiles p = QuartilesOf(parent);
  const Quartiles c = QuartilesOf(change);
  const double iqr = p.q3 - p.q1;
  const double diff = gain(p.median, c.median);
  const bool enough = n >= kMinPairs;
  const bool gained = enough && wins >= kWinShare * n && diff > iqr;
  if (bound < 0.0) {
    if (gained) return "improved";
    if (enough && losses >= kWinShare * n && -diff > iqr) return "regressed";
    return "unchanged";
  }
  const auto [pmin, pmax] = std::minmax_element(parent.begin(), parent.end());
  const auto [cmin, cmax] = std::minmax_element(change.begin(), change.end());
  const bool every_change_better =
      higher ? *cmin > *pmax : *cmax < *pmin;
  const double spread = p.median != 0.0 ? iqr / std::abs(p.median) : 0.0;
  if (spread > bound && !every_change_better) return "unresolved";
  if (p.median != 0.0 && -diff / std::abs(p.median) > bound) {
    return "regressed";
  }
  return gained ? "improved" : "unchanged";
}

int Main(int argc, char** argv) {
  std::string spec_path = "BENCHMARK.json";
  std::vector<std::string> files[2];  // parent, change
  std::vector<std::string>* target = nullptr;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--spec" && i + 1 < argc) {
      spec_path = argv[++i];
      target = nullptr;
    } else if (arg == "--parent") {
      target = &files[0];
    } else if (arg == "--change") {
      target = &files[1];
    } else if (target != nullptr) {
      target->push_back(arg);
    } else {
      std::fprintf(stderr,
                   "usage: bench_compare [--spec BENCHMARK.json] --parent "
                   "FILE... --change FILE...\n");
      return 2;
    }
  }
  if (files[0].empty() || files[1].empty()) {
    std::fprintf(stderr, "bench_compare: need --parent and --change runs\n");
    return 2;
  }

  auto spec = ReadJson(spec_path);
  if (!spec.ok()) {
    std::fprintf(stderr, "bench_compare: %s\n",
                 spec.status().ToString().c_str());
    return 2;
  }
  std::map<std::string, double> bounds;  // gated end-to-end metrics
  for (const auto& m : (*spec)["end_to_end"].AsArray()) {
    bounds[m["name"].AsString()] = m["bound"].AsDouble();
  }

  std::vector<Json> runs[2];
  for (int side = 0; side < 2; ++side) {
    for (const auto& path : files[side]) {
      auto run = ReadJson(path);
      if (!run.ok()) {
        std::fprintf(stderr, "bench_compare: %s: %s\n", path.c_str(),
                     run.status().ToString().c_str());
        return 2;
      }
      runs[side].push_back(std::move(run).value());
    }
  }
  const size_t pairs = std::min(runs[0].size(), runs[1].size());
  if (pairs < kMinPairs) {
    std::printf("note: %zu pairs; a gain needs at least %zu\n", pairs,
                kMinPairs);
  }

  bool regressed = false;
  std::printf("%-14s %-34s %11s %10s %11s %10s %5s %7s %5s  %s\n", "workload",
              "metric", "parent_med", "parent_iqr", "change_med", "change_iqr",
              "win", "spread", "bound", "verdict");
  for (const auto& [workload, entry] : runs[0][0]["workloads"].AsObject()) {
    for (const char* section : {"end_to_end", "per_layer"}) {
      for (const auto& [name, first] : entry[section].AsObject()) {
        std::vector<double> values[2];
        for (int side = 0; side < 2; ++side) {
          for (const auto& run : runs[side]) {
            const Json& m = run["workloads"][workload][section][name];
            if (!m.is_null()) values[side].push_back(m["value"].AsDouble());
          }
        }
        if (values[0].empty() || values[1].empty()) continue;
        const bool higher = first["better"].AsString() == "higher";
        const bool gated =
            std::string(section) == "end_to_end" && bounds.count(name) > 0;
        const double bound = gated ? bounds[name] : -1.0;
        const std::string verdict =
            Verdict(values[0], values[1], higher, bound);
        regressed |= gated && verdict == "regressed";

        const Quartiles p = QuartilesOf(values[0]);
        const Quartiles c = QuartilesOf(values[1]);
        size_t wins = 0;
        const size_t n = std::min(values[0].size(), values[1].size());
        for (size_t i = 0; i < n; ++i) {
          wins += higher ? values[1][i] > values[0][i]
                         : values[1][i] < values[0][i];
        }
        char bound_text[16] = "-";
        if (gated) std::snprintf(bound_text, sizeof(bound_text), "%.2f", bound);
        std::printf(
            "%-14s %-34s %11.5g %10.4g %11.5g %10.4g %5.2f %7.4f %5s  %s\n",
            workload.c_str(), name.c_str(), p.median, p.q3 - p.q1, c.median,
            c.q3 - c.q1, static_cast<double>(wins) / n,
            p.median != 0.0 ? (p.q3 - p.q1) / std::abs(p.median) : 0.0,
            bound_text, verdict.c_str());
      }
    }
  }
  return regressed ? 1 : 0;
}

}  // namespace
}  // namespace llmms::perfbench

int main(int argc, char** argv) { return llmms::perfbench::Main(argc, argv); }
