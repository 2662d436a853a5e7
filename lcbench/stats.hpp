// Statistics and result formatting for the long-context benchmark.
//
// Header-only so the benchmark (main.cpp) and its unit tests (selftest.cpp)
// share one definition of every reported statistic.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hpp"

namespace lcbench {

// Median of a non-empty sample (mean of the two middle values when even).
inline double median(std::vector<double> v) {
  if (v.empty()) {
    throw std::invalid_argument("median of an empty sample");
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Samples the tail rule needs above the reported value.
inline constexpr std::size_t kTailAbove = 10;

// The tail rule: the highest percentile of the sample that leaves at least
// kTailAbove samples above it, i.e. the (n - 10)-th smallest value. Refuses
// samples too small to leave ten above any value.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;  // share of samples at or below `value`, in %
};

inline Tail tail(std::vector<double> v) {
  if (v.size() < kTailAbove + 1) {
    throw std::invalid_argument("tail rule needs at least " +
                                std::to_string(kTailAbove + 1) +
                                " samples, got " + std::to_string(v.size()));
  }
  std::sort(v.begin(), v.end());
  const std::size_t k = v.size() - kTailAbove;  // 1-based rank
  return {v[k - 1], 100.0 * static_cast<double>(k) /
                        static_cast<double>(v.size())};
}

// Median over pairs of num[i] / den[i]: the lockstep ratio that cancels
// host noise common to both sides of a pair.
inline double paired_ratio_median(const std::vector<double>& num,
                                  const std::vector<double>& den) {
  if (num.size() != den.size()) {
    throw std::invalid_argument("paired samples differ in length");
  }
  std::vector<double> r;
  r.reserve(num.size());
  for (std::size_t i = 0; i < num.size(); ++i) {
    if (!(den[i] > 0.0)) {
      throw std::invalid_argument("paired ratio with a non-positive base");
    }
    r.push_back(num[i] / den[i]);
  }
  return median(std::move(r));
}

// Metric names: 1..64 of [A-Za-z0-9_.-], starting with a letter or digit.
inline bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) {
    return false;
  }
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) {
    return false;
  }
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// The result line: one JSON object with exactly correct, attempted, failed
// and metrics. Numbers keep all their digits (%.17g). Throws on an invalid
// or repeated name and on a non-finite value.
inline std::string result_json(bool correct, std::int64_t attempted,
                               std::int64_t failed,
                               const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  std::vector<std::string> seen;
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (!valid_metric_name(m.name) ||
        std::find(seen.begin(), seen.end(), m.name) != seen.end()) {
      throw std::invalid_argument("bad or repeated metric name: " + m.name);
    }
    if (!std::isfinite(m.value)) {
      throw std::invalid_argument("non-finite value for " + m.name);
    }
    seen.push_back(m.name);
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", m.value);
    if (i > 0) {
      out += ", ";
    }
    weipipe::obs::append_json_string(out, m.name);
    out += ": {\"value\": ";
    out += num;
    out += ", \"unit\": ";
    weipipe::obs::append_json_string(out, m.unit);
    out += "}";
  }
  out += "}}";
  return out;
}

}  // namespace lcbench
