#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>

namespace perfbench {

void RunResult::fail(const std::string& why) {
  ++failed_;
  // Enough to diagnose, without flooding stderr on a systematic failure.
  if (reasons_printed_ < 20) {
    ++reasons_printed_;
    std::cerr << "perfbench: check failed: " << why << "\n";
  }
}

std::string RunResult::to_json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"values\": {";
  bool first = true;
  for (const auto& [name, value] : values_) {
    char buf[160];
    if (std::isfinite(value))
      std::snprintf(buf, sizeof(buf), "%s\"%s\": %.17g", first ? "" : ", ",
                    name.c_str(), value);
    else
      std::snprintf(buf, sizeof(buf), "%s\"%s\": null", first ? "" : ", ",
                    name.c_str());
    out += buf;
    first = false;
  }
  out += "}}";
  return out;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return quantile(v, 0.5);
}

double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

Tail tail(const std::vector<double>& sorted) {
  for (const double q : {0.999, 0.99, 0.95, 0.9, 0.5})
    if (static_cast<double>(sorted.size()) * (1.0 - q) >= 10.0 - 1e-9)
      return Tail{q, quantile(sorted, q)};
  return Tail{0.5, quantile(sorted, 0.5)};
}

double peak_rss_mib() {
  rusage usage{};
  if (::getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
