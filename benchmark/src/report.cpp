#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <set>

namespace serve::perf {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid), v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  const double lo = *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lo + hi);
}

TailPercentile tail_percentile(std::vector<double> v) {
  constexpr std::size_t kMinBeyond = 10;
  const std::size_t n = v.size();
  if (n <= kMinBeyond) return {};
  std::sort(v.begin(), v.end());
  const auto nominal = static_cast<std::size_t>(std::ceil(0.99 * static_cast<double>(n)));
  const std::size_t k = std::min(nominal - 1, n - 1 - kMinBeyond);
  return {v[k], 100.0 * static_cast<double>(k + 1) / static_cast<double>(n), n - 1 - k};
}

std::vector<double> batch_rates(const std::vector<double>& sizes,
                                const std::vector<double>& done_s) {
  std::vector<double> rates;
  const std::size_t n = std::min(sizes.size(), done_s.size());
  for (std::size_t k = 1; k < n; ++k) {
    // Two batches finishing on the same clock tick share one interval.
    const double dt = std::max(done_s[k] - done_s[k - 1], 1e-9);
    rates.push_back(sizes[k] / dt);
  }
  return rates;
}

bool step_passes(const LadderStep& s) {
  return s.p99_ms <= 50.0 && s.done_ratio >= 0.99 && s.late_p99_us <= 10'000.0;
}

double max_rate_passing(const std::vector<LadderStep>& steps) {
  double best = 0.0;
  for (const auto& s : steps) {
    if (step_passes(s)) best = std::max(best, s.rate);
  }
  return best;
}

namespace {

bool name_char(char c) {
  return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
         c == '_' || c == '.' || c == '-';
}

}  // namespace

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const char first = name.front();
  if (first == '_' || first == '.' || first == '-') return false;
  return std::all_of(name.begin(), name.end(), name_char);
}

bool valid_unit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(),
                     [](char c) { return name_char(c) || c == '/' || c == '%'; });
}

void Digest::add(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  hex_ += buf;
}

void Digest::add(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  add(bits);
}

namespace {

std::string format_value(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::string validate(const RunResult& r) {
  std::set<std::string> seen;
  std::vector<const Metric*> all;
  for (const auto& m : r.metrics) all.push_back(&m);
  for (const auto& m : r.diagnostics) all.push_back(&m);
  for (const Metric* p : all) {
    const Metric& m = *p;
    if (!valid_metric_name(m.name)) return "bad metric name '" + m.name + "'";
    if (!valid_unit(m.unit)) return "bad unit '" + m.unit + "' for " + m.name;
    if (!std::isfinite(m.value)) return "non-finite value for " + m.name;
    if (!seen.insert(m.name).second) return "duplicate metric " + m.name;
  }
  return {};
}

std::string to_json(const RunResult& r) {
  std::string out = "{\"correct\": ";
  out += r.correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    if (i > 0) out += ", ";
    // Names and units are validated to a JSON-safe alphabet; no escaping.
    out += "\"" + m.name + "\": {\"value\": " + format_value(m.value) + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

std::string metric_line(const Metric& m) {
  return m.name + " " + format_value(m.value) + " " + m.unit;
}

}  // namespace serve::perf
