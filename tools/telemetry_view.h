// The one reading layer behind the `servescope` CLI.
//
// Every subcommand loads its input through load_json()/load_telemetry() and
// reads a servescope-telemetry-v1 export through the digests below, so two
// subcommands shown the same file agree on every number: one loader, one
// instrument digest, one capacity-section parser, one cumulative-bucket
// quantile, one sparkline. Header-only so the tests can include it the way
// they include json_mini.h.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "json_mini.h"

namespace telemetry {

using jsonmini::Value;

inline constexpr std::string_view kSchema = "servescope-telemetry-v1";
/// Columns of every sparkline.
inline constexpr std::size_t kSparkWidth = 64;
/// Busy fraction at which a modeled resource is flagged saturated.
inline constexpr double kSaturated = 0.9;

/// Reports unusable input on stderr and exits 2 — the CLI-wide exit code for
/// unreadable, malformed or wrong-schema input.
[[noreturn]] inline void fail_input(const std::string& what) {
  std::fprintf(stderr, "servescope: %s\n", what.c_str());
  std::exit(2);
}

/// Reads and parses one JSON file; exits 2 with the parser's error on
/// failure (including truncated files and hostile nesting).
/// `benchmark_nonfinite` is for google-benchmark output (json_mini.h).
inline Value load_json(const std::string& path, bool benchmark_nonfinite = false) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail_input("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();  // Parser keeps a view; must outlive it
  jsonmini::Parser parser{text, benchmark_nonfinite};
  auto doc = parser.parse();
  if (!doc) fail_input("malformed JSON in " + path + ": " + parser.error());
  return std::move(*doc);
}

/// load_json() plus the servescope-telemetry-v1 schema check.
inline Value load_telemetry(const std::string& path) {
  Value doc = load_json(path);
  if (doc.str_or("schema", "") != kSchema) {
    fail_input(path + " is not a servescope-telemetry-v1 file");
  }
  return doc;
}

/// A JSON number as a count; anything negative or beyond 2^63 reads as 0.
inline std::uint64_t to_count(double x) {
  return x > 0.0 && x < 9.2e18 ? static_cast<std::uint64_t>(x) : 0;
}

/// The numbers of a JSON array (non-numbers read as 0); empty when absent.
inline std::vector<double> numbers(const Value* array) {
  std::vector<double> out;
  if (array == nullptr || !array->is_array()) return out;
  out.reserve(array->array.size());
  for (const Value& x : array->array) out.push_back(x.number);
  return out;
}

inline double mean_over(const std::vector<double>& v, std::size_t lo, std::size_t hi) {
  if (hi <= lo) return 0.0;
  double sum = 0.0;
  for (std::size_t i = lo; i < hi; ++i) sum += v[i];
  return sum / static_cast<double>(hi - lo);
}

// --- latency histogram --------------------------------------------------------

struct Histogram {
  std::uint64_t count = 0;
  double min = 0.0, max = 0.0;
  std::vector<std::pair<double, std::uint64_t>> buckets;  ///< (le, cumulative)
};

/// Quantile from cumulative buckets with linear interpolation inside the
/// containing bucket, clamped to the observed [min, max] (the top bucket's
/// `le` may lie far above the largest sample). 0 for an empty histogram.
inline double quantile(const Histogram& h, double q) {
  if (h.count == 0) return 0.0;
  const double rank = q * static_cast<double>(h.count);
  double lower = h.min;
  std::uint64_t prev_cum = 0;
  for (const auto& [le, cum] : h.buckets) {
    if (static_cast<double>(cum) >= rank) {
      const auto in_bucket = static_cast<double>(cum - prev_cum);
      const double frac = in_bucket > 0 ? (rank - static_cast<double>(prev_cum)) / in_bucket : 1.0;
      return std::clamp(lower + frac * (le - lower), h.min, h.max);
    }
    prev_cum = cum;
    lower = le;
  }
  return h.max;
}

/// Fraction of requests at or under `slo` seconds, interpolated the same way.
inline double attainment(const Histogram& h, double slo) {
  if (h.count == 0) return 1.0;
  std::uint64_t prev_cum = 0;
  double lower = h.min;
  for (const auto& [le, cum] : h.buckets) {
    if (le >= slo) {
      const auto in_bucket = static_cast<double>(cum - prev_cum);
      const double width = le - lower;
      const double frac = width > 0 ? std::clamp((slo - lower) / width, 0.0, 1.0) : 1.0;
      return (static_cast<double>(prev_cum) + frac * in_bucket) / static_cast<double>(h.count);
    }
    prev_cum = cum;
    lower = le;
  }
  return 1.0;
}

// --- instrument digest --------------------------------------------------------

struct AlertCounts {
  double fired = 0.0, resolved = 0.0;
};

/// End-of-run balancer view of one fleet node (-1: not exported).
struct FleetNode {
  double score = -1.0, state = -1.0, dispatches = 0.0, ejections = 0.0, rejoins = 0.0;
};

/// The instruments every subcommand reads, keyed by label in first-seen
/// (export) order; instruments with a missing label are keyed "?".
struct Instruments {
  bool present = false;   ///< the export has an "instruments" array
  double completed = 0.0;  ///< serving_requests_completed_total
  std::vector<std::pair<std::string, double>> stage_seconds;  ///< serving_stage_seconds_total
  std::optional<Histogram> latency;  ///< serving_request_latency_seconds
  std::vector<std::pair<std::string, AlertCounts>> alerts;  ///< obs_alerts_{fired,resolved}_total
  std::vector<std::pair<std::string, FleetNode>> fleet;    ///< fleet_node_*
};

/// Find-or-append in a first-seen-ordered keyed list.
template <typename T>
T& row(std::vector<std::pair<std::string, T>>& rows, const std::string& key) {
  for (auto& [k, v] : rows) {
    if (k == key) return v;
  }
  return rows.emplace_back(key, T{}).second;
}

inline Histogram histogram_of(const Value& ins) {
  Histogram h;
  h.count = to_count(ins.num_or("count", 0.0));
  h.min = ins.num_or("min", 0.0);
  h.max = ins.num_or("max", 0.0);
  if (const Value* buckets = ins.find("buckets"); buckets != nullptr && buckets->is_array()) {
    for (const Value& b : buckets->array) {
      h.buckets.emplace_back(b.num_or("le", 0.0), to_count(b.num_or("count", 0.0)));
    }
  }
  return h;
}

inline Instruments digest(const Value& doc) {
  Instruments out;
  const Value* instruments = doc.find("instruments");
  if (instruments == nullptr || !instruments->is_array()) return out;
  out.present = true;
  for (const Value& ins : instruments->array) {
    const std::string name = ins.str_or("name", "");
    const Value* labels = ins.find("labels");
    const auto label = [labels](std::string_view key) {
      return labels != nullptr ? labels->str_or(key, "?") : std::string("?");
    };
    const double value = ins.num_or("value", 0.0);
    if (name == "serving_requests_completed_total") {
      out.completed += value;
    } else if (name == "serving_stage_seconds_total") {
      row(out.stage_seconds, label("stage")) += value;
    } else if (name == "serving_request_latency_seconds") {
      out.latency = histogram_of(ins);
    } else if (name == "obs_alerts_fired_total") {
      row(out.alerts, label("alert")).fired += value;
    } else if (name == "obs_alerts_resolved_total") {
      row(out.alerts, label("alert")).resolved += value;
    } else if (name.starts_with("fleet_node_")) {
      FleetNode& node = row(out.fleet, label("node"));
      if (name == "fleet_node_health_score") node.score = value;
      else if (name == "fleet_node_state") node.state = value;
      else if (name == "fleet_node_dispatches_total") node.dispatches = value;
      else if (name == "fleet_node_ejections_total") node.ejections = value;
      else if (name == "fleet_node_rejoins_total") node.rejoins = value;
    }
  }
  return out;
}

// --- capacity section (obs::CapacityPlane snapshot) ---------------------------

struct CapacityResource {
  std::string label;  ///< "<device>.<engine>"
  double capacity = 1.0;
  std::vector<double> busy, queue;  ///< per-interval busy fraction, mean queue depth
};

/// One run of intervals [begin, end) bound by the same resource.
struct Segment {
  std::size_t begin = 0, end = 0;
  std::string resource;
};

struct Capacity {
  double period_s = 0.0;
  std::vector<CapacityResource> resources;
  std::vector<Segment> segments;
  std::size_t audited = 0;               ///< intervals the Little's-law audit covered
  std::vector<std::size_t> violations;  ///< intervals where L != lambda*W
  double sustainable_rps = 0.0;
  std::string binding, binding_stage;

  [[nodiscard]] std::size_t intervals() const {
    std::size_t n = 0;
    for (const auto& r : resources) n = std::max(n, r.busy.size());
    return n;
  }
};

/// The export's "capacity" section; std::nullopt when the run attached no
/// capacity plane.
inline std::optional<Capacity> capacity_of(const Value& doc) {
  const Value* cap = doc.find("capacity");
  if (cap == nullptr || !cap->is_object()) return std::nullopt;
  Capacity out;
  out.period_s = cap->num_or("period_s", 0.0);
  if (const Value* rs = cap->find("resources"); rs != nullptr && rs->is_array()) {
    for (const Value& r : rs->array) {
      out.resources.push_back({r.str_or("device", "?") + "." + r.str_or("engine", "?"),
                               r.num_or("capacity", 1.0), numbers(r.find("busy_frac")),
                               numbers(r.find("queue_mean"))});
    }
  }
  if (const Value* segs = cap->find("segments"); segs != nullptr && segs->is_array()) {
    for (const Value& s : segs->array) {
      out.segments.push_back({to_count(s.num_or("begin", 0.0)), to_count(s.num_or("end", 0.0)),
                              s.str_or("resource", "?")});
    }
  }
  out.audited = numbers(cap->find("little_l")).size();
  for (const double x : numbers(cap->find("violation_intervals"))) {
    out.violations.push_back(to_count(x));
  }
  out.sustainable_rps = cap->num_or("sustainable_rps", 0.0);
  out.binding = cap->str_or("binding", "?");
  out.binding_stage = cap->str_or("binding_stage", "?");
  return out;
}

// --- sparkline ----------------------------------------------------------------

enum class Scale {
  kMinMax,  ///< stretch the finite samples' own [min, max] over the 8 levels
  kUnit,    ///< fixed [0, 1] (busy fractions: lines stay comparable)
};

/// 8-level unicode sparkline, averaged down to at most kSparkWidth columns.
/// Non-finite samples (hostile or hand-edited input) render as '?' and are
/// excluded from the scale so one NaN cannot blank the whole line.
inline std::string sparkline(const std::vector<double>& v, Scale scale) {
  static const char* kLevels[] = {"▁", "▂", "▃", "▄",
                                  "▅", "▆", "▇", "█"};
  if (v.empty()) return "(no samples)";
  std::vector<double> cols = v;
  if (v.size() > kSparkWidth) {
    const std::size_t n = v.size();
    cols.resize(kSparkWidth);
    for (std::size_t c = 0; c < kSparkWidth; ++c) {
      const std::size_t lo = c * n / kSparkWidth;
      cols[c] = mean_over(v, lo, std::max(lo + 1, (c + 1) * n / kSparkWidth));
    }
  }
  double lo = 0.0, hi = 1.0;
  if (scale == Scale::kMinMax) {
    bool have_finite = false;
    for (const double x : cols) {
      if (!std::isfinite(x)) continue;
      lo = have_finite ? std::min(lo, x) : x;
      hi = have_finite ? std::max(hi, x) : x;
      have_finite = true;
    }
    if (!have_finite) return "(no finite samples)";
  }
  std::string out;
  for (const double x : cols) {
    if (!std::isfinite(x)) {
      out += '?';
      continue;
    }
    // A flat min/max line sits mid-scale.
    const double t = hi > lo ? std::clamp((x - lo) / (hi - lo), 0.0, 1.0) : 0.5;
    out += kLevels[std::clamp(static_cast<int>(t * 7.0 + 0.5), 0, 7)];
  }
  return out;
}

}  // namespace telemetry
