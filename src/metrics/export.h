// Exporters for the telemetry layer: one deterministic writer shared by the
// bench harnesses and the flight recorder.
//
// Three formats from one in-memory document:
//
//   - JSON ("servescope-telemetry-v1"): a superset of the google-benchmark
//     schema `servescope bench-check` consumes — a top-level "benchmarks"
//     array whose entries carry "name"/"real_time"/"time_unit" (bench-check
//     ignores every other field), plus "checks", "instruments" (with
//     cumulative `le` histogram buckets) and "series" sections;
//   - CSV: long-form rows `record,name,labels,x,value` — `sample` rows carry
//     the virtual timestamp in `x`, `bucket` rows the upper edge (`le`),
//     scalar instrument rows their kind with `x` empty;
//   - Prometheus text exposition: counters/gauges plus full `le`-form
//     histograms with `_sum`/`_count`.
//
// Determinism: doubles are printed with std::to_chars shortest round-trip
// form, content order follows registration order, and wall-clock-derived
// instruments (telemetry self-overhead) are excluded from JSON/CSV so a
// seeded run exports bit-identical bytes. Prometheus output includes the
// wall-clock instruments — it is a scrape of *this* process, not a
// reproducibility artifact.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "metrics/flight_recorder.h"
#include "metrics/registry.h"
#include "metrics/table.h"

namespace serve::metrics {

/// Shortest round-trip decimal form of `v` (std::to_chars): "0.1" not
/// "0.100000", bit-exact across runs and platforms with the same libc++.
[[nodiscard]] std::string format_double(double v);

/// One google-benchmark-style result row.
struct BenchmarkRow {
  std::string name;
  double real_time = 0.0;
  std::string time_unit = "ms";
  /// Extra numeric fields appended to the JSON entry (`servescope
  /// bench-check` ignores them; `servescope diff` and humans read them).
  std::vector<std::pair<std::string, double>> extras;
};

/// One shape-check verdict (claims a figure reproduces the paper's shape).
struct CheckRow {
  std::string claim;
  bool pass = false;
  std::string detail;
};

/// Capacity-plane payload for the JSON "capacity" section (produced by
/// obs::CapacityPlane::snapshot()): per-resource interval timelines, binding
/// segments, the Little's-law audit series, and the headroom estimate. All
/// values derive from monotone counters differenced at recorder ticks, so
/// same-seed runs export byte-identical sections.
struct CapacitySnapshot {
  double period_s = 0.0;  ///< recorder tick period (interval length)
  struct Resource {
    std::string device;
    std::string engine;
    double capacity = 1.0;
    std::vector<double> busy_frac;   ///< per interval, in [0, 1]
    std::vector<double> queue_mean;  ///< per interval time-average depth
  };
  std::vector<Resource> resources;
  struct Segment {
    std::uint64_t begin = 0;    ///< first interval (inclusive)
    std::uint64_t end = 0;      ///< last interval (exclusive)
    std::string resource;       ///< "device.engine", or "idle"
  };
  std::vector<Segment> segments;
  std::vector<double> little_l;         ///< Δ occupancy-integral / dt
  std::vector<double> little_lambda_w;  ///< Δ latency-sum / dt
  std::vector<std::uint64_t> violation_intervals;
  double sustainable_rps = 0.0;  ///< headroom knee estimate (0 = unknown)
  std::string binding;           ///< dominant binding resource, "idle" if none
  std::string binding_stage;     ///< stage-taxonomy verdict for `binding`
};

class TelemetryExport {
 public:
  /// Free-form string context ("figure" -> "fig05", "preproc" -> "gpu"...).
  void set_context(std::string key, std::string value);

  void add_benchmark(BenchmarkRow row) { benchmarks_.push_back(std::move(row)); }
  void add_check(CheckRow row) { checks_.push_back(std::move(row)); }

  /// Records a result table (headers + typed cells) in the JSON "tables"
  /// section; tables do not appear in the CSV or Prometheus outputs.
  void add_table(std::string name, const Table& table);

  /// Captures the registry's current instrument values.
  void capture_instruments(const Registry& registry) { instruments_ = registry.snapshot(); }

  /// Captures the recorder's ring-buffered series (and its cadence).
  void capture_series(const FlightRecorder& recorder);

  /// Attaches a capacity-plane snapshot; emitted as the JSON "capacity"
  /// section (`servescope bench-check` ignores it; `servescope capacity` and
  /// `servescope report` render it).
  void set_capacity(CapacitySnapshot snapshot) {
    capacity_ = std::move(snapshot);
    have_capacity_ = true;
  }

  [[nodiscard]] std::size_t failed_checks() const noexcept;
  [[nodiscard]] const std::vector<BenchmarkRow>& benchmarks() const noexcept {
    return benchmarks_;
  }
  [[nodiscard]] const std::vector<CheckRow>& checks() const noexcept { return checks_; }

  void write_json(std::ostream& out) const;
  void write_csv(std::ostream& out) const;
  void write_prometheus(std::ostream& out) const;

 private:
  struct TableCopy {
    std::string name;
    std::vector<std::string> headers;
    std::vector<std::vector<Cell>> rows;
  };

  std::vector<std::pair<std::string, std::string>> context_;
  std::vector<BenchmarkRow> benchmarks_;
  std::vector<CheckRow> checks_;
  std::vector<TableCopy> tables_;
  std::vector<Registry::InstrumentSnapshot> instruments_;
  std::vector<FlightRecorder::Series> series_;
  double series_period_s_ = 0.0;
  double series_start_s_ = 0.0;
  bool have_series_ = false;
  CapacitySnapshot capacity_;
  bool have_capacity_ = false;
};

}  // namespace serve::metrics
