// Statistics and output helpers shared by every servescope_bench workload.
//
// Everything here is pure (no clocks, no threads) so the unit tests can pin
// the rules the benchmark's numbers are built from: which sample a tail
// percentile reads, how per-batch rates are reduced, when a ladder step
// passes, and the exact shape of the JSON result line.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace serve::perf {

/// Median of `v` (mean of the two middle samples for an even count); 0 for
/// an empty input.
[[nodiscard]] double median(std::vector<double> v);

/// The tail a timing is reported at: p99, moved down until at least ten
/// samples lie strictly above it. With n sorted samples the nominal
/// nearest-rank index ceil(0.99·n)−1 is clamped to n−11. A p99 over 2000
/// samples keeps 20 beyond; over 100 repetitions the clamp makes it the
/// 11th-slowest (p90), so the rule never reports a lone outlier. With ten
/// samples or fewer there is no such percentile and every field is 0.
struct TailPercentile {
  double value = 0.0;
  double percentile = 0.0;  ///< achieved percentile, at most 99
  std::size_t beyond = 0;   ///< samples strictly above the reported one
};
[[nodiscard]] TailPercentile tail_percentile(std::vector<double> v);

/// Per-batch throughput: batch k completed `sizes[k]` items at `done_s[k]`
/// (ascending seconds). Its rate is sizes[k] / (done_s[k] − done_s[k−1]),
/// so the first batch only anchors the clock: element k−1 of the result is
/// batch k's rate. Closed-loop throughput is the median of these.
[[nodiscard]] std::vector<double> batch_rates(const std::vector<double>& sizes,
                                              const std::vector<double>& done_s);

/// One step of the open-loop rate ladder.
struct LadderStep {
  double rate = 0.0;            ///< offered images per second
  double p99_ms = 0.0;          ///< due -> done latency tail
  double done_ratio = 0.0;      ///< done within the grace period / offered
  double late_p99_us = 0.0;     ///< generator lateness tail
};

/// A step is sustained when its p99 is at most 50 ms, at least 99% of the
/// offered requests are done within the grace period, and the generator's
/// p99 lateness is at most 10 ms.
[[nodiscard]] bool step_passes(const LadderStep& s);

/// Highest offered rate among passing steps (0 when none passes).
[[nodiscard]] double max_rate_passing(const std::vector<LadderStep>& steps);

/// `[A-Za-z0-9][A-Za-z0-9_.-]*`, at most 64 characters.
[[nodiscard]] bool valid_metric_name(std::string_view name);

/// Units: 1 to 16 of `[A-Za-z0-9_/%.-]`.
[[nodiscard]] bool valid_unit(std::string_view unit);

/// Hex rendering of the exact bit patterns of a result's fields: two results
/// digest equal only when every field is bitwise identical.
class Digest {
 public:
  void add(std::uint64_t v);
  void add(double v);
  [[nodiscard]] const std::string& str() const noexcept { return hex_; }

 private:
  std::string hex_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The run's verdict plus its metrics, rendered as the final stdout line:
///   {"correct": true, "attempted": N, "failed": 0, "metrics": {"m": {"value": v, "unit": "u"}}}
/// Values print with 17 significant digits (every bit of the double).
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;      ///< printed as lines and in the JSON object
  std::vector<Metric> diagnostics;  ///< printed as lines only

  [[nodiscard]] bool correct() const noexcept { return attempted > 0 && failed == 0; }
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string name, double value, std::string unit) {
    diagnostics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Empty when the result can be rendered; otherwise what is wrong with it
/// (bad name or unit, duplicate name, non-finite value).
[[nodiscard]] std::string validate(const RunResult& r);
[[nodiscard]] std::string to_json(const RunResult& r);

/// "<name> <value> <unit>" — the human-readable line every metric gets.
[[nodiscard]] std::string metric_line(const Metric& m);

}  // namespace serve::perf
