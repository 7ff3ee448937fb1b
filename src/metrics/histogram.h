// Log-bucketed histogram for latency-style distributions.
//
// Buckets grow geometrically between a configurable [min, max] range so that
// relative error is bounded (default ~2%) across six orders of magnitude —
// the same idea as HdrHistogram, sized for serving latencies (1 us .. 1000 s).
#pragma once

#include <cstdint>
#include <vector>

#include "metrics/stat_accumulator.h"

namespace serve::metrics {

/// Fixed-layout geometric histogram with percentile queries.
///
/// Values below `min_value` land in the first bucket, values above
/// `max_value` in the last; exact counts/mean are tracked separately by an
/// embedded StatAccumulator so summary stats have no bucketing error.
class Histogram {
 public:
  struct Options {
    double min_value = 1e-6;        ///< lower edge of first regular bucket
    double max_value = 1e3;         ///< upper edge of last regular bucket
    double growth = 1.04;           ///< geometric bucket growth factor
    bool track_exemplars = false;   ///< retain the last (trace_id, value) per bucket
  };

  Histogram() : Histogram(Options{}) {}
  explicit Histogram(const Options& opts);

  void add(double value) noexcept;

  /// Records `value` and — when `track_exemplars` is set and trace_id is
  /// nonzero — retains (trace_id, value) as the bucket's exemplar,
  /// overwriting any previous one. Last-write-wins keeps the exemplar the
  /// most recent causal witness for that latency band; exporters use it to
  /// link SLO tail buckets to a concrete trace.
  void add(double value, std::uint64_t trace_id) noexcept;

  void merge(const Histogram& other);

  /// Returns the value at quantile q in [0, 1] (e.g. 0.99 for p99).
  /// Linear interpolation within the containing bucket.
  ///
  /// Contract on an empty histogram (`count() == 0`): every quantile —
  /// including p999() — returns exactly 0.0. Callers that must distinguish
  /// "no samples" from "all samples were 0" check `count()`; this is a
  /// deliberate, tested contract, not incidental fallthrough.
  [[nodiscard]] double quantile(double q) const noexcept;

  [[nodiscard]] double p50() const noexcept { return quantile(0.50); }
  [[nodiscard]] double p95() const noexcept { return quantile(0.95); }
  [[nodiscard]] double p99() const noexcept { return quantile(0.99); }
  [[nodiscard]] double p999() const noexcept { return quantile(0.999); }

  /// One occupied bucket with its exact layout edges. The underflow bucket
  /// reports lower == 0; the overflow bucket's upper is the observed max (or
  /// one more geometric step when that is larger — edges stay strictly
  /// ascending), so exporters can emit cumulative (`le`) form without
  /// re-deriving layout.
  struct Bucket {
    double lower = 0.0;
    double upper = 0.0;
    std::uint64_t count = 0;
    // Exemplar: last (trace_id, value) observed in this bucket when
    // `track_exemplars` is enabled. trace_id == 0 means "none retained".
    std::uint64_t exemplar_trace_id = 0;
    double exemplar_value = 0.0;
  };

  /// Occupied buckets in ascending value order (empty buckets elided).
  [[nodiscard]] std::vector<Bucket> nonzero_buckets() const;

  /// Samples with value <= `value`, interpolating linearly within the
  /// straddling bucket (the same convention `servescope report` uses for SLO
  /// attainment). Allocation-free — the alert engine calls this every
  /// recorder tick.
  [[nodiscard]] double count_at_or_below(double value) const noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return stats_.count(); }
  [[nodiscard]] double mean() const noexcept { return stats_.mean(); }
  [[nodiscard]] double sum() const noexcept { return stats_.sum(); }
  [[nodiscard]] double min() const noexcept { return stats_.min(); }
  [[nodiscard]] double max() const noexcept { return stats_.max(); }
  [[nodiscard]] const StatAccumulator& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t bucket_count() const noexcept { return counts_.size(); }

  void reset() noexcept;

 private:
  [[nodiscard]] std::size_t bucket_index(double value) const noexcept;
  [[nodiscard]] double bucket_lower(std::size_t i) const noexcept;
  [[nodiscard]] double bucket_upper(std::size_t i) const noexcept;

  struct Exemplar {
    std::uint64_t trace_id = 0;
    double value = 0.0;
  };

  Options opts_;
  double log_growth_inv_ = 0.0;  ///< 1 / ln(growth), cached
  std::vector<std::uint64_t> counts_;
  std::vector<Exemplar> exemplars_;  ///< bucket-aligned; empty unless tracking
  StatAccumulator stats_;
};

}  // namespace serve::metrics
