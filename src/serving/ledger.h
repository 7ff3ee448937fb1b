// The serving ledger: each terminal request is tallied once, here.
//
// Counts and sums are monotone from construction; a measurement window is
// their difference against the snapshot begin_window() takes. The telemetry
// registry samples these fields through callbacks instead of keeping a copy.
// Three window accumulators cannot be differenced (histogram quantiles clamp
// to the window's min and max; Welford means do not subtract exactly), so
// begin_window() resets them: completed latency, the completed per-stage
// breakdown, and batch sizes.
#pragma once

#include <array>
#include <cstdint>

#include "metrics/breakdown.h"
#include "metrics/histogram.h"
#include "metrics/stat_accumulator.h"
#include "serving/health_gate.h"
#include "serving/request.h"
#include "sim/time.h"

namespace serve::serving {

class Ledger {
 public:
  struct Counts {
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t dropped = 0;
    std::uint64_t rejected = 0;      ///< failed by the open breaker (subset of failed)
    std::uint64_t degraded = 0;      ///< rerouted to CPU preprocessing
    std::uint64_t handoff_lost = 0;  ///< failed queue hand-offs (drop-accounted)
    std::uint64_t broker_retries = 0;
    std::uint64_t broker_failovers = 0;
    std::array<std::uint64_t, 3> breaker_to{};  ///< transitions, by HealthGate::State
    // Completed requests served from the ingress cache, by level.
    std::uint64_t cache_tensor_hits = 0;
    std::uint64_t cache_image_hits = 0;

    [[nodiscard]] std::uint64_t breaker_opens() const noexcept {
      return breaker_to[static_cast<std::size_t>(HealthGate::State::kOpen)];
    }
  };

  /// Counts accrued since begin_window(), over `seconds` of virtual time.
  struct Window : Counts {
    double seconds = 0.0;

    [[nodiscard]] double throughput() const noexcept {
      return seconds > 0.0 ? static_cast<double>(completed) / seconds : 0.0;
    }
    /// Fraction of completed requests satisfied from either cache level.
    [[nodiscard]] double cache_hit_rate() const noexcept {
      return completed ? static_cast<double>(cache_tensor_hits + cache_image_hits) /
                             static_cast<double>(completed)
                       : 0.0;
    }
  };

  Counts counts;
  /// Per-stage and end-to-end seconds summed over every terminal request
  /// (completed, failed and dropped alike): the λ·W side of Little's law.
  std::array<double, metrics::kStageCount> stage_seconds{};
  double latency_sum = 0.0;

  /// Without a begin_window() call the window opens at `start`.
  explicit Ledger(sim::Time start) noexcept : window_start_(start) {}

  /// Tallies one terminal request by its outcome flags.
  void on_terminal(const Request& req) {
    const double latency = sim::to_seconds(req.latency());
    latency_sum += latency;
    for (std::size_t s = 0; s < metrics::kStageCount; ++s) {
      const double v = req.stages.seconds[s];
      if (v > 0.0) stage_seconds[s] += v;
    }
    if (req.dropped) {
      ++counts.dropped;
      return;
    }
    if (req.failed) {
      ++counts.failed;
      if (req.fail_reason == FailReason::kBreakerOpen) ++counts.rejected;
      return;
    }
    ++counts.completed;
    if (req.cache_hit == CacheLevel::kTensor) ++counts.cache_tensor_hits;
    if (req.cache_hit == CacheLevel::kImage) ++counts.cache_image_hits;
    latency_.add(latency);
    breakdown_.add(req.stages);
  }

  void on_batch(int size) { batch_sizes_.add(static_cast<double>(size)); }

  /// Requests submitted but not yet in a terminal state.
  [[nodiscard]] std::uint64_t in_flight() const noexcept {
    return counts.submitted - (counts.completed + counts.failed + counts.dropped);
  }

  void begin_window(sim::Time now) {
    window_start_ = now;
    begin_ = counts;
    latency_.reset();
    breakdown_.reset();
    batch_sizes_.reset();
  }

  [[nodiscard]] Window window(sim::Time now) const noexcept {
    Window w;
    w.submitted = counts.submitted - begin_.submitted;
    w.completed = counts.completed - begin_.completed;
    w.failed = counts.failed - begin_.failed;
    w.dropped = counts.dropped - begin_.dropped;
    w.rejected = counts.rejected - begin_.rejected;
    w.degraded = counts.degraded - begin_.degraded;
    w.handoff_lost = counts.handoff_lost - begin_.handoff_lost;
    w.broker_retries = counts.broker_retries - begin_.broker_retries;
    w.broker_failovers = counts.broker_failovers - begin_.broker_failovers;
    for (std::size_t i = 0; i < w.breaker_to.size(); ++i) {
      w.breaker_to[i] = counts.breaker_to[i] - begin_.breaker_to[i];
    }
    w.cache_tensor_hits = counts.cache_tensor_hits - begin_.cache_tensor_hits;
    w.cache_image_hits = counts.cache_image_hits - begin_.cache_image_hits;
    w.seconds = sim::to_seconds(now - window_start_);
    return w;
  }

  /// Window accumulators.
  [[nodiscard]] const metrics::Histogram& latency() const noexcept { return latency_; }
  [[nodiscard]] const metrics::Breakdown& breakdown() const noexcept { return breakdown_; }
  [[nodiscard]] const metrics::StatAccumulator& batch_sizes() const noexcept {
    return batch_sizes_;
  }

 private:
  sim::Time window_start_;
  Counts begin_;
  metrics::Histogram latency_;
  metrics::Breakdown breakdown_;
  metrics::StatAccumulator batch_sizes_;
};

}  // namespace serve::serving
