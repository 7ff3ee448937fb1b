// Capacity plane: interval-resolved per-resource utilization, Little's-law
// audit, bottleneck attribution, and headroom estimation.
//
// The paper's central result is a *resource-level* time breakdown — small
// models bind on the CPU preprocess path and transfers, large models on the
// GPU engine — but cumulative sim::Resource::utilization() since t = 0 and
// point-sampled occupancy gauges cannot answer "which resource is binding
// *right now*". The CapacityPlane rides the FlightRecorder cadence (like the
// AlertEngine) and at every tick differences the monotone integral counters
//
//   hw_resource_busy_seconds_total{device,engine}   (unit-seconds busy)
//   hw_resource_queue_seconds_total{device,engine}  (waiter-seconds queued)
//
// into exact per-interval busy fractions and time-average queue depths —
// integrated over the interval, never point-sampled, so bursty queues cannot
// alias against the sampling phase. On top of the timelines it derives:
//
//   - a per-tick Little's-law audit (L = Δoccupancy-integral/dt vs
//     λ·W = Δcompletion-charged-latency-sum/dt; equal in steady state,
//     split during backlog transients — fault windows show up here);
//   - a deterministic bottleneck attributor naming the binding resource per
//     interval (argmax busy fraction among critical-path engines, ties
//     broken by registration order; `stage_for_resource` maps each engine
//     onto the request-stage taxonomy so the verdict can be cross-checked
//     against trace::extract_critical_paths blame shares);
//   - a headroom estimator: on each tick where the binding resource is
//     meaningfully loaded, sustainable throughput = λ / u_binding; the
//     deterministic median over valid ticks estimates the saturation knee.
//
// Everything derives from monotone counters read at exact virtual-time
// multiples on the sim thread: two same-seed runs produce byte-identical
// capacity snapshots. Self-cost accrues to a wall-clock counter excluded
// from deterministic exports (obs_capacity_plane_self_seconds_total).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "metrics/breakdown.h"
#include "metrics/export.h"
#include "metrics/flight_recorder.h"
#include "metrics/registry.h"
#include "sim/time.h"

namespace serve::obs {

/// One tracked resource's interval timelines (tick-aligned with the
/// recorder; entry k covers (tick k-1, tick k] — the first observed tick
/// establishes baselines and produces no entry).
struct ResourceTimeline {
  std::string device;  ///< "cpu", "gpu0", "host", "broker", ...
  std::string engine;  ///< "preproc_workers", "compute", "pcie", "io", ...
  double capacity = 1.0;
  std::vector<double> busy_frac;   ///< interval busy fraction in [0, 1]
  std::vector<double> queue_mean;  ///< interval time-average waiter count

  [[nodiscard]] std::string label() const { return device + "." + engine; }
};

/// Run of consecutive intervals bound by the same resource.
struct BindingSegment {
  std::size_t begin = 0;  ///< first interval index (inclusive)
  std::size_t end = 0;    ///< last interval index (exclusive)
  /// Index into resources(), or kIdle when no resource cleared the floor.
  std::size_t resource = 0;
};

/// One interval's Little's-law audit sample.
struct LittleSample {
  double l = 0.0;         ///< Δ(in-flight time integral) / dt
  double lambda_w = 0.0;  ///< Δ(completion-charged latency sum) / dt
  double deviation = 0.0; ///< |l - lambda_w| / max(l, lambda_w)
  bool violated = false;  ///< deviation > tolerance at meaningful occupancy
};

/// Request stage a hardware engine contributes to on the critical path
/// (kIngest when unknown — host cores serve the web stack).
[[nodiscard]] metrics::Stage stage_for_resource(std::string_view device,
                                                std::string_view engine) noexcept;

class CapacityPlane {
 public:
  struct Options {
    /// Little's-law audit: relative deviation that flags an interval, and
    /// the occupancy floor below which near-idle noise never flags.
    double little_tolerance = 0.15;
    double little_min_occupancy = 0.5;
  };

  explicit CapacityPlane(metrics::Registry& registry) : CapacityPlane(registry, Options{}) {}
  CapacityPlane(metrics::Registry& registry, Options opts);

  /// Rides the recorder's cadence. The plane must outlive the recorder's
  /// sampling window. Throws std::invalid_argument when the recorder samples
  /// another registry.
  void attach(metrics::FlightRecorder& recorder);

  /// Observes one tick (normally invoked by the recorder listener; public so
  /// tests can drive ticks directly).
  void observe(sim::Time now, std::uint64_t tick);

  /// No binding resource cleared the idle floor this interval.
  static constexpr std::size_t kIdle = static_cast<std::size_t>(-1);

  // --- timelines -------------------------------------------------------------

  [[nodiscard]] const std::vector<ResourceTimeline>& resources() const noexcept {
    return resources_;
  }
  /// Completed intervals observed (== length of every timeline vector).
  [[nodiscard]] std::size_t intervals() const noexcept { return binding_.size(); }

  // --- bottleneck attribution ------------------------------------------------

  /// Per-interval binding resource (index into resources(), or kIdle).
  [[nodiscard]] const std::vector<std::size_t>& binding() const noexcept { return binding_; }
  /// Consecutive same-binding intervals merged into segments.
  [[nodiscard]] std::vector<BindingSegment> segments() const;
  /// Resource binding the most non-idle intervals (kIdle when all idle);
  /// ties break toward the lower resource index (deterministic).
  [[nodiscard]] std::size_t dominant_resource() const;
  /// Stage taxonomy verdict for the dominant resource (cross-check target
  /// for trace::extract_critical_paths by_name shares); kIngest when idle.
  [[nodiscard]] metrics::Stage dominant_stage() const;

  // --- Little's-law audit ----------------------------------------------------

  [[nodiscard]] const std::vector<LittleSample>& little() const noexcept { return little_; }
  /// Interval indices where the audit flagged a deviation, ascending.
  [[nodiscard]] std::vector<std::size_t> violation_intervals() const;
  [[nodiscard]] std::uint64_t violations() const noexcept { return violations_; }

  // --- headroom --------------------------------------------------------------

  /// Median λ/u_binding over the usable intervals: the estimated maximum
  /// sustainable request rate at the observed mix. 0 when no interval
  /// qualified (idle or saturated run).
  [[nodiscard]] double sustainable_rps() const;

  // --- export ----------------------------------------------------------------

  /// Deterministic snapshot for the telemetry exporter's "capacity" section.
  [[nodiscard]] metrics::CapacitySnapshot snapshot() const;

  /// Wall-clock seconds spent in observe() (self-overhead; excluded from
  /// deterministic exports).
  [[nodiscard]] double self_seconds() const noexcept { return self_time_.value(); }

 private:
  static constexpr std::size_t kNoIndex = static_cast<std::size_t>(-1);

  /// Incremental registry scan (instruments only append; indices are
  /// stable): groups hw_resource_* instruments by (device, engine) and
  /// resolves the serving-side audit counters.
  void scan_new_instruments(std::size_t n);
  [[nodiscard]] std::size_t resource_slot(const std::string& device, const std::string& engine);

  struct ResourceState {
    std::size_t busy_idx = kNoIndex;      ///< hw_resource_busy_seconds_total
    std::size_t queue_idx = kNoIndex;     ///< hw_resource_queue_seconds_total
    std::size_t capacity_idx = kNoIndex;  ///< hw_resource_capacity
    double prev_busy = 0.0;
    double prev_queue = 0.0;
    bool have_prev = false;
  };

  metrics::Registry& registry_;
  Options opts_;

  std::vector<ResourceTimeline> resources_;
  std::vector<ResourceState> states_;  ///< aligned with resources_
  std::size_t scanned_until_ = 0;

  std::size_t demand_idx_ = kNoIndex;  ///< serving_requests_submitted_total
  std::size_t occ_idx_ = kNoIndex;  ///< serving_in_flight_seconds_total
  std::size_t lat_idx_ = kNoIndex;  ///< serving_latency_seconds_total
  double prev_demand_ = 0.0;
  double prev_occ_ = 0.0;
  double prev_lat_ = 0.0;

  bool have_prev_tick_ = false;
  sim::Time prev_tick_time_ = 0;
  double period_s_ = 0.0;  ///< recorder cadence (set by attach)

  std::vector<std::size_t> binding_;  ///< per interval
  std::vector<double> lambda_;        ///< per interval
  std::vector<LittleSample> little_;  ///< per interval
  std::uint64_t violations_ = 0;

  metrics::Counter violations_m_;  ///< obs_capacity_little_violations_total
  metrics::Counter self_time_;     ///< wall-clock, excluded from exports
};

}  // namespace serve::obs
