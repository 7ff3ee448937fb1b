// Experiment runner: stands up a platform + server + clients, runs a
// warmup and a measurement window in virtual time, and returns the metrics
// the paper's figures are built from.
#pragma once

#include <cstdint>
#include <vector>

#include "core/observers.h"
#include "hw/devices.h"
#include "hw/energy.h"
#include "metrics/breakdown.h"
#include "serving/client.h"
#include "serving/config.h"

namespace serve::core {

/// Inputs for a single serving experiment. The trace also gets the devices'
/// occupancy counters; the registry gets every component's instruments plus
/// trace_events_*_total.
struct ExperimentSpec : Observers {
  serving::ServerConfig server{};
  int gpu_count = 1;
  hw::Calibration calib = hw::default_calibration();

  int concurrency = 256;                 ///< closed-loop clients
  hw::ImageSpec image = hw::kMediumImage;
  /// Optional request source for the clients (e.g. a Zipf-popular corpus via
  /// workload::popular_corpus_source). When empty, every request carries
  /// `image` with no content identity (the classic fixed-size harness).
  serving::ImageSource image_source{};
  sim::Time warmup = sim::seconds(2.0);
  sim::Time measure = sim::seconds(10.0);
  std::uint64_t seed = 42;

  /// Optional deterministic fault-injection schedule (must outlive the run).
  /// Wired into the platform (PCIe/preproc/GPU-failure queries), the result
  /// broker (outages), and the runner (staging-budget shrink transitions,
  /// fault spans on the trace's "faults" track).
  const sim::FaultPlan* faults = nullptr;

  /// Optional SLO watch plane over `registry` (requires `recorder`; the
  /// caller attaches it to the recorder). The runner points it at the trace
  /// ("alerts" instant events) and the auditor's sampler (triggered capture).
  obs::AlertEngine* alerts = nullptr;
};

/// Outputs of a serving experiment (one point of a paper figure).
struct ExperimentResult : AuditVerdict {
  double throughput_rps = 0.0;   ///< completed requests / measurement second
  double mean_latency_s = 0.0;
  double p50_latency_s = 0.0;
  double p99_latency_s = 0.0;
  std::uint64_t completed = 0;
  double mean_batch = 0.0;
  metrics::Breakdown breakdown{};  ///< per-stage latency decomposition
  hw::EnergyReport energy{};       ///< over the measurement window
  std::uint64_t gpu_evictions = 0; ///< staging-memory evictions observed

  // Ingress-cache accounting (all zero unless ServerConfig::ingress_cache is
  // enabled). Hits are window-scoped completed requests by satisfied level;
  // evictions are window-scoped across both cache levels.
  std::uint64_t cache_tensor_hits = 0;
  std::uint64_t cache_image_hits = 0;
  std::uint64_t cache_evictions = 0;
  double cache_hit_rate = 0.0;  ///< (tensor + image hits) / completed

  // Resilience accounting (window-scoped like completed, except the client
  // counters, which cover the whole run including warmup).
  std::uint64_t dropped = 0;          ///< shed by admission control
  std::uint64_t failed = 0;           ///< failed terminally (faults, breaker)
  std::uint64_t rejected = 0;         ///< failed by the open circuit breaker
  std::uint64_t breaker_opens = 0;    ///< breaker Closed/HalfOpen -> Open edges
  std::uint64_t degraded = 0;         ///< requests rerouted to CPU preprocessing
  std::uint64_t broker_failovers = 0; ///< result publishes that fell back to fused
  std::uint64_t client_retries = 0;   ///< client-side re-submissions
  std::uint64_t client_timeouts = 0;  ///< client attempts abandoned at deadline

  [[nodiscard]] double stage_share(metrics::Stage s) const noexcept {
    return breakdown.share(s);
  }
  [[nodiscard]] double cpu_joules_per_image() const noexcept {
    return completed ? energy.cpu_joules / static_cast<double>(completed) : 0.0;
  }
  [[nodiscard]] double gpu_joules_per_image() const noexcept {
    return completed ? energy.gpu_joules / static_cast<double>(completed) : 0.0;
  }
};

/// Runs one closed-loop serving experiment end to end in virtual time.
[[nodiscard]] ExperimentResult run_experiment(const ExperimentSpec& spec);

/// Convenience: zero-load experiment (concurrency 1, short window) used for
/// the Fig. 6 latency-breakdown study.
[[nodiscard]] ExperimentResult run_zero_load(ExperimentSpec spec);

/// Open-loop variant: requests arrive on `interarrival` (see
/// workload/arrivals.h) instead of from closed-loop clients; `concurrency`
/// is ignored. Use to study latency at a fixed offered rate and under
/// bursty traffic.
[[nodiscard]] ExperimentResult run_open_loop(const ExperimentSpec& spec,
                                             serving::OpenLoopClients::Interarrival interarrival);

}  // namespace serve::core
