// Experiment runner: stands up a platform + server + clients, runs a
// warmup and a measurement window in virtual time, and returns the metrics
// the paper's figures are built from.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "hw/devices.h"
#include "hw/energy.h"
#include "metrics/breakdown.h"
#include "metrics/flight_recorder.h"
#include "metrics/registry.h"
#include "obs/alert_engine.h"
#include "serving/client.h"
#include "serving/config.h"
#include "serving/server.h"
#include "sim/fault_plan.h"
#include "sim/simulator.h"
#include "sim/trace.h"
#include "trace/causal.h"

namespace serve::core {

/// Inputs for a single serving experiment.
struct ExperimentSpec {
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

  /// Optional: record device-occupancy counters for chrome://tracing.
  sim::TraceRecorder* trace = nullptr;

  /// Optional causal tracer (shared across rows writing the same trace):
  /// sampled requests then carry SpanContexts, spans get trace/span/parent
  /// ids + blame args, and tools/trace_analyze can rebuild the trees.
  /// Requires `trace`; its recorder should be `trace`.
  trace::CausalTracer* tracer = nullptr;

  /// Optional deterministic fault-injection schedule (must outlive the run).
  /// Wired into the platform (PCIe/preproc/GPU-failure queries), the result
  /// broker (outages), and the runner (staging-budget shrink transitions,
  /// fault spans on the trace's "faults" track).
  const sim::FaultPlan* faults = nullptr;

  /// Optional telemetry registry: the platform, server, brokers, and clients
  /// register their instruments here. Cumulative from simulation start; the
  /// server's serving_* counters sample its serving::Ledger, whose window
  /// differences fill ExperimentResult. The runner freezes callback
  /// instruments before tearing the run down, so the registry may safely
  /// outlive it.
  metrics::Registry* registry = nullptr;

  /// Optional flight recorder over `registry` (requires it). The runner
  /// starts it when clients start and stops it at the end of the
  /// measurement window, before the drain.
  metrics::FlightRecorder* recorder = nullptr;

  /// Optional SLO watch plane over `registry` + `recorder` (requires both;
  /// the caller attaches it to the recorder). The runner binds the trace
  /// ("alerts" instant events) and — when auditing with a causal tracer —
  /// the auditor's sampler for triggered capture, then releases the sampler
  /// binding before the server is torn down.
  obs::AlertEngine* alerts = nullptr;
};

/// Outputs of a serving experiment (one point of a paper figure).
struct ExperimentResult {
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

  /// Lifecycle-audit verdict (ServerConfig::audit): total violations across
  /// the whole run (warmup + measure + drain) and the formatted report.
  /// Always 0 / empty when auditing is off.
  std::uint64_t audit_violations = 0;
  std::vector<std::string> audit_report{};

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

/// Command-line options shared by the bench binaries: `--audit` turns on the
/// request-lifecycle auditor, `--trace-out <path>` additionally records
/// per-request stage spans + device counters and writes Chrome trace-event
/// JSON at exit (tracing implies auditing — the spans come from the auditor).
struct HarnessOptions {
  bool audit = false;
  std::string trace_out{};
  std::size_t trace_max_events = 0;  ///< 0 = TraceRecorder default cap

  [[nodiscard]] bool tracing() const noexcept { return !trace_out.empty(); }
  [[nodiscard]] bool auditing() const noexcept { return audit || tracing(); }

  /// Enables ServerConfig::audit and points spec.trace at `trace` as
  /// requested. Call once per experiment row. With a `tracer`, also binds it
  /// to `trace` and hands it to the run (spec.tracer), turning the flat
  /// per-request spans into causal traces.
  void apply(ExperimentSpec& spec, sim::TraceRecorder& trace,
             trace::CausalTracer* tracer = nullptr) const;
};

/// Parses --audit / --trace-out / --trace-max-events from argv; throws
/// std::invalid_argument on an unknown flag or a missing value.
[[nodiscard]] HarnessOptions parse_harness_options(int argc, const char* const* argv);

/// Prints `r`'s audit report to stderr (labelled) when it has violations.
/// Returns the violation count so callers can accumulate an exit status.
std::uint64_t report_audit(const ExperimentResult& r, const std::string& label);

/// Writes the trace file (if requested) and prints the final audit verdict.
/// Returns true when no violations were observed and the trace (if any)
/// was written; an unwritable trace path is reported on stderr, not thrown.
bool finish_harness(const HarnessOptions& opts, const sim::TraceRecorder& trace,
                    std::uint64_t total_violations);

}  // namespace serve::core
