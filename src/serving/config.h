// Server deployment configuration (the knobs the paper's Section 2.3 tunes).
#pragma once

#include <stdexcept>

#include <string>

#include "models/model_zoo.h"
#include "serving/ingress.h"
#include "sim/time.h"
#include "trace/span_context.h"

namespace serve::serving {

/// Where JPEG decode/resize/normalize executes.
enum class PreprocDevice : std::uint8_t { kCpu, kGpu };

[[nodiscard]] constexpr std::string_view preproc_device_name(PreprocDevice d) noexcept {
  return d == PreprocDevice::kCpu ? "cpu" : "gpu";
}

/// Pipeline truncation for the Fig. 7 bottleneck decomposition.
enum class PipelineMode : std::uint8_t {
  kEndToEnd,       ///< full preprocess + inference service
  kPreprocessOnly, ///< stop after preprocessing (and staging)
  kInferenceOnly,  ///< client ships the preprocessed fp32 tensor
};

/// Client-side timeout + retry with exponential backoff, deterministic
/// jitter, and a gRPC-style retry token budget shared by all clients.
struct RetryPolicy {
  bool enabled = false;
  int max_attempts = 3;             ///< total tries per logical request (>= 1)
  sim::Time timeout = 0;            ///< per-attempt deadline (0 = wait forever)
  sim::Time backoff_base = 5'000'000;    ///< first retry delay (5 ms)
  sim::Time backoff_cap = 500'000'000;   ///< backoff ceiling (500 ms)
  double retry_budget = 64.0;            ///< initial retry tokens
  double budget_refill_per_success = 0.1;  ///< tokens returned per success
};

/// Ingest circuit breaker (a serving::HealthGate): opens when the server is
/// drowning (deep in-flight queue or high recent error rate) and fast-fails
/// submissions instead of letting the backlog grow without bound.
struct CircuitBreakerPolicy {
  bool enabled = false;
  int queue_depth_open = 2048;     ///< in-flight depth that trips the breaker
  double error_rate_open = 0.5;    ///< trips when the success EWMA < 1 - this
  sim::Time open_duration = 100'000'000;  ///< how long it stays open (100 ms)
  int half_open_probes = 8;        ///< concurrent trials; this many successes close
};

/// Graceful degradation: when a GPU's preprocessing path is unusable (the
/// GPU is in a failure window), reroute its requests through the CPU
/// preprocessing pool; return to GPU preprocessing only after the GPU has
/// been healthy for `hysteresis` (avoids flapping at window edges).
struct DegradePolicy {
  bool enabled = false;
  sim::Time hysteresis = 50'000'000;  ///< healthy time before un-degrading (50 ms)
};

/// Result publication over the broker: capped retries with backoff, then
/// failover to the fused in-process path (counted, not dropped). With
/// retry_enabled = false a publish blindly re-polls every poll_interval
/// until the broker recovers — the unbounded-queue baseline.
struct BrokerPublishPolicy {
  bool publish_results = false;  ///< publish completions through a broker
  bool retry_enabled = false;
  int max_attempts = 3;
  sim::Time backoff_base = 2'000'000;   ///< 2 ms
  sim::Time poll_interval = 10'000'000;  ///< blind re-poll cadence (10 ms)
};

/// Fleet balancer dispatch policy (the Fig. 1 datacenter balancer box).
enum class BalancerPolicy : std::uint8_t {
  kRoundRobin,        ///< strict rotation
  kRandom,            ///< uniform random node
  kLeastOutstanding,  ///< join-the-shortest-queue on balancer-visible in-flight
  kPowerOfTwo,        ///< two random candidates, pick the shorter queue
  kLatencyWeighted,   ///< C3-style: min ewma_latency * (outstanding + 1)
};

[[nodiscard]] constexpr std::string_view balancer_policy_name(BalancerPolicy p) noexcept {
  switch (p) {
    case BalancerPolicy::kRoundRobin: return "round-robin";
    case BalancerPolicy::kRandom: return "random";
    case BalancerPolicy::kLeastOutstanding: return "least-outstanding";
    case BalancerPolicy::kPowerOfTwo: return "p2c";
    case BalancerPolicy::kLatencyWeighted: return "latency-weighted";
  }
  return "?";
}

/// Per-node health checking at the fleet balancer: periodic probes feed an
/// EWMA health score together with balancer-observed request outcomes; a
/// node whose probes time out repeatedly (crash, partition) or whose score
/// collapses (gray failure) is ejected, trialled half-open after
/// `eject_duration`, and rejoined after `rejoin_probes` clean trials — one
/// serving::HealthGate per node, the same machine as the ingest breaker.
struct HealthCheckPolicy {
  bool enabled = false;
  sim::Time probe_interval = 50'000'000;  ///< 50 ms between probes per node
  sim::Time probe_timeout = 25'000'000;   ///< probe RTT above this = failure
  double probe_cost_s = 200e-6;           ///< healthy probe round-trip time
  double ewma_alpha = 0.2;                ///< weight of the newest outcome
  double eject_score = 0.5;               ///< eject when score falls below
  int eject_probe_failures = 3;           ///< or after N consecutive probe losses
  sim::Time eject_duration = 500'000'000; ///< ejected hold before half-open (500 ms)
  int rejoin_probes = 3;                  ///< clean half-open trials to rejoin
};

/// Request hedging at the fleet balancer: if the primary dispatch has not
/// answered within `deadline`, re-dispatch to a second node; first response
/// wins and the loser is cancelled (drop-accounted on its node). The token
/// budget is gRPC-style: hedges spend a token, successes refill fractions,
/// so a fleet-wide incident cannot turn into a dispatch storm.
struct HedgePolicy {
  bool enabled = false;
  sim::Time deadline = 50'000'000;        ///< hedge fires 50 ms after dispatch
  double budget = 64.0;                   ///< initial hedge tokens (also the cap)
  double budget_refill_per_success = 0.1; ///< tokens returned per logical success
};

/// Everything the Fig. 1 balancer box needs to know (consumed by
/// core::run_fleet; inert for a single-node server).
struct FleetBalancerConfig {
  BalancerPolicy policy = BalancerPolicy::kRoundRobin;
  HealthCheckPolicy health{};
  HedgePolicy hedge{};
};

/// Content-addressed preprocess cache over the ingress tier (Kang et al.:
/// preprocessing is skippable on a hit over a skewed corpus). Budgets are
/// per-level; requests whose `content_hash` is zero always bypass.
struct IngressCachePolicy {
  bool enabled = false;
  std::int64_t image_budget_bytes = 64LL << 20;   ///< decoded-image level
  std::int64_t tensor_budget_bytes = 64LL << 20;  ///< preprocessed-tensor level
  double lookup_s = 20e-6;  ///< host-side probe cost charged per request
};

/// One deployed model endpoint.
struct ServerConfig {
  models::ModelDesc model{};
  models::Backend backend = models::Backend::kTensorRT;
  PreprocDevice preproc = PreprocDevice::kGpu;
  PipelineMode mode = PipelineMode::kEndToEnd;

  /// What every client of this deployment puts on the wire. kRawTensor
  /// means clients preprocess on their side and ship the fp32 network
  /// input: no server preprocess, but PCIe/host-fabric cost scales with
  /// tensor bytes (224² fp32 is ~5x a medium JPEG — the paper's F7
  /// crossover). kInferenceOnly mode implies a client tensor whatever this
  /// says.
  IngressFormat ingress = IngressFormat::kCompressedImage;

  /// Ingress-format cache (only consulted on the compressed-image path).
  IngressCachePolicy ingress_cache{};

  /// Dynamic batching (Triton-style): an idle instance takes everything
  /// queued up to max_batch. With `max_queue_delay > 0` the scheduler also
  /// waits up to that long to fill the batch (the paper's "maximum queuing
  /// latency" knob; 0 = dispatch as soon as an instance is free).
  bool dynamic_batching = true;
  sim::Time max_queue_delay = 0;

  /// Without dynamic batching the server waits for exactly `fixed_batch`
  /// requests (the Fig. 3 pre-dynamic-batching configuration).
  int fixed_batch = 64;

  int max_batch = 0;  ///< 0 = use model.max_batch

  /// Execution instances per GPU (Triton instance groups; CUDA streams).
  /// The engine still serializes kernel execution, but extra instances
  /// overlap host-side staging/dispatch with the previous batch's compute.
  int instance_count = 1;

  /// Load shedding: requests older than this when a scheduler dispatches
  /// them are dropped instead of processed (0 = never shed). Bounds tail
  /// latency under overload at the cost of goodput.
  sim::Time shed_deadline = 0;

  /// Attach a RequestAuditor enforcing request/stage-time conservation,
  /// resource hygiene at drain, and timestamp monotonicity. Off by default:
  /// auditing tracks every in-flight request.
  bool audit = false;

  /// Which audited requests get trace spans / causal traces (forwarded to
  /// RequestAuditor::Options::sampler). Deterministic hash sampling by
  /// default; ignored unless a trace recorder is attached.
  trace::SamplerOptions trace_sampler{};

  /// Label stamped on causal root spans and the audit-breakdown trace
  /// metadata (e.g. "small/cpu"), so one trace file can hold several rows.
  std::string trace_run_label{};

  /// Validate request payloads at ingest by actually decoding them (real
  /// codec error paths); corrupted payloads fail the request. Off by
  /// default: decoding costs host time per request.
  bool validate_payloads = false;

  // --- resilience policies (each independently switchable) ---
  RetryPolicy retry{};
  CircuitBreakerPolicy breaker{};
  DegradePolicy degrade{};
  BrokerPublishPolicy broker_publish{};

  /// Fleet-balancer knobs (policy, health checks, hedging). Lives on the
  /// server config so one config file describes a whole deployment; ignored
  /// outside core::run_fleet.
  FleetBalancerConfig balancer{};

  [[nodiscard]] int effective_max_batch() const {
    const int mb = max_batch > 0 ? max_batch : model.max_batch;
    if (mb <= 0) throw std::invalid_argument("ServerConfig: max batch must be positive");
    return mb;
  }
};

}  // namespace serve::serving
