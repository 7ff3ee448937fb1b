// Throughput-optimized inference server (TrIS-like) on the simulated node.
//
// Architecture mirrors the system the paper profiles (Figs. 1-2):
//
//   client -> ingest (CPU) -> preprocess (CPU pool | batched GPU pipelines)
//          -> PCIe transfer -> dynamic batcher -> GPU inference instance
//          -> result transfer -> postprocess (CPU) -> client
//
// Every stage charges virtual time to the request's StageTimes so the
// paper's breakdown figures can be regenerated exactly.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "broker/broker.h"
#include "hw/devices.h"
#include "metrics/registry.h"
#include "metrics/time_weighted.h"
#include "serving/audit.h"
#include "serving/batcher.h"
#include "serving/config.h"
#include "serving/health_gate.h"
#include "serving/ingress_cache.h"
#include "serving/ledger.h"
#include "serving/request.h"
#include "sim/process.h"

namespace serve::serving {

class InferenceServer {
 public:
  /// Creates the endpoint and spawns its scheduler processes.
  InferenceServer(hw::Platform& platform, ServerConfig config);

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Enqueues a request. Completion is signalled through `req->done`.
  /// After shutdown() or while the circuit breaker is open the request is
  /// fail-accounted immediately (done set, counted) instead of processed.
  void submit(RequestPtr req);

  /// Stops accepting requests and lets in-flight work drain.
  void shutdown();

  /// Routes completed-request notifications through `broker` when
  /// ServerConfig::broker_publish.publish_results is set. The broker must
  /// outlive the server. Call before the first submit.
  void set_result_broker(broker::SimBroker<std::uint64_t>* broker) noexcept {
    result_broker_ = broker;
  }

  [[nodiscard]] const ServerConfig& config() const noexcept { return config_; }
  [[nodiscard]] hw::Platform& platform() noexcept { return platform_; }

  /// The one tally of this server's requests and resilience events.
  [[nodiscard]] const Ledger& ledger() const noexcept { return ledger_; }
  /// Opens the ledger's measurement window now.
  void begin_window() { ledger_.begin_window(platform_.sim().now()); }
  /// Ledger counts since begin_window(), up to now.
  [[nodiscard]] Ledger::Window window() const { return ledger_.window(platform_.sim().now()); }

  /// Requests accepted but not yet completed.
  [[nodiscard]] std::uint64_t in_flight() const noexcept { return ledger_.in_flight(); }

  /// Lifecycle auditor (nullptr unless ServerConfig::audit is set). To get
  /// per-request trace spans, call auditor()->set_trace(...) before the
  /// first submit.
  [[nodiscard]] RequestAuditor* auditor() noexcept { return auditor_.get(); }

  /// Content-addressed preprocess cache (nullptr unless
  /// ServerConfig::ingress_cache.enabled). Exposed so harnesses can read its
  /// counters and drive budget shrinks from a fault plan.
  [[nodiscard]] IngressCache* ingress_cache() noexcept { return ingress_cache_.get(); }

  /// Ingest circuit breaker (CircuitBreakerPolicy): closed / open / half-open.
  [[nodiscard]] const HealthGate& breaker() const noexcept { return breaker_; }

 private:
  struct GpuState {
    GpuState(sim::Simulator& sim, const Batcher<RequestPtr>::Options& preproc_opts,
             const Batcher<RequestPtr>::Options& inf_opts)
        : preproc_batcher(sim, preproc_opts), inf_batcher(sim, inf_opts) {}
    Batcher<RequestPtr> preproc_batcher;  ///< DALI-style batched GPU preprocessing
    Batcher<RequestPtr> inf_batcher;      ///< dynamic batcher in front of the engine
    // Graceful-degradation state (DegradePolicy): set while the GPU is in a
    // failure window, cleared only after `hysteresis` of continuous health.
    bool degraded = false;
    sim::Time last_unhealthy = 0;
  };

  // Scheduler processes (one set per GPU).
  sim::Process handle_request(RequestPtr req);
  sim::Process gpu_preproc_loop(std::size_t g);
  sim::Process run_gpu_preproc_batch(std::size_t g, std::vector<RequestPtr> batch,
                                     sim::ResourceToken pipeline);
  sim::Process inference_loop(std::size_t g);
  sim::Process finish_request(RequestPtr req);
  /// `blame` annotates the residual queue charge ("shed-deadline" for
  /// admission-control drops, "hedge-cancelled" for balancer cancellations).
  void drop_request(std::size_t gpu, RequestPtr req, std::string_view blame = "shed-deadline");

  /// Terminal failure: releases staged memory, charges the queue residue,
  /// records + signals completion with `failed = true`.
  void fail_request(std::size_t gpu, RequestPtr req, FailReason reason);

  // Pipeline fragments shared by the paths above (implemented in server.cpp).
  void enqueue_inference(std::size_t g, RequestPtr req);

  /// Puts `req` into `ch`; a full or closed channel drop-accounts the
  /// request instead of silently destroying it.
  void hand_off(sim::Channel<RequestPtr>& ch, std::size_t g, RequestPtr req,
                std::string_view where);

  // --- resilience machinery ---
  // Circuit breaker: admission (trips on in-flight depth, claims half-open
  // trial slots); settlement at every terminal state (frees the slot, feeds
  // `outcome` unless shed, cancelled or rejected); transition accounting.
  bool breaker_admits(Request& req);
  void settle_breaker(Request& req, std::optional<bool> outcome);
  void note_breaker(HealthGate::State before);
  /// Degradation check with hysteresis; updates per-GPU degrade state.
  bool gpu_degraded(std::size_t g);
  /// Picks the GPU for a new request, skipping degraded ones when the
  /// degrade policy is on (falls back to plain round-robin if all are down).
  std::size_t route_request();
  /// Hold-until-recovery is on when any resilience policy wants batches to
  /// survive a GPU failure window instead of failing.
  [[nodiscard]] bool resilient_hold() const noexcept {
    return config_.retry.enabled || config_.degrade.enabled;
  }
  /// Real decode of the seeded byte-mutated template payload; false when the
  /// codec rejects the corrupted stream.
  [[nodiscard]] bool corrupted_payload_decodes(std::uint64_t stream_seed) const;

  /// Wire format for one request: its own choice, or the server default.
  [[nodiscard]] IngressFormat resolve_ingress(const Request& req) const noexcept {
    if (req.ingress == RequestIngress::kServerDefault) return config_.ingress;
    return req.ingress == RequestIngress::kRawTensor ? IngressFormat::kRawTensor
                                                     : IngressFormat::kCompressedImage;
  }

  /// Registry histograms for the serving layer (no-ops when the platform has
  /// no registry). The ledger's counts and sums reach the registry as
  /// callback counters, cumulative from t = 0 like the ledger itself; the
  /// flight recorder differences them into rates over time.
  struct Telemetry {
    metrics::HistogramHandle latency, batch_size;
  };
  void init_telemetry();
  /// Tail shared by finish/fail/drop, in this order: ledger and latency
  /// histogram, in-flight integral, settle_breaker(req, outcome), auditor,
  /// completion signal.
  void settle(Request& req, std::optional<bool> outcome);

  hw::Platform& platform_;
  ServerConfig config_;
  Ledger ledger_;
  Telemetry tele_{};
  /// Time-weighted occupancy integrals (the L side of Little's law and the
  /// alias-free queue-depth series). Updated unconditionally — one add per
  /// request edge — and exported via counter_fn when a registry is attached.
  metrics::TimeIntegrator inflight_integral_;
  std::vector<metrics::TimeIntegrator> preproc_queue_integral_;  ///< per GPU
  std::vector<metrics::TimeIntegrator> inf_queue_integral_;      ///< per GPU
  std::unique_ptr<IngressCache> ingress_cache_;
  std::unique_ptr<RequestAuditor> auditor_;
  std::vector<std::unique_ptr<GpuState>> gpus_;
  broker::SimBroker<std::uint64_t>* result_broker_ = nullptr;
  std::vector<std::uint8_t> template_jpeg_;  ///< payload-validation template
  std::size_t next_gpu_ = 0;
  bool accepting_ = true;
  HealthGate breaker_;
};

}  // namespace serve::serving
