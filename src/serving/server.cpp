#include "serving/server.h"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>
#include <utility>

#include "codec/jpeg.h"
#include "codec/synthetic.h"
#include "sim/sync.h"
#include "sim/trace.h"

namespace serve::serving {

using metrics::Stage;
using sim::seconds;
using sim::Time;

namespace {
/// Circuit-breaker score smoothing and the number of outcomes before the
/// error trigger may fire (a single early failure must not read as a 100%
/// error rate).
constexpr double kBreakerAlpha = 0.05;
constexpr std::uint64_t kBreakerMinOutcomes = 20;
constexpr std::array<std::string_view, 3> kBreakerStateNames{"closed", "open", "half-open"};

/// Ledger counts exported as registry counters, in registration order.
constexpr std::pair<std::string_view, std::uint64_t Ledger::Counts::*> kCountInstruments[] = {
    {"serving_requests_submitted_total", &Ledger::Counts::submitted},
    {"serving_requests_completed_total", &Ledger::Counts::completed},
    {"serving_requests_failed_total", &Ledger::Counts::failed},
    {"serving_requests_dropped_total", &Ledger::Counts::dropped},
    {"serving_requests_rejected_total", &Ledger::Counts::rejected},
    {"serving_requests_degraded_total", &Ledger::Counts::degraded},
    {"serving_handoff_lost_total", &Ledger::Counts::handoff_lost},
    {"serving_broker_publish_retries_total", &Ledger::Counts::broker_retries},
    {"serving_broker_failovers_total", &Ledger::Counts::broker_failovers},
};
}  // namespace

InferenceServer::InferenceServer(hw::Platform& platform, ServerConfig config)
    : platform_(platform),
      config_(config),
      ledger_(platform.sim().now()),
      breaker_({.enabled = config.breaker.enabled, .alpha = kBreakerAlpha,
                .trip_score = 1.0 - config.breaker.error_rate_open,
                .min_outcomes = kBreakerMinOutcomes, .hold = config.breaker.open_duration,
                .trial_slots = std::max(1, config.breaker.half_open_probes)}) {
  if (config_.ingress_cache.enabled) {
    ingress_cache_ = std::make_unique<IngressCache>(IngressCache::Options{
        .image_budget_bytes = config_.ingress_cache.image_budget_bytes,
        .tensor_budget_bytes = config_.ingress_cache.tensor_budget_bytes,
        .lookup_s = config_.ingress_cache.lookup_s});
  }
  // Occupancy integrators are sized before telemetry registers callbacks
  // over them and never resized afterwards (channel observers capture
  // element addresses).
  preproc_queue_integral_.resize(platform_.gpu_count());
  inf_queue_integral_.resize(platform_.gpu_count());
  if (platform_.registry() != nullptr) init_telemetry();
  if (config_.audit) {
    auditor_ = std::make_unique<RequestAuditor>(RequestAuditor::Options{
        .sampler = config_.trace_sampler, .run_label = config_.trace_run_label});
  }
  if (config_.validate_payloads) {
    // Template payload for ingest validation: corrupted requests decode a
    // seeded byte-mutated copy of this stream through the real JPEG decoder.
    template_jpeg_ =
        codec::encode_jpeg(codec::make_synthetic(96, 96, codec::Pattern::kScene, 7));
  }
  const int mb = config_.effective_max_batch();
  const Batcher<RequestPtr>::Options preproc_opts{
      .dynamic = true, .max_batch = mb, .max_queue_delay = 0, .fixed_batch = mb};
  const Batcher<RequestPtr>::Options inf_opts{.dynamic = config_.dynamic_batching,
                                              .max_batch = mb,
                                              .max_queue_delay = config_.max_queue_delay,
                                              .fixed_batch = config_.fixed_batch};
  for (std::size_t g = 0; g < platform_.gpu_count(); ++g) {
    gpus_.push_back(std::make_unique<GpuState>(platform_.sim(), preproc_opts, inf_opts));
  }
  auto& sim = platform_.sim();
  // Time-integrate batcher queue depths at every size change: point samples
  // of a bursty queue alias on the recorder cadence; the integral does not.
  for (std::size_t g = 0; g < gpus_.size(); ++g) {
    gpus_[g]->preproc_batcher.input().set_size_observer(
        [this, g](std::size_t n) {
          preproc_queue_integral_[g].set(platform_.sim().now(), static_cast<double>(n));
        });
    gpus_[g]->inf_batcher.input().set_size_observer([this, g](std::size_t n) {
      inf_queue_integral_[g].set(platform_.sim().now(), static_cast<double>(n));
    });
  }
  for (std::size_t g = 0; g < gpus_.size(); ++g) {
    const bool wants_gpu_preproc =
        config_.preproc == PreprocDevice::kGpu && config_.mode != PipelineMode::kInferenceOnly;
    if (wants_gpu_preproc) sim.spawn(gpu_preproc_loop(g));
    if (config_.mode != PipelineMode::kPreprocessOnly) {
      if (config_.instance_count < 1) {
        throw std::invalid_argument("ServerConfig: instance_count must be >= 1");
      }
      for (int i = 0; i < config_.instance_count; ++i) sim.spawn(inference_loop(g));
    }
  }
}

void InferenceServer::init_telemetry() {
  auto& reg = *platform_.registry();
  const Ledger& l = ledger_;
  for (const auto& [name, field] : kCountInstruments) {
    reg.counter_fn(std::string(name), {},
                   [&l, field] { return static_cast<double>(l.counts.*field); });
  }
  for (const auto to : {HealthGate::State::kOpen, HealthGate::State::kHalfOpen,
                        HealthGate::State::kClosed}) {
    const auto i = static_cast<std::size_t>(to);
    reg.counter_fn("serving_breaker_transitions_total",
                   {{"to", std::string(kBreakerStateNames[i])}},
                   [&l, i] { return static_cast<double>(l.counts.breaker_to[i]); });
  }
  for (std::size_t s = 0; s < metrics::kStageCount; ++s) {
    reg.counter_fn("serving_stage_seconds_total",
                   {{"stage", std::string(metrics::stage_name(static_cast<Stage>(s)))}},
                   [&l, s] { return l.stage_seconds[s]; });
  }
  // Exemplars on the latency histogram let the exporter link each bucket —
  // SLO tail included — to the last trace that landed there.
  tele_.latency = reg.histogram("serving_request_latency_seconds", {}, {.track_exemplars = true});
  tele_.batch_size =
      reg.histogram("serving_batch_size", {}, {.min_value = 1.0, .max_value = 4096.0});
  if (ingress_cache_ != nullptr) {
    IngressCache& c = *ingress_cache_;
    reg.counter_fn("serving_ingress_cache_hits_total", {{"level", "tensor"}},
                   [&c] { return static_cast<double>(c.tensor_hits()); });
    reg.counter_fn("serving_ingress_cache_hits_total", {{"level", "image"}},
                   [&c] { return static_cast<double>(c.image_hits()); });
    reg.counter_fn("serving_ingress_cache_misses_total", {},
                   [&c] { return static_cast<double>(c.misses()); });
    reg.counter_fn("serving_ingress_cache_evictions_total", {{"level", "tensor"}},
                   [&c] { return static_cast<double>(c.tensor_evictions()); });
    reg.counter_fn("serving_ingress_cache_evictions_total", {{"level", "image"}},
                   [&c] { return static_cast<double>(c.image_evictions()); });
    reg.gauge_fn("serving_ingress_cache_resident_bytes", {{"level", "tensor"}},
                 [&c] { return static_cast<double>(c.tensor_resident_bytes()); });
    reg.gauge_fn("serving_ingress_cache_resident_bytes", {{"level", "image"}},
                 [&c] { return static_cast<double>(c.image_resident_bytes()); });
  }
  reg.gauge_fn("serving_in_flight", {},
               [this] { return static_cast<double>(in_flight()); });
  // Little's-law feed: the time integral of in-flight requests (L side) and
  // the completion-charged latency sum (λ·W side). Both monotone counters;
  // per-tick deltas agree in steady state and split apart only while the
  // backlog is growing or draining — exactly what the audit rule watches.
  reg.counter_fn("serving_in_flight_seconds_total", {}, [this] {
    return inflight_integral_.integral_seconds(platform_.sim().now());
  });
  reg.counter_fn("serving_latency_seconds_total", {}, [&l] { return l.latency_sum; });
  // Queue depth per scheduler queue: sampled from the batchers at recorder
  // ticks (the growth-toward-seconds trajectory behind the Fig. 5 claim),
  // plus the time-weighted integral sibling the capacity plane differences
  // into alias-free interval means.
  for (std::size_t g = 0; g < platform_.gpu_count(); ++g) {
    const std::string dev = "gpu" + std::to_string(g);
    reg.gauge_fn("serving_queue_depth", {{"device", dev}, {"queue", "preproc"}}, [this, g] {
      return g < gpus_.size() ? static_cast<double>(gpus_[g]->preproc_batcher.queued()) : 0.0;
    });
    reg.gauge_fn("serving_queue_depth", {{"device", dev}, {"queue", "inference"}}, [this, g] {
      return g < gpus_.size() ? static_cast<double>(gpus_[g]->inf_batcher.queued()) : 0.0;
    });
    reg.counter_fn("serving_queue_depth_seconds_total",
                   {{"device", dev}, {"queue", "preproc"}}, [this, g] {
                     return preproc_queue_integral_[g].integral_seconds(platform_.sim().now());
                   });
    reg.counter_fn("serving_queue_depth_seconds_total",
                   {{"device", dev}, {"queue", "inference"}}, [this, g] {
                     return inf_queue_integral_[g].integral_seconds(platform_.sim().now());
                   });
  }
}

void InferenceServer::note_breaker(HealthGate::State before) {
  const auto to = static_cast<std::size_t>(breaker_.state());
  if (to == static_cast<std::size_t>(before)) return;
  ++ledger_.counts.breaker_to[to];
  if (auditor_) auditor_->on_breaker_transition(kBreakerStateNames[to], platform_.sim().now());
}

void InferenceServer::submit(RequestPtr req) {
  ++ledger_.counts.submitted;
  inflight_integral_.add(platform_.sim().now(), 1.0);
  if (auditor_) auditor_->on_submit(*req);
  if (!accepting_) {
    // Post-shutdown submissions are fail-accounted (counted, done signalled)
    // instead of thrown or silently destroyed: callers racing a drain still
    // observe a completed lifecycle and conservation holds.
    fail_request(0, std::move(req), FailReason::kShutdown);
    return;
  }
  if (!breaker_admits(*req)) {
    fail_request(0, std::move(req), FailReason::kBreakerOpen);
    return;
  }
  req->gpu_index = route_request();
  platform_.sim().spawn(handle_request(std::move(req)));
}

bool InferenceServer::breaker_admits(Request& req) {
  if (!config_.breaker.enabled) return true;
  const Time now = platform_.sim().now();
  const HealthGate::State before = breaker_.state();
  bool admitted = breaker_.admits(now);
  // In-flight depth is a trigger only the server sees; the submission that
  // reaches it is the first one rejected.
  if (admitted && breaker_.state() == HealthGate::State::kClosed &&
      static_cast<std::int64_t>(in_flight()) >= config_.breaker.queue_depth_open) {
    breaker_.trip(now);
    admitted = false;
  }
  req.breaker_trial = admitted && breaker_.state() == HealthGate::State::kHalfOpen;
  if (req.breaker_trial) breaker_.begin_trial();
  note_breaker(before);
  return admitted;
}

void InferenceServer::settle_breaker(Request& req, std::optional<bool> outcome) {
  if (std::exchange(req.breaker_trial, false)) breaker_.end_trial();
  if (!outcome) return;
  const HealthGate::State before = breaker_.state();
  breaker_.on_outcome(*outcome, platform_.sim().now());
  note_breaker(before);
}

bool InferenceServer::gpu_degraded(std::size_t g) {
  if (!config_.degrade.enabled) return false;
  auto& st = *gpus_[g];
  const Time now = platform_.sim().now();
  if (platform_.gpu(g).failed_now()) {
    st.degraded = true;
    st.last_unhealthy = now;
    return true;
  }
  if (st.degraded && now - st.last_unhealthy >= config_.degrade.hysteresis) {
    st.degraded = false;
  }
  return st.degraded;
}

std::size_t InferenceServer::route_request() {
  const std::size_t n = gpus_.size();
  if (config_.degrade.enabled) {
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t g = next_gpu_++ % n;
      if (!gpu_degraded(g)) return g;
    }
  }
  return next_gpu_++ % n;
}

bool InferenceServer::corrupted_payload_decodes(std::uint64_t stream_seed) const {
  std::vector<std::uint8_t> buf = template_jpeg_;
  std::uint64_t s = stream_seed | 1;  // xorshift64 must not start at zero
  auto next = [&s]() noexcept {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  };
  const std::size_t flips = 1 + static_cast<std::size_t>(next() % 8);
  for (std::size_t i = 0; i < flips; ++i) {
    buf[next() % buf.size()] ^= static_cast<std::uint8_t>(1 + next() % 255);
  }
  if (next() % 4 == 0) buf.resize(buf.size() / 2 + next() % (buf.size() / 2));  // truncation
  try {
    (void)codec::decode_jpeg(buf);
    return true;  // the mutation did not break the stream — payload usable
  } catch (const codec::jpeg::CodecError&) {
    return false;
  }
}

void InferenceServer::shutdown() {
  accepting_ = false;
  auto& sim = platform_.sim();
  // Let already-submitted requests reach a scheduler queue before anything
  // closes (no new submissions can arrive once accepting_ is false).
  sim.run();
  // Staged drain: close the preprocessing stage first and let its partial
  // batches flow into the inference queue, then close inference so a final
  // partial batch (possible with fixed-size batching) executes. Each stage
  // runs to quiescence before the next closes.
  for (auto& g : gpus_) g->preproc_batcher.input().close();
  sim.run();
  for (auto& g : gpus_) g->inf_batcher.input().close();
  sim.run();

  if (auditor_ && !auditor_->finalized()) {
    // Resource hygiene: a fully drained server owns no staged device memory,
    // holds nothing in its batcher queues, and leaks no blocked coroutines.
    for (std::size_t g = 0; g < gpus_.size(); ++g) {
      const std::string p = "gpu" + std::to_string(g) + ".";
      auditor_->check_zero(p + "stager.staged_count", platform_.gpu(g).stager().staged_count());
      auditor_->check_zero(p + "preproc_batcher.queued", gpus_[g]->preproc_batcher.queued());
      auditor_->check_zero(p + "inf_batcher.queued", gpus_[g]->inf_batcher.queued());
      auditor_->check_zero(p + "preproc.waiting_getters",
                           gpus_[g]->preproc_batcher.input().waiting_getters());
      auditor_->check_zero(p + "preproc.waiting_putters",
                           gpus_[g]->preproc_batcher.input().waiting_putters());
      auditor_->check_zero(p + "inf.waiting_getters",
                           gpus_[g]->inf_batcher.input().waiting_getters());
      auditor_->check_zero(p + "inf.waiting_putters",
                           gpus_[g]->inf_batcher.input().waiting_putters());
    }
    auditor_->finalize();
  }
}

void InferenceServer::enqueue_inference(std::size_t g, RequestPtr req) {
  req->enqueue_time = platform_.sim().now();
  hand_off(gpus_[g]->inf_batcher.input(), g, std::move(req), "inference");
}

void InferenceServer::hand_off(sim::Channel<RequestPtr>& ch, std::size_t g, RequestPtr req,
                               std::string_view where) {
  bool accepted = false;
  try {
    accepted = ch.try_put(std::move(req));
  } catch (const sim::ChannelClosed&) {
    accepted = false;  // raced with shutdown's staged drain
  }
  if (accepted) return;
  ++ledger_.counts.handoff_lost;
  if (auditor_) auditor_->on_lost_handoff(*req, where);
  drop_request(g, std::move(req));
}

sim::Process InferenceServer::handle_request(RequestPtr req) {
  auto& sim = platform_.sim();
  auto& cpu = platform_.cpu();
  auto& gpu = platform_.gpu(req->gpu_index);
  const std::size_t g = req->gpu_index;

  // Ingest: HTTP parse / deserialize on a host core.
  {
    const Time t0 = sim.now();
    auto core = co_await cpu.cores().acquire();
    req->charge(Stage::kQueue, sim.now() - t0, "host-core");
    co_await sim.wait(seconds(cpu.ingest_seconds()));
    req->charge(Stage::kIngest, seconds(cpu.ingest_seconds()));
  }

  // The route is decided once per request from ServerConfig (rules in
  // server.h).
  const bool client_tensor = config_.mode == PipelineMode::kInferenceOnly ||
                             config_.ingress == IngressFormat::kRawTensor;

  // Payload validation: corrupted requests (a seeded per-id draw from the
  // fault plan) decode a byte-mutated template through the real JPEG
  // decoder; streams the codec rejects fail here, at ingest. A client tensor
  // carries no JPEG stream to validate.
  if (config_.validate_payloads && !client_tensor &&
      platform_.faults() != nullptr && platform_.faults()->corrupts_payload(req->id)) {
    if (!corrupted_payload_decodes(platform_.faults()->corruption_stream(req->id))) {
      fail_request(g, std::move(req), FailReason::kCorruptPayload);
      co_return;
    }
  }

  // Content-addressed ingress cache: probe with the request's stable payload
  // hash (zero = unique payload, never cached). The probe is real elapsed
  // host time charged to the preprocess stage with a blame naming the
  // outcome, so a tensor-level hit's skipped decode+resize+normalize is
  // *conserved* as a tiny preprocess span in the auditor breakdown and the
  // critical-path analyzer — not silently dropped.
  CacheLevel hit = CacheLevel::kNone;
  if (!client_tensor && ingress_cache_ != nullptr && req->content_hash != 0) {
    hit = ingress_cache_->lookup(req->content_hash, config_.model.input_side);
    req->cache_hit = hit;
    const double probe = ingress_cache_->options().lookup_s;
    if (probe > 0.0) {
      co_await sim.wait(seconds(probe));
      req->charge(Stage::kPreprocess, seconds(probe),
                  hit == CacheLevel::kTensor   ? "ingress-cache-hit level=tensor"
                  : hit == CacheLevel::kImage  ? "ingress-cache-hit level=image"
                                               : "ingress-cache-miss");
    }
  }

  // Graceful degradation: when this GPU's preprocessing pipeline is in (or
  // recently left) a failure window, fall back to the CPU pool and ship the
  // preprocessed tensor instead — slower, but the request survives.
  const bool degraded =
      !client_tensor && config_.preproc == PreprocDevice::kGpu && gpu_degraded(g);
  if (degraded) ++ledger_.counts.degraded;

  // CPU preprocessing: decode on a tuned worker pool; the resulting tensor
  // is buffered in host memory until batch dispatch (the paper's "CPU
  // preprocessing benefits from a larger main memory" observation). A
  // tensor-level cache hit skips the pool entirely (the cached tensor is
  // already host-resident); an image-level hit skips decode.
  const bool cpu_preproc =
      degraded || (!client_tensor && config_.preproc == PreprocDevice::kCpu);
  if (cpu_preproc && hit != CacheLevel::kTensor) {
    const Time t0 = sim.now();
    auto worker = co_await cpu.preproc_workers().acquire();
    req->charge(Stage::kQueue, sim.now() - t0,
                degraded ? "preproc-worker;degraded" : "preproc-worker");
    const double p = cpu.preprocess_seconds(req->image, config_.model.input_side,
                                            hit == CacheLevel::kImage);
    co_await sim.wait(seconds(p));
    worker.release();
    req->charge(Stage::kPreprocess, seconds(p));
    if (ingress_cache_ != nullptr && req->content_hash != 0) {
      ingress_cache_->insert(req->content_hash, req->image.decoded_bytes(),
                             config_.model.input_side);
    }
  }

  const bool tensor_ready = client_tensor || cpu_preproc || hit == CacheLevel::kTensor;
  if (tensor_ready && config_.mode == PipelineMode::kPreprocessOnly) {
    sim.spawn(finish_request(std::move(req)));
    co_return;
  }

  // Transfer. A host tensor stays in host memory on a CPU deployment and
  // rides the batched staging path at dispatch; anything bound for the
  // device crosses PCIe too: a tensor (the fp32 network input, ~5x a medium
  // JPEG — the paper's F7 ingress trade) is staged on-device, while an
  // image crosses as its compressed JPEG (or, on an image-level hit, the
  // host-cached decoded RGB: larger on the wire, but the device skips its
  // decode) and joins the DALI-style batched pipeline.
  const bool to_device = !tensor_ready || config_.preproc == PreprocDevice::kGpu ||
                         config_.mode == PipelineMode::kInferenceOnly;
  if (to_device || client_tensor) {
    const std::int64_t bytes = tensor_ready               ? config_.model.input_tensor_bytes()
                               : hit == CacheLevel::kImage ? req->image.decoded_bytes()
                                                           : req->image.compressed_bytes;
    const Time t0 = sim.now();
    {
      auto host = co_await platform_.host_link().acquire();
      co_await sim.wait(seconds(platform_.host_link_seconds(bytes)));
    }
    if (to_device) {
      auto copy = co_await gpu.copy_h2d().acquire();
      co_await sim.wait(seconds(gpu.link_seconds(bytes)));
    }
    req->charge(Stage::kTransfer, sim.now() - t0);
    if (tensor_ready && to_device) req->staged = gpu.stager().stage(bytes);
  }

  if (tensor_ready) {
    enqueue_inference(g, std::move(req));
  } else {
    req->enqueue_time = sim.now();
    hand_off(gpus_[g]->preproc_batcher.input(), g, std::move(req), "gpu-preprocess");
  }
}

sim::Task<InferenceServer::GpuHold> InferenceServer::hold_through_gpu_failure(std::size_t g) {
  auto& sim = platform_.sim();
  auto& gpu = platform_.gpu(g);
  GpuHold hold = GpuHold::kNone;
  while (gpu.failed_now()) {
    if (!resilient_hold()) co_return GpuHold::kFail;
    hold = GpuHold::kHeld;
    const Time until =
        gpu.faults()->active_until(sim::FaultKind::kGpuFailure, gpu.index(), sim.now());
    co_await sim.wait(std::max<Time>(until - sim.now(), 1));
  }
  co_return hold;
}

sim::Process InferenceServer::gpu_preproc_loop(std::size_t g) {
  auto& sim = platform_.sim();
  auto& gpu = platform_.gpu(g);
  auto& st = *gpus_[g];
  while (true) {
    // Demand-driven batching: only collect once a pipeline instance is free.
    auto pipeline = co_await gpu.preproc().acquire();
    std::vector<RequestPtr> batch;
    if (!st.spare_batches.empty()) {
      batch = std::move(st.spare_batches.back());
      st.spare_batches.pop_back();
    }
    sim::Event ready{sim};
    sim.spawn(st.preproc_batcher.collect_into(batch, ready));
    co_await ready.wait();
    if (batch.empty()) break;  // input closed
    sim.spawn(run_gpu_preproc_batch(g, std::move(batch), std::move(pipeline)));
  }
}

sim::Process InferenceServer::run_gpu_preproc_batch(std::size_t g, std::vector<RequestPtr> batch,
                                                    sim::ResourceToken pipeline) {
  auto& sim = platform_.sim();
  auto& gpu = platform_.gpu(g);
  const auto recycle = [&] {
    batch.clear();
    gpus_[g]->spare_batches.push_back(std::move(batch));
  };
  // A held batch keeps its pipeline token, modelling a wedged pipeline. The
  // hold is charged as queue residue below, since `start` is taken after it.
  const GpuHold hold = co_await hold_through_gpu_failure(g);
  if (hold == GpuHold::kFail) {
    pipeline.release();
    for (auto& r : batch) fail_request(g, std::move(r), FailReason::kGpuFault);
    recycle();
    co_return;
  }
  const Time start = sim.now();
  const std::string_view preproc_blame = hold == GpuHold::kHeld
                                             ? "preproc-batch-formation;gpu-fault-hold"
                                             : "preproc-batch-formation";
  double total = gpu.preproc_batch_fixed_seconds();
  for (const auto& r : batch) {
    r->charge(Stage::kQueue, start - r->enqueue_time, preproc_blame);
    // Image-level cache hits arrive decoded: the device only resizes them.
    total += gpu.preproc_image_seconds(r->image, r->cache_hit == CacheLevel::kImage);
  }
  co_await sim.wait(seconds(total));
  pipeline.release();
  for (auto& r : batch) {
    // Every request rides the whole batch through the pipeline, so each one
    // experiences the full batch duration (conservation: stage times sum to
    // end-to-end latency).
    r->charge(Stage::kPreprocess, seconds(total));
    if (ingress_cache_ != nullptr && r->content_hash != 0) {
      ingress_cache_->insert(r->content_hash, r->image.decoded_bytes(),
                             config_.model.input_side);
    }
    // Decoded intermediate + fp32 tensor stay on-device until consumed.
    r->staged =
        gpu.stager().stage(r->image.decoded_bytes() + config_.model.input_tensor_bytes());
    if (config_.mode == PipelineMode::kPreprocessOnly) {
      gpu.stager().release(r->staged);
      r->staged = 0;
      sim.spawn(finish_request(std::move(r)));
    } else {
      enqueue_inference(g, std::move(r));
    }
  }
  recycle();
}

sim::Process InferenceServer::inference_loop(std::size_t g) {
  auto& sim = platform_.sim();
  auto& cpu = platform_.cpu();
  auto& gpu = platform_.gpu(g);
  auto& st = *gpus_[g];
  const auto& scal = platform_.calib().serving;
  const double backend = models::backend_factor(platform_.calib().gpu, config_.backend);
  // The SM-sharing tax applies only while DALI preprocessing actually runs
  // on this device; raw-tensor ingress leaves the pipelines idle.
  const bool contended = config_.preproc == PreprocDevice::kGpu &&
                         config_.mode == PipelineMode::kEndToEnd &&
                         config_.ingress == IngressFormat::kCompressedImage;
  const bool cpu_staged_path =
      config_.preproc == PreprocDevice::kCpu && config_.mode == PipelineMode::kEndToEnd;

  std::vector<RequestPtr> batch;  // reused: collect_into clears it
  while (true) {
    {
      sim::Event ready{sim};
      sim.spawn(st.inf_batcher.collect_into(batch, ready));
      co_await ready.wait();
    }
    if (batch.empty()) break;  // input closed
    // The hold lands in the queue stage because dispatch accounting happens
    // below.
    const GpuHold hold = co_await hold_through_gpu_failure(g);
    if (hold == GpuHold::kFail) {
      for (auto& r : batch) fail_request(g, std::move(r), FailReason::kGpuFault);
      continue;
    }
    // Admission control: shed requests that already blew the deadline — or
    // were cancelled by a hedging balancer — before spending GPU time on
    // them. Both paths drop-account, so the auditor conserves them.
    bool any_cancelled = false;
    for (const auto& r : batch) {
      if (r->cancel_requested) {
        any_cancelled = true;
        break;
      }
    }
    if (config_.shed_deadline > 0 || any_cancelled) {
      std::vector<RequestPtr> kept;
      kept.reserve(batch.size());
      for (auto& r : batch) {
        if (r->cancel_requested) {
          const std::string_view blame = r->cancel_reason;
          drop_request(g, std::move(r), blame);
        } else if (config_.shed_deadline > 0 && sim.now() - r->arrival > config_.shed_deadline) {
          drop_request(g, std::move(r));
        } else {
          kept.push_back(std::move(r));
        }
      }
      batch = std::move(kept);
      if (batch.empty()) continue;
    }
    const auto b = static_cast<int>(batch.size());
    const Time dispatch = sim.now();
    // Blame names the batch this request waited to join: which formation
    // window held it, how full the batch got, and whether a GPU fault window
    // extended the hold.
    const sim::TraceName dispatch_blame{"batch-formation batch=", st.inf_batcher.batches_formed(),
                                        " size=", static_cast<std::uint64_t>(b),
                                        hold == GpuHold::kHeld ? ";gpu-fault-hold" : ""};
    for (const auto& r : batch) {
      r->charge(Stage::kQueue, dispatch - r->enqueue_time, dispatch_blame);
    }
    ledger_.on_batch(b);
    tele_.batch_size.observe(static_cast<double>(b));

    if (cpu_staged_path) {
      // Ensemble hop: per-batch gap + per-image serialized staging. The
      // batch's PCIe copy itself is double-buffered behind the previous
      // batch's compute, so only the synchronization cost blocks the loop.
      // The GPU sits clocked-up but stalled for the duration (Fig. 8).
      const Time s0 = sim.now();
      auto stall = co_await gpu.stall().acquire();
      const Time stall_wait = sim.now() - s0;  // instance groups contend here
      co_await sim.wait(seconds(scal.cpu_path_batch_gap_s));
      // Charge each wait when it ends, not after the following work: the
      // charge timestamp is what anchors the trace span, so a late charge
      // would overlap the transfer span and leave the real stall uncovered.
      for (const auto& r : batch) {
        r->charge(Stage::kQueue, stall_wait + seconds(scal.cpu_path_batch_gap_s),
                  "cpu-staging-stall");
      }
      const double staging = static_cast<double>(b) * cpu.staging_seconds_per_image();
      co_await sim.wait(seconds(staging));
      stall.release();
      for (const auto& r : batch) r->charge(Stage::kTransfer, seconds(staging));
    } else {
      // On-device handoff; claim staged buffers and pay reloads for any that
      // were evicted under memory pressure (paper Sec. 4.3 hypothesis).
      const Time s0 = sim.now();
      {
        auto stall = co_await gpu.stall().acquire();
        co_await sim.wait(seconds(scal.gpu_path_batch_gap_s));
      }
      const Time stall_wait = sim.now() - s0 - seconds(scal.gpu_path_batch_gap_s);
      std::int64_t reload_bytes = 0;
      std::vector<Request*> evicted;
      for (const auto& r : batch) {
        if (r->staged == 0) continue;
        const std::int64_t rb = gpu.stager().claim(r->staged);
        r->staged = 0;
        if (rb > 0) {
          reload_bytes += rb;
          evicted.push_back(r.get());
        }
      }
      for (const auto& r : batch) {
        r->charge(Stage::kQueue, stall_wait + seconds(scal.gpu_path_batch_gap_s),
                  "dispatch-gap");
      }
      if (reload_bytes > 0) {
        const Time t0 = sim.now();
        {
          auto host = co_await platform_.host_link().acquire();
          co_await sim.wait(seconds(platform_.host_link_seconds(reload_bytes)));
        }
        {
          auto copy = co_await gpu.copy_h2d().acquire();
          co_await sim.wait(seconds(gpu.link_seconds(reload_bytes)));
        }
        const Time dt = sim.now() - t0;
        // Evicted members pay the reload as transfer time; the rest of the
        // batch waits on them, so they are charged the same interval as
        // queueing (stage conservation: the whole batch stalls together).
        const auto bytes = static_cast<std::uint64_t>(reload_bytes);
        const sim::TraceName reload_blame{"eviction-reload bytes=", bytes};
        const sim::TraceName stall_blame{"eviction-stall bytes=", bytes};
        for (const auto& r : batch) {
          const bool was_evicted =
              std::find(evicted.begin(), evicted.end(), r.get()) != evicted.end();
          r->charge(was_evicted ? Stage::kTransfer : Stage::kQueue, dt,
                    was_evicted ? reload_blame : stall_blame);
        }
      }
    }

    // Execute the batch on the tensor engine.
    {
      const Time t0 = sim.now();
      auto engine = co_await gpu.compute().acquire();
      const Time waited = sim.now() - t0;
      for (const auto& r : batch) r->charge(Stage::kQueue, waited, "engine-wait");
      const double ct = gpu.inference_batch_seconds(config_.model.flops(), b, backend, contended);
      co_await sim.wait(seconds(ct));
      engine.release();
      for (const auto& r : batch) r->charge(Stage::kInference, seconds(ct));
    }

    // Return results to the host.
    {
      const std::int64_t bytes = b * config_.model.output_bytes;
      const Time t0 = sim.now();
      auto copy = co_await gpu.copy_d2h().acquire();
      co_await sim.wait(seconds(gpu.link_seconds(bytes)));
      copy.release();
      const Time dt = sim.now() - t0;
      for (const auto& r : batch) r->charge(Stage::kTransfer, dt);
    }

    for (auto& r : batch) sim.spawn(finish_request(std::move(r)));
  }
}

Time InferenceServer::close_out(std::size_t g, Request& req, std::string_view blame) {
  if (req.staged != 0) {
    platform_.gpu(g).stager().release(req.staged);
    req.staged = 0;
  }
  // The time since the last queue entry was never charged (failures and
  // drops happen before dispatch accounting); charge it so these requests
  // conserve stage time like completed ones.
  const Time now = platform_.sim().now();
  if (req.enqueue_time >= req.arrival && now > req.enqueue_time) {
    req.charge(Stage::kQueue, now - req.enqueue_time, blame);
  }
  return now;
}

void InferenceServer::fail_request(std::size_t g, RequestPtr req, FailReason reason) {
  req->completed = close_out(g, *req, fail_reason_name(reason));
  req->failed = true;
  req->fail_reason = reason;
  // Breaker rejections and post-shutdown submissions must not feed the
  // breaker: it would hold itself open on its own rejections.
  const bool rejected = reason == FailReason::kBreakerOpen || reason == FailReason::kShutdown;
  settle(*req, rejected ? std::nullopt : std::optional<bool>{false});
}

void InferenceServer::drop_request(std::size_t g, RequestPtr req, std::string_view blame) {
  req->completed = close_out(g, *req, blame);
  req->dropped = true;
  settle(*req, std::nullopt);
}

sim::Process InferenceServer::finish_request(RequestPtr req) {
  auto& sim = platform_.sim();
  auto& cpu = platform_.cpu();
  const Time t0 = sim.now();
  {
    auto core = co_await cpu.cores().acquire();
    req->charge(Stage::kQueue, sim.now() - t0, "host-core");
    const double post = std::max(cpu.postprocess_seconds(), config_.model.postprocess_cpu_s);
    co_await sim.wait(seconds(post));
    core.release();
    req->charge(Stage::kPostprocess, seconds(post));
  }

  // Result publication through the broker. During an outage, the policy path
  // retries a few times with exponential backoff and then fails over to the
  // fused in-process delivery; the no-policy baseline blindly re-polls until
  // the broker takes the message, so completions pile up for the whole
  // outage (the unbounded-backlog scenario the circuit breaker exists for).
  if (result_broker_ != nullptr && config_.broker_publish.publish_results) {
    const auto& pol = config_.broker_publish;
    const Time p0 = sim.now();
    if (pol.retry_enabled) {
      bool delivered = false;
      const int attempts = std::max(1, pol.max_attempts);
      for (int attempt = 1; attempt <= attempts; ++attempt) {
        if (co_await result_broker_->publish(req->id)) {
          delivered = true;
          break;
        }
        ++ledger_.counts.broker_retries;
        if (attempt < attempts && pol.backoff_base > 0) {
          co_await sim.wait(pol.backoff_base << (attempt - 1));
        }
      }
      if (!delivered) ++ledger_.counts.broker_failovers;  // fused in-process delivery
    } else {
      while (!co_await result_broker_->publish(req->id)) {
        co_await sim.wait(std::max<Time>(pol.poll_interval, 1));
      }
    }
    if (sim.now() > p0) req->charge(Stage::kPostprocess, sim.now() - p0, "broker-publish");
  }

  req->completed = sim.now();
  settle(*req, true);
}

void InferenceServer::settle(Request& req, std::optional<bool> outcome) {
  ledger_.on_terminal(req);
  tele_.latency.observe(sim::to_seconds(req.latency()), req.trace_ctx.trace_id);
  inflight_integral_.add(req.completed, -1.0);
  settle_breaker(req, outcome);
  if (auditor_) auditor_->on_complete(req);
  req.done.set();
}

}  // namespace serve::serving
