#include "serving/server.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "codec/jpeg.h"
#include "codec/synthetic.h"
#include "sim/sync.h"

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
}  // namespace

InferenceServer::InferenceServer(hw::Platform& platform, ServerConfig config)
    : platform_(platform),
      config_(config),
      stats_(platform.sim()),
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
  tele_.submitted = reg.counter("serving_requests_submitted_total");
  tele_.completed = reg.counter("serving_requests_completed_total");
  tele_.failed = reg.counter("serving_requests_failed_total");
  tele_.dropped = reg.counter("serving_requests_dropped_total");
  tele_.rejected = reg.counter("serving_requests_rejected_total");
  tele_.degraded = reg.counter("serving_requests_degraded_total");
  tele_.handoff_lost = reg.counter("serving_handoff_lost_total");
  tele_.broker_retries = reg.counter("serving_broker_publish_retries_total");
  tele_.broker_failovers = reg.counter("serving_broker_failovers_total");
  for (const auto to : {HealthGate::State::kOpen, HealthGate::State::kHalfOpen,
                        HealthGate::State::kClosed}) {
    const auto i = static_cast<std::size_t>(to);
    tele_.breaker_to[i] = reg.counter("serving_breaker_transitions_total",
                                      {{"to", std::string(kBreakerStateNames[i])}});
  }
  for (std::size_t s = 0; s < metrics::kStageCount; ++s) {
    tele_.stage_seconds[s] = reg.counter(
        "serving_stage_seconds_total",
        {{"stage", std::string(metrics::stage_name(static_cast<Stage>(s)))}});
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
  tele_.latency_sum = reg.counter("serving_latency_seconds_total");
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

void InferenceServer::record_terminal(const Request& req) {
  if (!tele_.latency.enabled()) return;
  tele_.latency.observe(sim::to_seconds(req.latency()), req.trace_ctx.trace_id);
  tele_.latency_sum.inc(sim::to_seconds(req.latency()));
  for (std::size_t s = 0; s < metrics::kStageCount; ++s) {
    const double v = req.stages.seconds[s];
    if (v > 0.0) tele_.stage_seconds[s].inc(v);
  }
}

void InferenceServer::note_breaker(HealthGate::State before) {
  const auto to = static_cast<std::size_t>(breaker_.state());
  if (to == static_cast<std::size_t>(before)) return;
  if (breaker_.state() == HealthGate::State::kOpen) stats_.record_breaker_open();
  tele_.breaker_to[to].inc();
  if (auditor_) auditor_->on_breaker_transition(kBreakerStateNames[to], platform_.sim().now());
}

void InferenceServer::submit(RequestPtr req) {
  ++submitted_;
  inflight_integral_.add(platform_.sim().now(), 1.0);
  tele_.submitted.inc();
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
  // try_put consumes its argument even when it fails; keep a second owner so
  // a rejected request can still be drop-accounted instead of destroyed.
  RequestPtr keep = req;
  bool accepted = false;
  try {
    accepted = ch.try_put(std::move(req));
  } catch (const sim::ChannelClosed&) {
    accepted = false;  // raced with shutdown's staged drain
  }
  if (accepted) return;
  ++lost_handoffs_;
  tele_.handoff_lost.inc();
  if (auditor_) auditor_->on_lost_handoff(*keep, where);
  drop_request(g, std::move(keep));
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

  const IngressFormat fmt = resolve_ingress(*req);

  // Payload validation: corrupted requests (a seeded per-id draw from the
  // fault plan) decode a byte-mutated template through the real JPEG
  // decoder; streams the codec rejects fail here, at ingest. Raw-tensor
  // requests carry no JPEG stream to validate.
  if (config_.validate_payloads && fmt == IngressFormat::kCompressedImage &&
      platform_.faults() != nullptr && platform_.faults()->corrupts_payload(req->id)) {
    if (!corrupted_payload_decodes(platform_.faults()->corruption_stream(req->id))) {
      fail_request(g, std::move(req), FailReason::kCorruptPayload);
      co_return;
    }
  }

  if (config_.mode == PipelineMode::kInferenceOnly) {
    // The client ships the preprocessed fp32 tensor (~5x the compressed
    // JPEG for the medium image — the Fig. 7 TinyViT data-transfer outlier).
    const std::int64_t bytes = config_.model.input_tensor_bytes();
    const Time t0 = sim.now();
    {
      auto host = co_await platform_.host_link().acquire();
      co_await sim.wait(seconds(platform_.host_link_seconds(bytes)));
    }
    {
      auto copy = co_await gpu.copy_h2d().acquire();
      co_await sim.wait(seconds(gpu.link_seconds(bytes)));
    }
    req->charge(Stage::kTransfer, sim.now() - t0);
    req->staged = gpu.stager().stage(bytes);
    enqueue_inference(g, std::move(req));
    co_return;
  }

  if (fmt == IngressFormat::kRawTensor) {
    // Client-side preprocessing: the fp32 network input crosses the host
    // fabric at tensor size (~5x a medium JPEG — the paper's F7 ingress
    // trade), but no server preprocess stage runs at all. On a GPU-preproc
    // deployment it continues straight over PCIe and is staged on-device;
    // on a CPU-preproc deployment it lands in the same host-side tensor
    // buffer CPU preprocessing fills, and rides the batched staging path to
    // the device at dispatch like every other host tensor.
    if (config_.mode == PipelineMode::kPreprocessOnly) {
      sim.spawn(finish_request(std::move(req)));
      co_return;
    }
    const std::int64_t bytes = config_.model.input_tensor_bytes();
    const bool device_direct = config_.preproc == PreprocDevice::kGpu;
    const Time t0 = sim.now();
    {
      auto host = co_await platform_.host_link().acquire();
      co_await sim.wait(seconds(platform_.host_link_seconds(bytes)));
    }
    if (device_direct) {
      auto copy = co_await gpu.copy_h2d().acquire();
      co_await sim.wait(seconds(gpu.link_seconds(bytes)));
    }
    req->charge(Stage::kTransfer, sim.now() - t0);
    if (device_direct) req->staged = gpu.stager().stage(bytes);
    enqueue_inference(g, std::move(req));
    co_return;
  }

  // Content-addressed ingress cache: probe with the request's stable payload
  // hash (zero = unique payload, never cached). The probe is real elapsed
  // host time charged to the preprocess stage with a blame naming the
  // outcome, so a tensor-level hit's skipped decode+resize+normalize is
  // *conserved* as a tiny preprocess span in the auditor breakdown and the
  // critical-path analyzer — not silently dropped.
  CacheLevel hit = CacheLevel::kNone;
  if (ingress_cache_ != nullptr && req->content_hash != 0) {
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

  if (config_.preproc == PreprocDevice::kCpu) {
    // CPU preprocessing path: decode on a tuned worker pool; the resulting
    // tensor is buffered in host memory until batch dispatch (the paper's
    // "CPU preprocessing benefits from a larger main memory" observation).
    // A tensor-level cache hit skips the worker pool entirely (the cached
    // tensor is already host-resident); an image-level hit skips decode.
    if (hit != CacheLevel::kTensor) {
      const Time t0 = sim.now();
      auto worker = co_await cpu.preproc_workers().acquire();
      req->charge(Stage::kQueue, sim.now() - t0, "preproc-worker");
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
    if (config_.mode == PipelineMode::kPreprocessOnly) {
      sim.spawn(finish_request(std::move(req)));
    } else {
      enqueue_inference(g, std::move(req));
    }
    co_return;
  }

  // Graceful degradation: when this GPU's preprocessing pipeline is in (or
  // recently left) a failure window, fall back to the CPU pool and ship the
  // preprocessed tensor instead — slower, but the request survives.
  if (gpu_degraded(g)) {
    stats_.record_degraded();
    tele_.degraded.inc();
    if (hit != CacheLevel::kTensor) {
      const Time q0 = sim.now();
      auto worker = co_await cpu.preproc_workers().acquire();
      req->charge(Stage::kQueue, sim.now() - q0, "preproc-worker;degraded");
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
    if (config_.mode == PipelineMode::kPreprocessOnly) {
      sim.spawn(finish_request(std::move(req)));
      co_return;
    }
    const std::int64_t bytes = config_.model.input_tensor_bytes();
    const Time t0 = sim.now();
    {
      auto host = co_await platform_.host_link().acquire();
      co_await sim.wait(seconds(platform_.host_link_seconds(bytes)));
    }
    {
      auto copy = co_await gpu.copy_h2d().acquire();
      co_await sim.wait(seconds(gpu.link_seconds(bytes)));
    }
    req->charge(Stage::kTransfer, sim.now() - t0);
    req->staged = gpu.stager().stage(bytes);
    enqueue_inference(g, std::move(req));
    co_return;
  }

  if (hit == CacheLevel::kTensor) {
    // The cached network input is host-resident: ship it to the device like
    // a raw-tensor request and skip the DALI pipeline entirely.
    if (config_.mode == PipelineMode::kPreprocessOnly) {
      sim.spawn(finish_request(std::move(req)));
      co_return;
    }
    const std::int64_t bytes = config_.model.input_tensor_bytes();
    const Time t0 = sim.now();
    {
      auto host = co_await platform_.host_link().acquire();
      co_await sim.wait(seconds(platform_.host_link_seconds(bytes)));
    }
    {
      auto copy = co_await gpu.copy_h2d().acquire();
      co_await sim.wait(seconds(gpu.link_seconds(bytes)));
    }
    req->charge(Stage::kTransfer, sim.now() - t0);
    req->staged = gpu.stager().stage(bytes);
    enqueue_inference(g, std::move(req));
    co_return;
  }

  // GPU preprocessing path: only the compressed JPEG crosses PCIe (or, on an
  // image-level cache hit, the host-cached decoded RGB — larger on the wire,
  // but the device skips its decode), then the image joins a DALI-style
  // batched pipeline on the device.
  {
    const std::int64_t bytes = hit == CacheLevel::kImage ? req->image.decoded_bytes()
                                                         : req->image.compressed_bytes;
    const Time t0 = sim.now();
    {
      auto host = co_await platform_.host_link().acquire();
      co_await sim.wait(seconds(platform_.host_link_seconds(bytes)));
    }
    {
      auto copy = co_await gpu.copy_h2d().acquire();
      co_await sim.wait(seconds(gpu.link_seconds(bytes)));
    }
    req->charge(Stage::kTransfer, sim.now() - t0);
  }
  req->enqueue_time = sim.now();
  hand_off(gpus_[g]->preproc_batcher.input(), g, std::move(req), "gpu-preprocess");
}

sim::Process InferenceServer::gpu_preproc_loop(std::size_t g) {
  auto& sim = platform_.sim();
  auto& gpu = platform_.gpu(g);
  auto& st = *gpus_[g];
  while (true) {
    // Demand-driven batching: only collect once a pipeline instance is free.
    auto pipeline = co_await gpu.preproc().acquire();
    std::vector<RequestPtr> batch;
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
  // GPU failure window: with a resilience policy on, the batch holds (the
  // pipeline token stays taken, modelling a wedged pipeline) until recovery;
  // without one it fails outright. The wait is charged as queue residue when
  // requests are next charged, since `start` is taken after the hold.
  bool fault_held = false;
  while (gpu.failed_now()) {
    if (!resilient_hold()) {
      pipeline.release();
      for (auto& r : batch) fail_request(g, std::move(r), FailReason::kGpuFault);
      co_return;
    }
    fault_held = true;
    const Time until =
        gpu.faults()->active_until(sim::FaultKind::kGpuFailure, gpu.index(), sim.now());
    co_await sim.wait(std::max<Time>(until - sim.now(), 1));
  }
  const Time start = sim.now();
  const std::string_view preproc_blame =
      fault_held ? "preproc-batch-formation;gpu-fault-hold" : "preproc-batch-formation";
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
}

sim::Process InferenceServer::inference_loop(std::size_t g) {
  auto& sim = platform_.sim();
  auto& cpu = platform_.cpu();
  auto& gpu = platform_.gpu(g);
  auto& st = *gpus_[g];
  const auto& scal = platform_.calib().serving;
  const double backend = models::backend_factor(platform_.calib().gpu, config_.backend);
  // The SM-sharing tax applies only while DALI preprocessing actually runs
  // on this device; a raw-tensor default ingress leaves the pipelines idle.
  const bool contended = config_.preproc == PreprocDevice::kGpu &&
                         config_.mode == PipelineMode::kEndToEnd &&
                         config_.ingress == IngressFormat::kCompressedImage;
  const bool cpu_staged_path =
      config_.preproc == PreprocDevice::kCpu && config_.mode == PipelineMode::kEndToEnd;

  while (true) {
    std::vector<RequestPtr> batch;
    {
      sim::Event ready{sim};
      sim.spawn(st.inf_batcher.collect_into(batch, ready));
      co_await ready.wait();
    }
    if (batch.empty()) break;  // input closed
    // GPU failure window: hold the dispatched batch until the GPU recovers
    // (resilience policy on — the wait lands in the queue stage because
    // dispatch accounting happens below) or fail it (no policy).
    bool batch_failed = false;
    bool fault_held = false;
    while (gpu.failed_now()) {
      if (!resilient_hold()) {
        for (auto& r : batch) fail_request(g, std::move(r), FailReason::kGpuFault);
        batch_failed = true;
        break;
      }
      fault_held = true;
      const Time until =
          gpu.faults()->active_until(sim::FaultKind::kGpuFailure, gpu.index(), sim.now());
      co_await sim.wait(std::max<Time>(until - sim.now(), 1));
    }
    if (batch_failed) continue;
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
    std::string dispatch_blame = "batch-formation batch=" +
                                 std::to_string(st.inf_batcher.batches_formed()) +
                                 " size=" + std::to_string(b);
    if (fault_held) dispatch_blame += ";gpu-fault-hold";
    for (const auto& r : batch) {
      r->charge(Stage::kQueue, dispatch - r->enqueue_time, dispatch_blame);
    }
    stats_.record_batch_size(b);
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
        const std::string reload_blame =
            "eviction-reload bytes=" + std::to_string(reload_bytes);
        const std::string stall_blame =
            "eviction-stall bytes=" + std::to_string(reload_bytes);
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

void InferenceServer::fail_request(std::size_t g, RequestPtr req, FailReason reason) {
  if (req->staged != 0) {
    platform_.gpu(g).stager().release(req->staged);
    req->staged = 0;
  }
  // Like drop_request: charge the uncharged residue since the last queue
  // entry so failed requests conserve stage time too.
  const Time now = platform_.sim().now();
  if (req->enqueue_time >= req->arrival && now > req->enqueue_time) {
    req->charge(Stage::kQueue, now - req->enqueue_time, fail_reason_name(reason));
  }
  req->failed = true;
  req->fail_reason = reason;
  req->completed = now;
  ++finished_;
  inflight_integral_.add(now, -1.0);
  stats_.record(*req);
  tele_.failed.inc();
  if (reason == FailReason::kBreakerOpen) tele_.rejected.inc();
  record_terminal(*req);
  // Breaker rejections and post-shutdown submissions must not feed the
  // breaker: it would hold itself open on its own rejections.
  const bool rejected = reason == FailReason::kBreakerOpen || reason == FailReason::kShutdown;
  settle_breaker(*req, rejected ? std::nullopt : std::optional<bool>{false});
  if (auditor_) auditor_->on_complete(*req);
  req->done.set();
}

void InferenceServer::drop_request(std::size_t g, RequestPtr req, std::string_view blame) {
  if (req->staged != 0) {
    platform_.gpu(g).stager().release(req->staged);
    req->staged = 0;
  }
  // The time since the last queue entry was never charged (drops happen
  // before dispatch accounting); charge it so dropped requests conserve
  // stage time like completed ones.
  const Time now = platform_.sim().now();
  if (req->enqueue_time >= req->arrival && now > req->enqueue_time) {
    req->charge(Stage::kQueue, now - req->enqueue_time, blame);
  }
  req->dropped = true;
  req->completed = now;
  ++finished_;
  inflight_integral_.add(now, -1.0);
  stats_.record(*req);
  tele_.dropped.inc();
  record_terminal(*req);
  settle_breaker(*req, std::nullopt);
  if (auditor_) auditor_->on_complete(*req);
  req->done.set();
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
        tele_.broker_retries.inc();
        if (attempt < attempts && pol.backoff_base > 0) {
          co_await sim.wait(pol.backoff_base << (attempt - 1));
        }
      }
      if (!delivered) {
        stats_.record_broker_failover();  // fused in-process delivery
        tele_.broker_failovers.inc();
      }
    } else {
      while (!co_await result_broker_->publish(req->id)) {
        co_await sim.wait(std::max<Time>(pol.poll_interval, 1));
      }
    }
    if (sim.now() > p0) req->charge(Stage::kPostprocess, sim.now() - p0, "broker-publish");
  }

  req->completed = sim.now();
  ++finished_;
  inflight_integral_.add(sim.now(), -1.0);
  stats_.record(*req);
  tele_.completed.inc();
  record_terminal(*req);
  settle_breaker(*req, true);
  if (auditor_) auditor_->on_complete(*req);
  req->done.set();
}

}  // namespace serve::serving
