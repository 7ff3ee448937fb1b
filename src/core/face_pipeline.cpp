#include "core/face_pipeline.h"

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "broker/broker.h"
#include "hw/devices.h"
#include "metrics/histogram.h"
#include "models/model_zoo.h"
#include "serving/batcher.h"
#include "sim/channel.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "sim/sync.h"

namespace serve::core {

namespace {

using metrics::Stage;
using sim::seconds;
using sim::Time;

struct Frame {
  Frame(sim::Simulator& sim, std::uint64_t id_, int faces_)
      : id(id_), faces(faces_), remaining(faces_), arrival(sim.now()), done(sim) {}

  std::uint64_t id;
  int faces;
  int remaining;
  Time arrival;
  Time publish_start = 0;   ///< detection handed faces to the broker
  Time last_delivered = 0;  ///< broker delivered the final face
  metrics::StageTimes stages{};
  trace::SpanContext ctx{};  ///< causal root (zero when untraced/unsampled)
  sim::Event done;
};

using FramePtr = std::shared_ptr<Frame>;

struct FaceMsg {
  FramePtr frame;
  int face_index = 0;
  trace::SpanContext ctx{};  ///< delivery span's context after the broker hop
  Time delivered = 0;        ///< when the broker handed this face over
};

/// Whole pipeline state bundled for the coroutine bodies.
struct Pipeline {
  Pipeline(sim::Simulator& sim_, const FacePipelineSpec& spec_)
      : sim(sim_),
        spec(spec_),
        platform(sim_, {.calib = spec_.calib, .gpu_count = 1}),
        broker(sim_, spec_.broker == BrokerKind::kKafka
                         ? broker::kafka_profile(spec_.calib.broker)
                         : broker::redis_profile(spec_.calib.broker)),
        frames_in(sim_, std::numeric_limits<std::size_t>::max(), "frames"),
        id_batcher(sim_, {.dynamic = true, .max_batch = spec_.id_max_batch}),
        rng(spec_.seed),
        sampler(spec_.trace_sampler),
        detection(models::faster_rcnn()),
        identification(models::facenet()) {
    broker.set_tracer(spec_.tracer);
  }

  sim::Simulator& sim;
  const FacePipelineSpec& spec;
  hw::Platform platform;
  broker::SimBroker<FaceMsg> broker;
  sim::Channel<FramePtr> frames_in;
  serving::Batcher<FaceMsg> id_batcher;
  sim::Rng rng;
  trace::TraceSampler sampler;
  const models::ModelDesc& detection;
  const models::ModelDesc& identification;

  // Measurement window.
  bool measuring = false;
  std::uint64_t frames_done = 0;
  std::uint64_t faces_done = 0;
  metrics::Histogram latency;
  metrics::Breakdown breakdown;
  std::uint64_t next_frame_id = 1;
  bool stopping = false;

  [[nodiscard]] int sample_faces() {
    if (!spec.stochastic_faces) return spec.faces_per_frame;
    const auto n = rng.poisson(static_cast<double>(spec.faces_per_frame));
    return n == 0 ? 1 : static_cast<int>(n);  // a frame enters only if faces exist
  }

  /// Records a span under `parent` on the frame's trace track. No-op without
  /// a tracer; the tracer itself no-ops unsampled contexts (ids still
  /// allocated, keeping id assignment scheduling-independent).
  void span(const trace::SpanContext& parent, std::uint64_t frame_id, std::string_view name,
            Time begin, Time end, sim::TraceArgs args = {}) {
    if (spec.tracer != nullptr && parent.valid()) {
      spec.tracer->child_span(parent, sim::TraceName("frame.", frame_id), name, begin, end, args);
    }
  }

  void finalize(Frame& frame, Time id_batch_span) {
    frame.stages[Stage::kInference] += sim::to_seconds(id_batch_span);
    if (spec.broker != BrokerKind::kFused) {
      frame.stages[Stage::kBroker] +=
          sim::to_seconds(frame.last_delivered - frame.publish_start);
    }
    const Time latency_ns = sim.now() - frame.arrival;
    // Whatever is not attributed to a named stage is scheduler queueing.
    const double other = sim::to_seconds(latency_ns) - frame.stages.total();
    if (other > 0.0) frame.stages[Stage::kQueue] += other;
    if (measuring) {
      ++frames_done;
      faces_done += static_cast<std::uint64_t>(frame.faces);
      latency.add(sim::to_seconds(latency_ns));
      breakdown.add(frame.stages);
    }
    if (spec.tracer != nullptr && frame.ctx.sampled) {
      sim::TraceArg args[3];
      std::size_t n = 0;
      if (!spec.trace_label.empty()) args[n++] = {"run", spec.trace_label};
      args[n++] = {"frame_id", frame.id};
      args[n++] = {"faces", static_cast<std::uint64_t>(frame.faces)};
      spec.tracer->record(frame.ctx, sim::TraceName("frame.", frame.id), "frame", frame.arrival,
                          sim.now(), {args, n});
    }
    frame.done.set();
  }
};

void charge(Frame& f, Stage s, Time dt) { f.stages[s] += sim::to_seconds(dt); }

/// Closed-loop frame source: keeps one frame outstanding per client.
sim::Process frame_client(Pipeline& p) {
  while (!p.stopping) {
    auto frame = std::make_shared<Frame>(p.sim, p.next_frame_id++, p.sample_faces());
    p.frames_in.try_put(frame);
    co_await frame->done.wait();
  }
}

/// Publishes one face message (spawned so detection is not serialized on
/// broker IO; ordering is preserved by the broker's FIFO IO pool). The
/// frame's context rides along so the broker's publish/delivery spans hang
/// off the frame's trace.
sim::Process publish_face(Pipeline& p, FaceMsg msg) {
  const trace::SpanContext ctx = msg.frame->ctx;
  co_await p.broker.publish(std::move(msg), ctx);
}

/// Stage 1: per-frame preprocessing + Faster R-CNN detection at batch 1,
/// then hand-off (broker publish or fused in-process identification).
sim::Process detection_loop(Pipeline& p) {
  auto& gpu = p.platform.gpu(0);
  while (true) {
    auto got = co_await p.frames_in.get();
    if (!got) break;
    FramePtr frame = std::move(*got);
    // Originate the frame's causal trace: the sampling fate is decided here,
    // from the frame id alone, and carried by every downstream participant.
    if (p.spec.tracer != nullptr) {
      frame->ctx = p.spec.tracer->begin_trace(p.sampler.sample(frame->id));
      // Time between frame arrival and detection pickup (closed-loop frames
      // queue here); without this span it would surface as root self time.
      if (p.sim.now() > frame->arrival) {
        p.span(frame->ctx, frame->id, "queue", frame->arrival, p.sim.now(),
               {{"blame", "detection-pickup"}});
      }
    }

    // Frame preprocessing through a GPU pipeline instance.
    {
      const Time t0 = p.sim.now();
      auto pipe = co_await gpu.preproc().acquire();
      charge(*frame, Stage::kQueue, p.sim.now() - t0);
      if (p.sim.now() > t0) {
        p.span(frame->ctx, frame->id, "queue", t0, p.sim.now(),
               {{"blame", "preproc-pipeline"}});
      }
      const double pre =
          gpu.preproc_batch_fixed_seconds() + gpu.preproc_image_seconds(p.spec.frame_image);
      const Time p0 = p.sim.now();
      co_await p.sim.wait(seconds(pre));
      charge(*frame, Stage::kPreprocess, seconds(pre));
      p.span(frame->ctx, frame->id, "preprocess", p0, p.sim.now());
    }

    // Detection (batch 1: frames flow through the detector one at a time).
    {
      const Time t0 = p.sim.now();
      auto engine = co_await gpu.compute().acquire();
      charge(*frame, Stage::kQueue, p.sim.now() - t0);
      if (p.sim.now() > t0) {
        p.span(frame->ctx, frame->id, "queue", t0, p.sim.now(), {{"blame", "engine-wait"}});
      }
      const double det = gpu.inference_batch_seconds(p.detection.flops(), 1, 1.0, false);
      const Time d0 = p.sim.now();
      co_await p.sim.wait(seconds(det));
      charge(*frame, Stage::kInference, seconds(det));
      p.span(frame->ctx, frame->id, "inference", d0, p.sim.now(), {{"model", "detection"}});
    }

    if (p.spec.broker == BrokerKind::kFused) {
      // Fused system: identify each face in-process, one invocation per
      // detected face (no cross-frame batching possible).
      Time id_total = 0;
      for (int i = 0; i < frame->faces; ++i) {
        auto engine = co_await gpu.compute().acquire();
        const double idt = gpu.inference_batch_seconds(p.identification.flops(), 1, 1.0, false);
        const Time t0 = p.sim.now();
        co_await p.sim.wait(seconds(idt));
        id_total += p.sim.now() - t0;
        p.span(frame->ctx, frame->id, "inference", t0, p.sim.now(),
               {{"model", "identification"}, {"face", static_cast<std::uint64_t>(i)}});
      }
      p.finalize(*frame, id_total);
      continue;
    }

    // Brokered system: producer/consumer synchronization bubble on the GPU
    // pipeline, then one message per face.
    {
      const Time s0 = p.sim.now();
      auto engine = co_await gpu.compute().acquire();
      co_await p.sim.wait(seconds(p.spec.calib.broker.pipeline_sync_s));
      charge(*frame, Stage::kQueue, seconds(p.spec.calib.broker.pipeline_sync_s));
      if (p.sim.now() > s0) {
        p.span(frame->ctx, frame->id, "queue", s0, p.sim.now(), {{"blame", "pipeline-sync"}});
      }
    }
    frame->publish_start = p.sim.now();
    for (int i = 0; i < frame->faces; ++i) {
      p.sim.spawn(publish_face(p, FaceMsg{frame, i}));
    }
  }
  if (p.spec.broker != BrokerKind::kFused) p.broker.close();
  p.id_batcher.input().close();
}

/// Moves delivered face messages from the broker into the identification
/// dynamic batcher.
sim::Process consume_pump(Pipeline& p) {
  while (true) {
    auto d = co_await p.broker.consume_traced();
    if (!d) break;
    d->payload.frame->last_delivered = p.sim.now();
    // Downstream identification spans parent under the delivery span, so
    // the chain detect -> publish -> deliver -> identify stays causal.
    d->payload.ctx = d->ctx;
    d->payload.delivered = p.sim.now();
    p.id_batcher.input().try_put(std::move(d->payload));
  }
}

/// Stage 2: FaceNet over dynamically batched faces (across frames).
sim::Process identification_loop(Pipeline& p) {
  auto& gpu = p.platform.gpu(0);
  while (true) {
    std::vector<FaceMsg> batch;
    {
      sim::Event ready{p.sim};
      p.sim.spawn(p.id_batcher.collect_into(batch, ready));
      co_await ready.wait();
    }
    if (batch.empty()) break;
    auto engine = co_await gpu.compute().acquire();
    const double idt = gpu.inference_batch_seconds(
        p.identification.flops(), static_cast<int>(batch.size()), 1.0, false);
    const Time t0 = p.sim.now();
    co_await p.sim.wait(seconds(idt));
    const Time span = p.sim.now() - t0;
    engine.release();
    const sim::TraceName id_blame("id-batch-formation batch=", p.id_batcher.batches_formed(),
                                  " size=", batch.size());
    for (auto& face : batch) {
      Frame& f = *face.frame;
      // Per-face wait from broker delivery to batch dispatch (batch
      // formation + engine wait), then the shared batch execution — both
      // parented under the delivery span so the cross-broker chain holds.
      if (t0 > face.delivered) {
        p.span(face.ctx, f.id, "queue", face.delivered, t0, {{"blame", id_blame}});
      }
      p.span(face.ctx, f.id, "inference", t0, p.sim.now(),
             {{"model", "identification"},
              {"face", static_cast<std::uint64_t>(face.face_index)}});
      if (--f.remaining == 0) p.finalize(f, span);
    }
  }
}

}  // namespace

FacePipelineResult run_face_pipeline(const FacePipelineSpec& spec) {
  sim::Simulator sim;
  Pipeline p{sim, spec};

  sim.spawn(detection_loop(p));
  if (spec.broker != BrokerKind::kFused) {
    sim.spawn(consume_pump(p));
    sim.spawn(identification_loop(p));
  }
  for (int i = 0; i < spec.concurrency; ++i) sim.spawn(frame_client(p));

  sim.run_until(spec.warmup);
  p.measuring = true;
  const Time window_start = sim.now();
  sim.run_until(spec.warmup + spec.measure);
  const double window = sim::to_seconds(sim.now() - window_start);

  FacePipelineResult r;
  r.frames = p.frames_done;
  r.frames_per_s = window > 0 ? static_cast<double>(p.frames_done) / window : 0.0;
  r.faces_per_s = window > 0 ? static_cast<double>(p.faces_done) / window : 0.0;
  r.mean_latency_s = p.latency.mean();
  r.p99_latency_s = p.latency.p99();
  r.breakdown = p.breakdown;

  // Drain and stop.
  p.stopping = true;
  sim.run();
  p.frames_in.close();
  sim.run();
  return r;
}

}  // namespace serve::core
