#include "core/face_pipeline.h"

#include <vector>

#include "broker/broker.h"
#include "hw/devices.h"
#include "models/model_zoo.h"
#include "serving/batcher.h"
#include "sim/rng.h"

namespace serve::core {

namespace {

using cascade::JobPtr;
using metrics::Stage;
using sim::seconds;
using sim::Time;

constexpr int kIdMaxBatch = 64;  ///< Fig. 11's id batch limit (not facenet().max_batch)

struct FaceMsg {
  JobPtr frame;
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
        runner(sim_, spec_, "frame", "faces"),
        id_batcher(sim_, {.dynamic = true, .max_batch = kIdMaxBatch}),
        rng(spec_.seed),
        detection(models::faster_rcnn()),
        identification(models::facenet()) {
    broker.set_tracer(spec_.tracer);
  }

  sim::Simulator& sim;
  const FacePipelineSpec& spec;
  hw::Platform platform;
  broker::SimBroker<FaceMsg> broker;
  cascade::Runner runner;
  serving::Batcher<FaceMsg> id_batcher;
  sim::Rng rng;
  const models::ModelDesc& detection;
  const models::ModelDesc& identification;

  [[nodiscard]] int sample_faces() {
    if (!spec.stochastic_faces) return spec.faces_per_frame;
    const auto n = rng.poisson(static_cast<double>(spec.faces_per_frame));
    return n == 0 ? 1 : static_cast<int>(n);  // a frame enters only if faces exist
  }
};

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
    auto got = co_await p.runner.jobs_in.get();
    if (!got) break;
    JobPtr frame = std::move(*got);
    p.runner.begin_trace(*frame, "detection-pickup");

    // Frame preprocessing through a GPU pipeline instance.
    {
      auto pipe = co_await p.runner.acquire(*frame, gpu.preproc(), "preproc-pipeline");
      co_await p.runner.work(
          *frame, Stage::kPreprocess,
          gpu.preproc_batch_fixed_seconds() + gpu.preproc_image_seconds(hw::kMediumImage));
    }

    // Detection (batch 1: frames flow through the detector one at a time).
    {
      auto engine = co_await p.runner.acquire(*frame, gpu.compute(), "engine-wait");
      co_await p.runner.work(*frame, Stage::kInference,
                             gpu.inference_batch_seconds(p.detection.flops(), 1, 1.0, false),
                             {"model", "detection"});
    }

    if (p.spec.broker == BrokerKind::kFused) {
      // Fused system: identify each face in-process, one invocation per
      // detected face (no cross-frame batching possible).
      Time id_total = 0;
      for (int i = 0; i < frame->units; ++i) {
        auto engine = co_await gpu.compute().acquire();
        const double idt = gpu.inference_batch_seconds(p.identification.flops(), 1, 1.0, false);
        const Time t0 = p.sim.now();
        co_await p.sim.wait(seconds(idt));
        id_total += p.sim.now() - t0;
        p.runner.span(frame->ctx, frame->id, "inference", t0, p.sim.now(),
                      {{"model", "identification"}, {"face", static_cast<std::uint64_t>(i)}});
      }
      p.runner.finish(*frame, id_total);
      continue;
    }

    // Brokered system: producer/consumer synchronization bubble on the GPU
    // pipeline, then one message per face.
    {
      const Time s0 = p.sim.now();
      const Time sync = seconds(p.spec.calib.broker.pipeline_sync_s);
      auto engine = co_await gpu.compute().acquire();
      co_await p.sim.wait(sync);
      frame->stages[Stage::kQueue] += sim::to_seconds(sync);
      if (p.sim.now() > s0) {
        p.runner.span(frame->ctx, frame->id, "queue", s0, p.sim.now(),
                      {{"blame", "pipeline-sync"}});
      }
    }
    frame->handed_off = p.sim.now();
    for (int i = 0; i < frame->units; ++i) p.sim.spawn(publish_face(p, FaceMsg{frame, i}));
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
    d->payload.frame->delivered = p.sim.now();
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
      auto& f = *face.frame;
      // Per-face wait from broker delivery to batch dispatch (batch
      // formation + engine wait), then the shared batch execution — both
      // parented under the delivery span so the cross-broker chain holds.
      if (t0 > face.delivered) {
        p.runner.span(face.ctx, f.id, "queue", face.delivered, t0, {{"blame", id_blame}});
      }
      p.runner.span(face.ctx, f.id, "inference", t0, p.sim.now(),
                    {{"model", "identification"},
                     {"face", static_cast<std::uint64_t>(face.face_index)}});
      if (--f.remaining == 0) p.runner.finish(f, span);
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
  const cascade::Totals t = p.runner.run([&p] { return p.sample_faces(); });
  return {.frames_per_s = t.jobs_per_s,
          .faces_per_s = t.units_per_s,
          .mean_latency_s = t.mean_latency_s,
          .p99_latency_s = t.p99_latency_s,
          .frames = t.jobs,
          .breakdown = t.breakdown};
}

}  // namespace serve::core
