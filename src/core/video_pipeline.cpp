#include "core/video_pipeline.h"

#include <memory>
#include <string>
#include <vector>

#include "hw/devices.h"
#include "metrics/histogram.h"
#include "serving/batcher.h"
#include "sim/channel.h"
#include "sim/simulator.h"
#include "sim/sync.h"

namespace serve::core {

namespace {

using metrics::Stage;
using sim::seconds;
using sim::Time;

struct Clip {
  Clip(sim::Simulator& sim, std::uint64_t id_, int frames)
      : id(id_), remaining(frames), arrival(sim.now()), done(sim) {}
  std::uint64_t id;
  int remaining;
  Time arrival;
  metrics::StageTimes stages{};
  trace::SpanContext ctx{};  ///< causal root (zero when untraced/unsampled)
  sim::Event done;
};

using ClipPtr = std::shared_ptr<Clip>;

struct FrameJob {
  ClipPtr clip;
  int index = 0;
};

struct Pipeline {
  Pipeline(sim::Simulator& sim_, const VideoPipelineSpec& spec_)
      : sim(sim_),
        spec(spec_),
        platform(sim_, {.calib = spec_.calib, .gpu_count = 1}),
        clips_in(sim_, std::numeric_limits<std::size_t>::max(), "clips"),
        frame_batcher(sim_, {.dynamic = true, .max_batch = spec_.model.max_batch}),
        sampler(spec_.trace_sampler) {}

  sim::Simulator& sim;
  const VideoPipelineSpec& spec;
  hw::Platform platform;
  sim::Channel<ClipPtr> clips_in;
  serving::Batcher<FrameJob> frame_batcher;
  trace::TraceSampler sampler;

  bool measuring = false;
  std::uint64_t clips_done = 0;
  std::uint64_t frames_done = 0;
  metrics::Histogram latency;
  metrics::Breakdown breakdown;
  std::uint64_t next_clip_id = 1;
  bool stopping = false;

  /// Pixels that must pass through the decoder to extract the samples.
  [[nodiscard]] double decode_pixels() const {
    const auto per_frame = static_cast<double>(spec.clip.frame_pixels());
    if (spec.sampling == SamplingMode::kDecodeAll) {
      return per_frame * static_cast<double>(spec.clip.total_frames());
    }
    // Keyframe seek: the decoder reconstructs roughly two frames (keyframe +
    // target) per sample.
    return per_frame * 2.0 * spec.clip.sampled_frames;
  }

  /// Records a span under the clip's context (no-op without a tracer; the
  /// tracer itself skips unsampled contexts).
  void span(const Clip& clip, std::string_view name, Time begin, Time end,
            sim::TraceArgs args = {}) {
    if (spec.tracer != nullptr && clip.ctx.valid()) {
      spec.tracer->child_span(clip.ctx, sim::TraceName("clip.", clip.id), name, begin, end, args);
    }
  }

  void finalize(Clip& clip, Time batch_span) {
    clip.stages[Stage::kInference] += sim::to_seconds(batch_span);
    const Time lat = sim.now() - clip.arrival;
    const double other = sim::to_seconds(lat) - clip.stages.total();
    if (other > 0.0) clip.stages[Stage::kQueue] += other;
    if (measuring) {
      ++clips_done;
      frames_done += static_cast<std::uint64_t>(spec.clip.sampled_frames);
      latency.add(sim::to_seconds(lat));
      breakdown.add(clip.stages);
    }
    if (spec.tracer != nullptr && clip.ctx.sampled) {
      sim::TraceArg args[2];
      std::size_t n = 0;
      if (!spec.trace_label.empty()) args[n++] = {"run", spec.trace_label};
      args[n++] = {"clip_id", clip.id};
      spec.tracer->record(clip.ctx, sim::TraceName("clip.", clip.id), "clip", clip.arrival,
                          sim.now(), {args, n});
    }
    clip.done.set();
  }
};

sim::Process clip_client(Pipeline& p) {
  while (!p.stopping) {
    auto clip =
        std::make_shared<Clip>(p.sim, p.next_clip_id++, p.spec.clip.sampled_frames);
    p.clips_in.try_put(clip);
    co_await clip->done.wait();
  }
}

/// Stage 1: ingest + video decode, then emit one FrameJob per sampled frame.
sim::Process decode_loop(Pipeline& p) {
  auto& cpu = p.platform.cpu();
  auto& gpu = p.platform.gpu(0);
  const auto& calib = p.spec.calib;
  while (true) {
    auto got = co_await p.clips_in.get();
    if (!got) break;
    ClipPtr clip = std::move(*got);
    // Originate the clip's causal trace; the sampling fate derives from the
    // clip id alone, so same-seed runs trace the same clips.
    if (p.spec.tracer != nullptr) {
      clip->ctx = p.spec.tracer->begin_trace(p.sampler.sample(clip->id));
      // Closed-loop clips queue between arrival and decode pickup; cover it
      // so the wait does not surface as unattributed root self time.
      if (p.sim.now() > clip->arrival) {
        p.span(*clip, "queue", clip->arrival, p.sim.now(), {{"blame", "decode-pickup"}});
      }
    }

    // Ingest the compressed clip on a host core.
    {
      const Time t0 = p.sim.now();
      auto core = co_await cpu.cores().acquire();
      clip->stages[Stage::kQueue] += sim::to_seconds(p.sim.now() - t0);
      if (p.sim.now() > t0) p.span(*clip, "queue", t0, p.sim.now(), {{"blame", "host-core"}});
      const Time i0 = p.sim.now();
      co_await p.sim.wait(seconds(cpu.ingest_seconds()));
      clip->stages[Stage::kIngest] += cpu.ingest_seconds();
      p.span(*clip, "ingest", i0, p.sim.now());
    }

    const double pixels = p.decode_pixels();
    if (p.spec.decode == VideoDecodeDevice::kCpu) {
      const Time t0 = p.sim.now();
      auto worker = co_await cpu.preproc_workers().acquire();
      clip->stages[Stage::kQueue] += sim::to_seconds(p.sim.now() - t0);
      if (p.sim.now() > t0) {
        p.span(*clip, "queue", t0, p.sim.now(), {{"blame", "decode-worker"}});
      }
      const double d = pixels / calib.cpu.video_decode_pix_per_s;
      const Time d0 = p.sim.now();
      co_await p.sim.wait(seconds(d));
      clip->stages[Stage::kPreprocess] += d;
      p.span(*clip, "preprocess", d0, p.sim.now(), {{"op", "cpu-decode"}});
    } else {
      // Ship the compressed stream over PCIe, then decode on NVDEC.
      {
        const std::int64_t bytes = p.spec.clip.compressed_bytes();
        const Time t0 = p.sim.now();
        {
          auto host = co_await p.platform.host_link().acquire();
          co_await p.sim.wait(seconds(p.platform.host_link_seconds(bytes)));
        }
        {
          auto copy = co_await gpu.copy_h2d().acquire();
          co_await p.sim.wait(seconds(gpu.link_seconds(bytes)));
        }
        clip->stages[Stage::kTransfer] += sim::to_seconds(p.sim.now() - t0);
        p.span(*clip, "transfer", t0, p.sim.now());
      }
      const Time t0 = p.sim.now();
      auto dec = co_await gpu.nvdec().acquire();
      clip->stages[Stage::kQueue] += sim::to_seconds(p.sim.now() - t0);
      if (p.sim.now() > t0) p.span(*clip, "queue", t0, p.sim.now(), {{"blame", "nvdec"}});
      const double d = calib.gpu.nvdec_clip_init_s + pixels / calib.gpu.nvdec_pix_per_s;
      const Time d0 = p.sim.now();
      co_await p.sim.wait(seconds(d));
      clip->stages[Stage::kPreprocess] += d;
      p.span(*clip, "preprocess", d0, p.sim.now(), {{"op", "nvdec-decode"}});
    }

    for (int i = 0; i < p.spec.clip.sampled_frames; ++i) {
      p.frame_batcher.input().try_put(FrameJob{clip, i});
    }
  }
  p.frame_batcher.input().close();
}

/// Stage 2: per-frame resize/normalize + batched classification.
sim::Process classify_loop(Pipeline& p) {
  auto& gpu = p.platform.gpu(0);
  const auto& calib = p.spec.calib;
  while (true) {
    std::vector<FrameJob> batch;
    {
      sim::Event ready{p.sim};
      p.sim.spawn(p.frame_batcher.collect_into(batch, ready));
      co_await ready.wait();
    }
    if (batch.empty()) break;
    const auto b = static_cast<int>(batch.size());
    // Frame preprocessing (resize to the network input + normalize) on the
    // GPU preprocessing pipelines; decoded frames are already on-device for
    // NVDEC, or cross PCIe for CPU decode — charge the batch either way.
    {
      auto pipe = co_await gpu.preproc().acquire();
      const double resize =
          static_cast<double>(p.spec.clip.frame_pixels()) / calib.gpu.gpu_resize_pix_per_s;
      const double pre = calib.gpu.dali_batch_fixed_s + b * resize;
      const Time p0 = p.sim.now();
      co_await p.sim.wait(seconds(pre));
      for (auto& f : batch) {
        f.clip->stages[Stage::kPreprocess] += pre;
        p.span(*f.clip, "preprocess", p0, p.sim.now(), {{"op", "frame-resize"}});
      }
    }
    const Time t0 = p.sim.now();
    auto engine = co_await gpu.compute().acquire();
    const double ct = gpu.inference_batch_seconds(p.spec.model.flops(), b, 1.0, true);
    const Time c0 = p.sim.now();
    co_await p.sim.wait(seconds(ct));
    engine.release();
    const Time span = p.sim.now() - t0;
    const sim::TraceName batch_blame("classify-batch-formation batch=",
                                     p.frame_batcher.batches_formed(), " size=", batch.size());
    for (auto& f : batch) {
      if (c0 > t0) p.span(*f.clip, "queue", t0, c0, {{"blame", batch_blame}});
      p.span(*f.clip, "inference", c0, p.sim.now(),
             {{"frame", static_cast<std::uint64_t>(f.index)}});
      if (--f.clip->remaining == 0) p.finalize(*f.clip, span);
    }
  }
}

}  // namespace

VideoPipelineResult run_video_pipeline(const VideoPipelineSpec& spec) {
  VideoPipelineSpec resolved = spec;
  if (resolved.model.name.empty()) resolved.model = models::vit_base();
  resolved.clip.validate();

  sim::Simulator sim;
  Pipeline p{sim, resolved};
  sim.spawn(decode_loop(p));
  sim.spawn(classify_loop(p));
  for (int i = 0; i < resolved.concurrency; ++i) sim.spawn(clip_client(p));

  sim.run_until(resolved.warmup);
  p.measuring = true;
  const Time window_start = sim.now();
  sim.run_until(resolved.warmup + resolved.measure);
  const double window = sim::to_seconds(sim.now() - window_start);

  VideoPipelineResult r;
  r.clips = p.clips_done;
  r.clips_per_s = window > 0 ? static_cast<double>(p.clips_done) / window : 0.0;
  r.frames_per_s = window > 0 ? static_cast<double>(p.frames_done) / window : 0.0;
  r.mean_latency_s = p.latency.mean();
  r.p99_latency_s = p.latency.p99();
  r.breakdown = p.breakdown;

  p.stopping = true;
  sim.run();
  p.clips_in.close();
  sim.run();
  return r;
}

}  // namespace serve::core
