#include "core/video_pipeline.h"

#include <vector>

#include "hw/devices.h"
#include "serving/batcher.h"

namespace serve::core {

namespace {

using cascade::JobPtr;
using metrics::Stage;
using sim::seconds;
using sim::Time;

struct FrameJob {
  JobPtr clip;
  int index = 0;
};

struct Pipeline {
  Pipeline(sim::Simulator& sim_, const VideoPipelineSpec& spec_)
      : sim(sim_),
        spec(spec_),
        platform(sim_, {.calib = spec_.calib, .gpu_count = 1}),
        runner(sim_, spec_, "clip"),
        frame_batcher(sim_, {.dynamic = true, .max_batch = spec_.model.max_batch}) {}

  sim::Simulator& sim;
  const VideoPipelineSpec& spec;
  hw::Platform platform;
  cascade::Runner runner;
  serving::Batcher<FrameJob> frame_batcher;

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
};

/// Stage 1: ingest + video decode, then emit one FrameJob per sampled frame.
sim::Process decode_loop(Pipeline& p) {
  auto& cpu = p.platform.cpu();
  auto& gpu = p.platform.gpu(0);
  const auto& calib = p.spec.calib;
  while (true) {
    auto got = co_await p.runner.jobs_in.get();
    if (!got) break;
    JobPtr clip = std::move(*got);
    p.runner.begin_trace(*clip, "decode-pickup");

    // Ingest the compressed clip on a host core.
    {
      auto core = co_await p.runner.acquire(*clip, cpu.cores(), "host-core");
      co_await p.runner.work(*clip, Stage::kIngest, cpu.ingest_seconds());
    }

    const double pixels = p.decode_pixels();
    if (p.spec.decode == VideoDecodeDevice::kCpu) {
      auto worker = co_await p.runner.acquire(*clip, cpu.preproc_workers(), "decode-worker");
      co_await p.runner.work(*clip, Stage::kPreprocess, pixels / calib.cpu.video_decode_pix_per_s,
                             {"op", "cpu-decode"});
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
        p.runner.span(clip->ctx, clip->id, "transfer", t0, p.sim.now());
      }
      auto dec = co_await p.runner.acquire(*clip, gpu.nvdec(), "nvdec");
      co_await p.runner.work(*clip, Stage::kPreprocess,
                             calib.gpu.nvdec_clip_init_s + pixels / calib.gpu.nvdec_pix_per_s,
                             {"op", "nvdec-decode"});
    }

    for (int i = 0; i < clip->units; ++i) p.frame_batcher.input().try_put(FrameJob{clip, i});
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
        p.runner.span(f.clip->ctx, f.clip->id, "preprocess", p0, p.sim.now(),
                      {{"op", "frame-resize"}});
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
      if (c0 > t0) {
        p.runner.span(f.clip->ctx, f.clip->id, "queue", t0, c0, {{"blame", batch_blame}});
      }
      p.runner.span(f.clip->ctx, f.clip->id, "inference", c0, p.sim.now(),
                    {{"frame", static_cast<std::uint64_t>(f.index)}});
      if (--f.clip->remaining == 0) p.runner.finish(*f.clip, span);
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
  const int frames = resolved.clip.sampled_frames;
  const cascade::Totals t = p.runner.run([frames] { return frames; });
  return {.clips_per_s = t.jobs_per_s,
          .frames_per_s = t.units_per_s,
          .mean_latency_s = t.mean_latency_s,
          .p99_latency_s = t.p99_latency_s,
          .clips = t.jobs,
          .breakdown = t.breakdown};
}

}  // namespace serve::core
