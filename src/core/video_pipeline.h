// Video classification pipeline (the paper's Section 1 motivating service).
//
// Per clip: ingest -> video decode (CPU software pool or the GPU's NVDEC
// engine) -> sample frames -> per-frame resize/normalize -> dynamic-batched
// DNN classification. One clip fans out to `sampled_frames` inference
// calls, so this composes the paper's preprocessing findings (decode
// dominates) with its rate-mismatch findings (Section 4.7) in a second
// realistic multi-stage system.
#pragma once

#include <cstdint>
#include <string_view>

#include "core/cascade.h"
#include "metrics/breakdown.h"
#include "models/model_zoo.h"
#include "workload/video.h"

namespace serve::core {

enum class VideoDecodeDevice : std::uint8_t { kCpu, kNvdec };

[[nodiscard]] constexpr std::string_view video_decode_device_name(VideoDecodeDevice d) noexcept {
  return d == VideoDecodeDevice::kCpu ? "cpu-sw" : "nvdec";
}

/// How many frames must be decoded to extract the samples.
enum class SamplingMode : std::uint8_t {
  kDecodeAll,      ///< decode the whole clip, keep the sampled frames
  kKeyframeSeek,   ///< seek to keyframes: decode ~2 frames per sample
};

/// Traced clips' spans cover ingest, decode and batched classification.
struct VideoPipelineSpec : CascadeSpec {
  workload::VideoSpec clip = workload::kHdClip;
  models::ModelDesc model{};  ///< defaults to ViT-Base when name empty
  VideoDecodeDevice decode = VideoDecodeDevice::kNvdec;
  SamplingMode sampling = SamplingMode::kKeyframeSeek;
};

struct VideoPipelineResult {
  double clips_per_s = 0.0;
  double frames_per_s = 0.0;        ///< classified (sampled) frames
  double mean_latency_s = 0.0;      ///< clip arrival -> last frame classified
  double p99_latency_s = 0.0;
  std::uint64_t clips = 0;
  metrics::Breakdown breakdown{};   ///< per-clip stage decomposition

  [[nodiscard]] double decode_share() const noexcept {
    return breakdown.share(metrics::Stage::kPreprocess);
  }
  [[nodiscard]] double inference_share() const noexcept {
    return breakdown.share(metrics::Stage::kInference);
  }
};

[[nodiscard]] VideoPipelineResult run_video_pipeline(const VideoPipelineSpec& spec);

}  // namespace serve::core
