// Multi-DNN face identification pipeline (paper Section 4.7, Figs. 10-11).
//
// Stage 1 detects faces per video frame (Faster R-CNN); stage 2 identifies
// each detected face (FaceNet). One frame fans out to `faces_per_frame`
// stage-2 invocations, so the stages run at different rates and are either
// decoupled by a message broker (Kafka / Redis) or fused into one process.
#pragma once

#include <cstdint>
#include <string_view>

#include "core/cascade.h"
#include "metrics/breakdown.h"

namespace serve::core {

enum class BrokerKind : std::uint8_t { kKafka, kRedis, kFused };

[[nodiscard]] constexpr std::string_view broker_kind_name(BrokerKind k) noexcept {
  switch (k) {
    case BrokerKind::kKafka: return "kafka";
    case BrokerKind::kRedis: return "redis";
    case BrokerKind::kFused: return "fused";
  }
  return "?";
}

/// Traced frames' spans cover detection, the broker publish + delivery hop
/// (SimBroker links parents across it) and batched identification.
struct FacePipelineSpec : CascadeSpec {
  BrokerKind broker = BrokerKind::kRedis;
  int faces_per_frame = 5;
  bool stochastic_faces = false;  ///< Poisson(faces_per_frame) when true
  std::uint64_t seed = 7;
};

struct FacePipelineResult {
  double frames_per_s = 0.0;
  double faces_per_s = 0.0;
  double mean_latency_s = 0.0;  ///< frame arrival -> last face identified
  double p99_latency_s = 0.0;
  std::uint64_t frames = 0;
  metrics::Breakdown breakdown{};  ///< per-frame stage decomposition

  /// Fraction of frame latency spent in the message broker (the paper's
  /// "Kafka taking 71% and Redis 6% of the total latency").
  [[nodiscard]] double broker_share() const noexcept {
    return breakdown.share(metrics::Stage::kBroker);
  }
};

/// Runs the two-DNN pipeline in virtual time and reports Fig. 11 metrics.
[[nodiscard]] FacePipelineResult run_face_pipeline(const FacePipelineSpec& spec);

}  // namespace serve::core
