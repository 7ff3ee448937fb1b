// Per-stage latency breakdown aggregation.
//
// Every request carries a set of stage durations (queue, preprocess,
// transfer, inference, broker, ...). A Breakdown aggregates those across
// requests and reports absolute means and relative shares — the quantity the
// paper plots in Figs. 4, 6, and 11.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "metrics/stat_accumulator.h"

namespace serve::metrics {

/// Lifecycle stages of a serving request. Kept as a fixed enum so breakdowns
/// are POD-cheap; not every pipeline populates every stage.
enum class Stage : std::uint8_t {
  kIngest = 0,      ///< request deserialization / HTTP handling on host CPU
  kQueue,           ///< waiting in scheduler / dynamic-batcher queues
  kPreprocess,      ///< JPEG decode + resize + normalize
  kTransfer,        ///< PCIe host<->device movement
  kInference,       ///< DNN execution on the accelerator
  kBroker,          ///< message-broker publish + consume (multi-DNN pipelines)
  kPostprocess,     ///< response assembly / serialization
  kCount
};

inline constexpr std::size_t kStageCount = static_cast<std::size_t>(Stage::kCount);

[[nodiscard]] constexpr std::string_view stage_name(Stage s) noexcept {
  switch (s) {
    case Stage::kIngest: return "ingest";
    case Stage::kQueue: return "queue";
    case Stage::kPreprocess: return "preprocess";
    case Stage::kTransfer: return "transfer";
    case Stage::kInference: return "inference";
    case Stage::kBroker: return "broker";
    case Stage::kPostprocess: return "postprocess";
    case Stage::kCount: break;
  }
  return "?";
}

/// Per-request stage durations in seconds. Value type, trivially copyable.
struct StageTimes {
  std::array<double, kStageCount> seconds{};

  double& operator[](Stage s) noexcept { return seconds[static_cast<std::size_t>(s)]; }
  double operator[](Stage s) const noexcept { return seconds[static_cast<std::size_t>(s)]; }

  [[nodiscard]] double total() const noexcept {
    double t = 0.0;
    for (double v : seconds) t += v;
    return t;
  }
};

/// Aggregates StageTimes across many requests.
class Breakdown {
 public:
  void add(const StageTimes& t) noexcept {
    for (std::size_t i = 0; i < kStageCount; ++i) per_stage_[i].add(t.seconds[i]);
    total_.add(t.total());
  }

  void merge(const Breakdown& other) noexcept {
    for (std::size_t i = 0; i < kStageCount; ++i) per_stage_[i].merge(other.per_stage_[i]);
    total_.merge(other.total_);
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return total_.count(); }
  [[nodiscard]] double mean_total() const noexcept { return total_.mean(); }
  [[nodiscard]] double mean(Stage s) const noexcept {
    return per_stage_[static_cast<std::size_t>(s)].mean();
  }

  /// Fraction of mean end-to-end time spent in stage `s` (0 if no samples).
  [[nodiscard]] double share(Stage s) const noexcept {
    const double t = mean_total();
    return t > 0.0 ? mean(s) / t : 0.0;
  }

  void reset() noexcept {
    for (auto& a : per_stage_) a.reset();
    total_.reset();
  }

 private:
  std::array<StatAccumulator, kStageCount> per_stage_{};
  StatAccumulator total_{};
};

}  // namespace serve::metrics
