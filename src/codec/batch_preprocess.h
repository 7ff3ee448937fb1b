// Multi-threaded batch preprocessing: decode -> crop/resize -> normalize
// over N images on K worker threads — the CPU-side analogue of the paper's
// DALI pipeline, used to measure how preprocessing throughput scales with
// cores (the lever behind the paper's Fig. 6/7 preprocessing dominance).
#pragma once

#include <array>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "codec/transform.h"
#include "metrics/registry.h"

namespace serve::codec {

struct BatchPreprocessOptions {
  int target_side = 224;           ///< resize target (side x side)
  int center_crop_side = 0;        ///< optional square crop before resize (0 = off)
  std::array<float, 3> mean = kImageNetMean;
  std::array<float, 3> stddev = kImageNetStd;
};

/// Persistent worker pool running the full preprocessing pipeline over
/// batches of JPEG byte streams. The calling thread participates in the
/// work, so `threads == 1` runs inline with zero synchronization.
class BatchPreprocessor {
 public:
  /// `threads` is the total parallelism including the calling thread. An
  /// optional registry counts processed batches/images with relaxed-atomic
  /// counters (this is a real thread pool, not simulated work); it must
  /// outlive the preprocessor.
  explicit BatchPreprocessor(int threads, metrics::Registry* registry = nullptr);
  ~BatchPreprocessor();
  BatchPreprocessor(const BatchPreprocessor&) = delete;
  BatchPreprocessor& operator=(const BatchPreprocessor&) = delete;

  [[nodiscard]] int threads() const noexcept { return threads_; }

  /// Runs `fn(i)` for every i in [0, n) across the pool (arbitrary order,
  /// each index exactly once). Rethrows the first worker exception after the
  /// whole batch has drained.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// decode -> (optional crop) -> resize -> normalize for each input JPEG;
  /// results come back in input order as CHW fp32 tensors, byte-identical
  /// to the serial calls (and failing with the exception they throw).
  /// Each image streams through the stages one MCU row at a time, never
  /// holding its decoded or resized image. With at least as many images as
  /// threads, each thread runs whole images; a smaller batch (every
  /// zero-load request) gives each image a second thread, which runs its
  /// IDCT, colour conversion, resize and normalization while the first
  /// entropy-decodes ahead.
  [[nodiscard]] std::vector<std::vector<float>> run(
      const std::vector<std::span<const std::uint8_t>>& jpegs,
      const BatchPreprocessOptions& opts = {});
  [[nodiscard]] std::vector<std::vector<float>> run(
      const std::vector<std::vector<std::uint8_t>>& jpegs,
      const BatchPreprocessOptions& opts = {});

 private:
  void worker_loop();

  const int threads_;
  std::vector<std::thread> workers_;
  metrics::Counter batches_m_;  ///< no-op handles without a registry
  metrics::Counter images_m_;

  std::mutex mu_;
  std::condition_variable job_cv_;   ///< wakes workers for a new batch
  std::condition_variable done_cv_;  ///< wakes the caller when a batch drains
  std::uint64_t generation_ = 0;     ///< bumped per batch
  bool shutdown_ = false;
  const std::function<void(std::size_t)>* job_fn_ = nullptr;
  std::size_t job_n_ = 0;
  std::size_t job_next_ = 0;       ///< next unclaimed index
  std::size_t job_active_ = 0;     ///< indexes claimed but not finished
  std::exception_ptr job_error_;
};

}  // namespace serve::codec
