#include "codec/batch_preprocess.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <memory>
#include <optional>
#include <stdexcept>

#include "codec/jpeg_stages.h"
#include "codec/simd_kernels.h"

namespace serve::codec {

namespace {

/// MCU rows a pipelined image holds between stage A and the resize (their
/// coefficients and colour rows): its fixed extra state.
constexpr int kPipelineDepth = 4;

/// Wait step for a spin on another running thread's progress: a few
/// spin-loop hints, then yield, so an oversubscribed host still progresses.
class Backoff {
 public:
  void pause() noexcept {
    if (++spins_ <= 64) {
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#endif
    } else {
      std::this_thread::yield();
    }
  }
  void reset() noexcept { spins_ = 0; }

 private:
  int spins_ = 0;
};

/// One image's preprocessing, streamed one MCU row at a time and giving the
/// serial pipeline's tensor bytes. Stage A is entropy decoding; stage B is
/// the IDCT and colour conversion of each MCU row, then the crop, resize and
/// normalization of its image rows.
///
/// Alone, the lead thread alternates the stages per block. Pipelined, the lead
/// runs stage A up to kPipelineDepth MCU rows ahead of the rows' resize and
/// normalization, and any thread with nothing better to do takes the next
/// stage B step: the resize and normalization of the next row (one thread
/// at a time, holding `busy_`, since the resizer's state runs down the
/// image) or else the IDCT and colour conversion of the next decoded row
/// (independent per row). The lead does stage B work only when stage A
/// cannot go on (no free row slot, or no rows left), and never waits for a
/// helper to arrive, so it finishes the image alone if none does.
class ImageJob {
 public:
  /// The tensor goes to `out`.
  ImageJob(std::span<const std::uint8_t> jpeg, const BatchPreprocessOptions& opts,
           std::vector<float>& out, bool pipelined)
      : jpeg_(jpeg), opts_(opts), out_(out), pipelined_(pipelined) {}

  /// Preprocesses the image; rethrows what the serial pipeline would throw.
  void lead();
  /// Runs stage B steps as they become ready, until the lead returns.
  void help() noexcept;

 private:
  /// One MCU row in flight: its coefficients, then its colour rows.
  struct Slot {
    jpeg::CoeffRow coeffs;
    std::vector<std::uint8_t> rgb;
    std::atomic<int> coloured{0};  ///< 1 + the row whose `rgb` is complete
  };

  void set_up();
  void run_alone();
  void run_pipelined();
  /// One stage B step by the lead (`role` 0) or the helper (1); false if
  /// none was ready.
  bool step(int role) noexcept;
  bool try_resize() noexcept;
  bool try_colour(int role) noexcept;
  /// Crops, resizes and normalizes the image rows of MCU row `my`.
  void resize_rows(int my, const std::vector<std::uint8_t>& rgb) noexcept;

  std::span<const std::uint8_t> jpeg_;
  const BatchPreprocessOptions& opts_;
  std::vector<float>& out_;
  const bool pipelined_;

  std::optional<jpeg::EntropyStage> entropy_;  ///< stage A
  std::optional<jpeg::PixelStage> pixels_[2];  ///< the lead's and the helper's
  std::optional<RowResizer> resizer_;
  std::unique_ptr<Slot[]> slots_;      ///< pipelined: MCU row r is in slot r % depth
  std::vector<std::uint8_t> resized_;  ///< one destination row
  std::size_t stride_ = 0;             ///< bytes per RGB row
  int crop_x0_ = 0, crop_y0_ = 0, crop_w_ = 0, crop_h_ = 0;
  float inv_std_[3] = {};

  alignas(64) std::atomic<int> decoded_{0};  ///< MCU rows stage A has written
  alignas(64) std::atomic<int> next_colour_{0};  ///< next MCU row to colour-convert
  alignas(64) std::atomic<int> resized_rows_{0};  ///< MCU rows resized and normalized
  std::atomic<bool> busy_{false};                 ///< held while a thread resizes a row
  std::atomic<bool> finished_{false};             ///< the lead has returned
};

void ImageJob::lead() {
  struct Finish {
    std::atomic<bool>& flag;
    ~Finish() { flag.store(true, std::memory_order_release); }
  } finish{finished_};
  entropy_.emplace(jpeg_, true);
  if (const char* error = normalize_error(entropy_->components(), opts_.stddev)) {
    // normalize_chw rejects this input, but only after the whole stream has
    // decoded: entropy-decode the rest so a corrupt stream fails first, at
    // the same byte, as it does serially.
    jpeg::CoeffRow row = entropy_->make_row();
    for (int my = 0; my < entropy_->layout().mcus_y; ++my) entropy_->decode_row(row);
    throw std::invalid_argument(error);
  }
  set_up();
  if (pipelined_) {
    run_pipelined();
  } else {
    run_alone();
  }
}

void ImageJob::help() noexcept {
  Backoff wait;
  while (!finished_.load(std::memory_order_acquire)) {
    if (step(1)) {
      wait.reset();
    } else {
      wait.pause();
    }
  }
}

void ImageJob::set_up() {
  const jpeg::FrameLayout& f = entropy_->layout();
  stride_ = static_cast<std::size_t>(f.width) * 3;
  // The region center_crop would cut out, or the whole image.
  crop_w_ = f.width;
  crop_h_ = f.height;
  if (opts_.center_crop_side > 0) {
    crop_w_ = crop_h_ = std::min({opts_.center_crop_side, f.width, f.height});
    crop_x0_ = (f.width - crop_w_) / 2;
    crop_y0_ = (f.height - crop_h_) / 2;
  }
  const int side = opts_.target_side;
  resizer_.emplace(crop_w_, crop_h_, 3, side, side);
  resized_.resize(static_cast<std::size_t>(side) * 3);
  out_.resize(static_cast<std::size_t>(side) * static_cast<std::size_t>(side) * 3);
  for (std::size_t c = 0; c < 3; ++c) inv_std_[c] = 1.0f / opts_.stddev[c];
  pixels_[0].emplace(f, true);
  if (!pipelined_) return;
  pixels_[1].emplace(f, true);
  slots_ = std::make_unique<Slot[]>(kPipelineDepth);
}

void ImageJob::run_alone() {
  const jpeg::FrameLayout& f = entropy_->layout();
  std::vector<std::uint8_t> rgb(static_cast<std::size_t>(f.mcu_h) * stride_);
  for (int my = 0; my < f.mcus_y; ++my) {
    entropy_->decode_row(*pixels_[0]);
    pixels_[0]->colour_row(my, rgb.data(), stride_);
    resize_rows(my, rgb);
  }
}

void ImageJob::run_pipelined() {
  const jpeg::FrameLayout& f = entropy_->layout();
  Backoff wait;
  for (int r = 0; r < f.mcus_y; ++r) {
    // Slot r % depth is free once row r - depth has been resized.
    while (r - resized_rows_.load(std::memory_order_acquire) >= kPipelineDepth) {
      if (!step(0)) wait.pause();
    }
    Slot& slot = slots_[static_cast<std::size_t>(r % kPipelineDepth)];
    if (r < kPipelineDepth) {
      // First use: allocating here keeps the later slots off the path to
      // the first decoded row, which stage B waits for.
      slot.coeffs = entropy_->make_row();
      slot.rgb.resize(static_cast<std::size_t>(f.mcu_h) * stride_);
    }
    entropy_->decode_row(slot.coeffs);
    decoded_.store(r + 1, std::memory_order_release);
  }
  while (resized_rows_.load(std::memory_order_acquire) < f.mcus_y) {
    if (!step(0)) wait.pause();
  }
}

bool ImageJob::step(int role) noexcept {
  // The resize is the one step no second thread can share: keep it moving.
  return try_resize() || try_colour(role);
}

bool ImageJob::try_resize() noexcept {
  if (busy_.exchange(true, std::memory_order_acquire)) return false;
  const int r = resized_rows_.load(std::memory_order_relaxed);
  // The slots exist once a row has been decoded.
  const Slot* slot = r < decoded_.load(std::memory_order_acquire)
                         ? &slots_[static_cast<std::size_t>(r % kPipelineDepth)]
                         : nullptr;
  const bool ready = slot != nullptr && slot->coloured.load(std::memory_order_acquire) == r + 1;
  if (ready) {
    resize_rows(r, slot->rgb);
    resized_rows_.store(r + 1, std::memory_order_release);
  }
  busy_.store(false, std::memory_order_release);
  return ready;
}

bool ImageJob::try_colour(int role) noexcept {
  int r = next_colour_.load(std::memory_order_relaxed);
  if (r >= decoded_.load(std::memory_order_acquire) ||
      !next_colour_.compare_exchange_strong(r, r + 1, std::memory_order_relaxed)) {
    return false;
  }
  jpeg::PixelStage& pixels = *pixels_[role];
  Slot& slot = slots_[static_cast<std::size_t>(r % kPipelineDepth)];
  pixels.idct_row(slot.coeffs);
  pixels.colour_row(r, slot.rgb.data(), stride_);
  slot.coloured.store(r + 1, std::memory_order_release);
  return true;
}

void ImageJob::resize_rows(int my, const std::vector<std::uint8_t>& rgb) noexcept {
  const jpeg::FrameLayout& f = entropy_->layout();
  const auto& K = simd::kernels();
  const auto side = static_cast<std::size_t>(opts_.target_side);
  const std::size_t plane = side * side;
  const int y0 = my * f.mcu_h;
  for (int k = 0; k < f.rows_in(my); ++k) {
    if (y0 + k < crop_y0_ || y0 + k >= crop_y0_ + crop_h_) continue;
    const std::size_t off = static_cast<std::size_t>(k) * stride_ +
                            static_cast<std::size_t>(crop_x0_) * 3;
    resizer_->push(rgb.data() + off, rgb.size() - off);
    while (resizer_->ready()) {
      float* r = out_.data() + static_cast<std::size_t>(resizer_->next_row()) * side;
      resizer_->emit(resized_.data());
      K.normalize_rgb_row(resized_.data(), r, r + plane, r + 2 * plane, side, opts_.mean.data(),
                          inv_std_);
    }
  }
}

}  // namespace

BatchPreprocessor::BatchPreprocessor(int threads, metrics::Registry* registry)
    : threads_(threads) {
  if (threads < 1) throw std::invalid_argument("BatchPreprocessor: threads must be >= 1");
  if (registry != nullptr) {
    batches_m_ = registry->counter("codec_batches_total");
    images_m_ = registry->counter("codec_images_total");
  }
  workers_.reserve(static_cast<std::size_t>(threads - 1));
  for (int i = 0; i < threads - 1; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

BatchPreprocessor::~BatchPreprocessor() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    shutdown_ = true;
  }
  job_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void BatchPreprocessor::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    std::unique_lock<std::mutex> lk(mu_);
    job_cv_.wait(lk, [&] { return shutdown_ || generation_ != seen; });
    if (shutdown_) return;
    seen = generation_;
    while (job_next_ < job_n_) {
      const std::size_t i = job_next_++;
      ++job_active_;
      // On a failed batch, drain remaining indexes without running them so
      // the caller can return as soon as in-flight work finishes.
      const bool skip = job_error_ != nullptr;
      lk.unlock();
      std::exception_ptr err;
      try {
        if (!skip) (*job_fn_)(i);
      } catch (...) {
        err = std::current_exception();
      }
      lk.lock();
      if (err && !job_error_) job_error_ = err;
      if (--job_active_ == 0 && job_next_ >= job_n_) done_cv_.notify_all();
    }
  }
}

void BatchPreprocessor::parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (workers_.empty()) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::unique_lock<std::mutex> lk(mu_);
  job_fn_ = &fn;
  job_n_ = n;
  job_next_ = 0;
  job_active_ = 0;
  job_error_ = nullptr;
  ++generation_;
  job_cv_.notify_all();
  // The caller pulls indexes too, so a pool of K threads gives K-way
  // parallelism (and never deadlocks waiting on a blocked worker).
  while (job_next_ < job_n_) {
    const std::size_t i = job_next_++;
    ++job_active_;
    const bool skip = job_error_ != nullptr;
    lk.unlock();
    std::exception_ptr err;
    try {
      if (!skip) fn(i);
    } catch (...) {
      err = std::current_exception();
    }
    lk.lock();
    if (err && !job_error_) job_error_ = err;
    --job_active_;
  }
  done_cv_.wait(lk, [&] { return job_active_ == 0; });
  job_fn_ = nullptr;
  const std::exception_ptr err = job_error_;
  job_error_ = nullptr;
  if (err) std::rethrow_exception(err);
}

std::vector<std::vector<float>> BatchPreprocessor::run(
    const std::vector<std::span<const std::uint8_t>>& jpegs,
    const BatchPreprocessOptions& opts) {
  if (opts.target_side <= 0) throw std::invalid_argument("BatchPreprocessor: bad target_side");
  const std::size_t n = jpegs.size();
  std::vector<std::vector<float>> out(n);
  if (n >= static_cast<std::size_t>(threads_)) {
    // Every thread has images of its own: each runs its images' stages
    // alternately, block by block.
    parallel_for(n, [&](std::size_t i) { ImageJob{jpegs[i], opts, out[i], false}.lead(); });
  } else {
    // Spare threads: index i leads image i (stage A) and index n + i helps
    // it (stage B). parallel_for hands out indexes in order and skips every
    // index claimed after a failure, so a helper runs only when its lead
    // does, and returns when the lead does.
    std::deque<ImageJob> jobs;
    for (std::size_t i = 0; i < n; ++i) jobs.emplace_back(jpegs[i], opts, out[i], true);
    parallel_for(2 * n, [&](std::size_t i) {
      if (i < n) {
        jobs[i].lead();
      } else {
        jobs[i - n].help();
      }
    });
  }
  batches_m_.inc();
  images_m_.inc(static_cast<double>(n));
  return out;
}

std::vector<std::vector<float>> BatchPreprocessor::run(
    const std::vector<std::vector<std::uint8_t>>& jpegs, const BatchPreprocessOptions& opts) {
  std::vector<std::span<const std::uint8_t>> views;
  views.reserve(jpegs.size());
  for (const auto& j : jpegs) views.emplace_back(j.data(), j.size());
  return run(views, opts);
}

}  // namespace serve::codec
