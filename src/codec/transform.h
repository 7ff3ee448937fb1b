// Post-decode transforms: resize and normalization — the remaining stages of
// the paper's preprocessing pipeline ("JPEG decoding followed by image
// resizing and normalization", Section 4).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "codec/image.h"

namespace serve::codec {

/// Bilinear resample of `src` to `dst_w x dst_h`, run as a separable
/// two-pass resample with precomputed per-axis coefficient tables (float
/// intermediate rows); results match `resize_reference` within ±1
/// intensity step.
[[nodiscard]] Image resize(const Image& src, int dst_w, int dst_h);

/// Streaming form of `resize`: takes source rows top to bottom and writes
/// each destination row as soon as both of its source rows have arrived,
/// holding two horizontally resampled rows. `resize` is this
/// resampler run over a whole image.
class RowResizer {
 public:
  RowResizer(int src_w, int src_h, int channels, int dst_w, int dst_h);

  /// Feeds the next source row: `src_w * channels` bytes at `row`, of which
  /// the kernels may read up to `avail` (>= the row's size). Drain every
  /// ready destination row before the next push.
  void push(const std::uint8_t* row, std::size_t avail) noexcept;

  /// True when the next destination row's source rows have arrived.
  [[nodiscard]] bool ready() const noexcept {
    return y_ < dst_h_ && yp_.i1[static_cast<std::size_t>(y_)] < pushed_;
  }
  /// Index of the next destination row.
  [[nodiscard]] int next_row() const noexcept { return y_; }
  /// Writes the next destination row (`dst_w * channels` bytes) and advances.
  void emit(std::uint8_t* out) noexcept;

 private:
  /// Per-axis bilinear plan: for each destination index, the two clamped
  /// source taps and the weight of the second.
  struct AxisPlan {
    std::vector<int> i0, i1;
    std::vector<float> w1;  ///< weight of tap i1; tap i0 gets (1 - w1)
  };
  static AxisPlan plan(int src, int dst);
  [[nodiscard]] const float* slot_of(int sy) const noexcept;

  int channels_, dst_w_, dst_h_;
  AxisPlan xp_, yp_;
  std::size_t mid_row_;       ///< floats per horizontally resampled row
  std::vector<float> window_;  ///< two resampled source rows
  int held_[2] = {-1, -1};    ///< source row in each window slot
  int pushed_ = 0;            ///< source rows fed so far
  int y_ = 0;                 ///< next destination row
};

/// Naive per-pixel double-precision bilinear resampler — the oracle the
/// equivalence tests compare the two-pass fast path against. Same
/// pixel-center mapping.
[[nodiscard]] Image resize_reference(const Image& src, int dst_w, int dst_h);

/// Standard ImageNet normalization constants.
inline constexpr std::array<float, 3> kImageNetMean{0.485f, 0.456f, 0.406f};
inline constexpr std::array<float, 3> kImageNetStd{0.229f, 0.224f, 0.225f};

/// Converts an RGB image to a CHW fp32 tensor: x = (v/255 - mean) / std.
/// Returns channels*height*width floats, channel-major (the layout vision
/// models consume).
/// Throws std::invalid_argument unless the input has 3 channels and every
/// stddev is > 0 (a NaN stddev is rejected too).
[[nodiscard]] std::vector<float> normalize_chw(const Image& img,
                                               const std::array<float, 3>& mean = kImageNetMean,
                                               const std::array<float, 3>& stddev = kImageNetStd);

/// The message `normalize_chw` rejects an image of `channels` channels and
/// this `stddev` with, or nullptr when it accepts them.
[[nodiscard]] const char* normalize_error(int channels,
                                          const std::array<float, 3>& stddev) noexcept;

/// Center-crop to a square of `side` (clamped to image bounds).
[[nodiscard]] Image center_crop(const Image& src, int side);

}  // namespace serve::codec
