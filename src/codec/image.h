// Raster image container for the preprocessing substrate.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

namespace serve::codec {

/// 8-bit raster image, interleaved rows (RGB or grayscale).
class Image {
 public:
  Image() = default;
  Image(int width, int height, int channels)
      : width_(width), height_(height), channels_(channels) {
    if (width <= 0 || height <= 0) throw std::invalid_argument("Image: non-positive size");
    if (channels != 1 && channels != 3) throw std::invalid_argument("Image: channels must be 1 or 3");
    data_.assign(static_cast<std::size_t>(width) * static_cast<std::size_t>(height) *
                     static_cast<std::size_t>(channels),
                 0);
  }

  [[nodiscard]] int width() const noexcept { return width_; }
  [[nodiscard]] int height() const noexcept { return height_; }
  [[nodiscard]] int channels() const noexcept { return channels_; }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }
  [[nodiscard]] std::int64_t pixels() const noexcept {
    return static_cast<std::int64_t>(width_) * height_;
  }

  [[nodiscard]] std::uint8_t& at(int x, int y, int c) { return data_[index(x, y, c)]; }
  [[nodiscard]] std::uint8_t at(int x, int y, int c) const { return data_[index(x, y, c)]; }

  /// Clamped accessor: coordinates outside the image read the nearest edge
  /// pixel (used by resamplers and block padding).
  [[nodiscard]] std::uint8_t at_clamped(int x, int y, int c) const noexcept {
    x = x < 0 ? 0 : (x >= width_ ? width_ - 1 : x);
    y = y < 0 ? 0 : (y >= height_ ? height_ - 1 : y);
    return data_[index(x, y, c)];
  }

  [[nodiscard]] std::vector<std::uint8_t>& data() noexcept { return data_; }
  [[nodiscard]] const std::vector<std::uint8_t>& data() const noexcept { return data_; }

  bool operator==(const Image&) const = default;

 private:
  [[nodiscard]] std::size_t index(int x, int y, int c) const {
    if (x < 0 || x >= width_ || y < 0 || y >= height_ || c < 0 || c >= channels_) {
      throw std::out_of_range("Image: pixel access out of range");
    }
    return (static_cast<std::size_t>(y) * static_cast<std::size_t>(width_) +
            static_cast<std::size_t>(x)) *
               static_cast<std::size_t>(channels_) +
           static_cast<std::size_t>(c);
  }

  int width_ = 0;
  int height_ = 0;
  int channels_ = 0;
  std::vector<std::uint8_t> data_;
};

/// Mean absolute per-sample difference — used by round-trip quality tests.
[[nodiscard]] double mean_abs_diff(const Image& a, const Image& b);

/// Peak signal-to-noise ratio in dB (infinity for identical images).
[[nodiscard]] double psnr(const Image& a, const Image& b);

}  // namespace serve::codec
