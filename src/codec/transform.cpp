#include "codec/transform.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "codec/simd_kernels.h"

namespace serve::codec {

Image resize(const Image& src, int dst_w, int dst_h) {
  if (src.empty()) throw std::invalid_argument("resize: empty source");
  if (dst_w <= 0 || dst_h <= 0) throw std::invalid_argument("resize: non-positive target");
  Image dst{dst_w, dst_h, src.channels()};
  RowResizer rows{src.width(), src.height(), src.channels(), dst_w, dst_h};
  const std::uint8_t* sdata = src.data().data();
  const std::size_t src_size = src.data().size();
  const std::size_t src_row = static_cast<std::size_t>(src.width()) *
                              static_cast<std::size_t>(src.channels());
  const std::size_t dst_row = static_cast<std::size_t>(dst_w) *
                              static_cast<std::size_t>(src.channels());
  std::uint8_t* out = dst.data().data();
  for (int sy = 0; sy < src.height(); ++sy) {
    // Bytes readable from the row start: the rest of the image buffer, so a
    // vector load may legally run past the row end into the next row.
    const std::size_t row_off = static_cast<std::size_t>(sy) * src_row;
    rows.push(sdata + row_off, src_size - row_off);
    for (; rows.ready(); out += dst_row) rows.emit(out);
  }
  return dst;
}

RowResizer::AxisPlan RowResizer::plan(int src, int dst) {
  AxisPlan p;
  const auto n = static_cast<std::size_t>(dst);
  p.i0.resize(n);
  p.i1.resize(n);
  p.w1.resize(n);
  const double scale = static_cast<double>(src) / dst;
  for (int x = 0; x < dst; ++x) {
    // Pixel-center mapping keeps the image from shifting by half a pixel.
    const double f = (x + 0.5) * scale - 0.5;
    const int x0 = static_cast<int>(std::floor(f));
    const auto i = static_cast<std::size_t>(x);
    p.i0[i] = std::clamp(x0, 0, src - 1);
    p.i1[i] = std::clamp(x0 + 1, 0, src - 1);
    p.w1[i] = static_cast<float>(f - x0);
  }
  return p;
}

RowResizer::RowResizer(int src_w, int src_h, int channels, int dst_w, int dst_h)
    : channels_(channels),
      dst_w_(dst_w),
      dst_h_(dst_h),
      xp_(plan(src_w, dst_w)),
      yp_(plan(src_h, dst_h)),
      mid_row_(static_cast<std::size_t>(dst_w) * static_cast<std::size_t>(channels)),
      window_(2 * mid_row_) {}

// The vertical taps never move backwards (i0 and i1 are nondecreasing and
// i1 <= i0 + 1), and destination rows are written as soon as their taps have
// arrived, so a pushed row is needed only if it is at or past the next
// destination row's first tap; it then replaces the older of the two held
// rows, which no later destination row reads. Each referenced source row
// gets exactly one horizontal pass.
void RowResizer::push(const std::uint8_t* row, std::size_t avail) noexcept {
  const int sy = pushed_++;
  if (y_ >= dst_h_ || sy < yp_.i0[static_cast<std::size_t>(y_)]) return;
  const std::size_t s = held_[0] < held_[1] ? 0 : 1;
  held_[s] = sy;
  simd::kernels().resize_hpass_row(row, window_.data() + s * mid_row_, xp_.i0.data(),
                                   xp_.i1.data(), xp_.w1.data(), dst_w_, channels_, avail);
}

const float* RowResizer::slot_of(int sy) const noexcept {
  return window_.data() + (held_[0] == sy ? 0 : mid_row_);
}

void RowResizer::emit(std::uint8_t* out) noexcept {
  const auto y = static_cast<std::size_t>(y_++);
  simd::kernels().resize_vpass_row(slot_of(yp_.i0[y]), slot_of(yp_.i1[y]), yp_.w1[y], out,
                                   mid_row_);
}

Image resize_reference(const Image& src, int dst_w, int dst_h) {
  if (src.empty()) throw std::invalid_argument("resize: empty source");
  if (dst_w <= 0 || dst_h <= 0) throw std::invalid_argument("resize: non-positive target");
  Image dst{dst_w, dst_h, src.channels()};
  const double sx = static_cast<double>(src.width()) / dst_w;
  const double sy = static_cast<double>(src.height()) / dst_h;
  for (int y = 0; y < dst_h; ++y) {
    for (int x = 0; x < dst_w; ++x) {
      // Pixel-center mapping keeps the image from shifting by half a pixel.
      const double fx = (x + 0.5) * sx - 0.5;
      const double fy = (y + 0.5) * sy - 0.5;
      const int x0 = static_cast<int>(std::floor(fx));
      const int y0 = static_cast<int>(std::floor(fy));
      const double ax = fx - x0;
      const double ay = fy - y0;
      for (int c = 0; c < src.channels(); ++c) {
        const double v00 = src.at_clamped(x0, y0, c);
        const double v10 = src.at_clamped(x0 + 1, y0, c);
        const double v01 = src.at_clamped(x0, y0 + 1, c);
        const double v11 = src.at_clamped(x0 + 1, y0 + 1, c);
        const double v = v00 * (1 - ax) * (1 - ay) + v10 * ax * (1 - ay) +
                         v01 * (1 - ax) * ay + v11 * ax * ay;
        dst.at(x, y, c) = static_cast<std::uint8_t>(std::clamp(std::lround(v), 0L, 255L));
      }
    }
  }
  return dst;
}

const char* normalize_error(int channels, const std::array<float, 3>& stddev) noexcept {
  if (channels != 3) return "normalize_chw: need RGB input";
  for (float s : stddev) {
    if (!(s > 0.0f)) return "normalize_chw: stddev must be positive";
  }
  return nullptr;
}

std::vector<float> normalize_chw(const Image& img, const std::array<float, 3>& mean,
                                 const std::array<float, 3>& stddev) {
  if (const char* error = normalize_error(img.channels(), stddev)) {
    throw std::invalid_argument(error);
  }
  const float inv_std[3] = {1.0f / stddev[0], 1.0f / stddev[1], 1.0f / stddev[2]};
  const auto plane = static_cast<std::size_t>(img.width()) * static_cast<std::size_t>(img.height());
  std::vector<float> out(plane * 3);
  // The whole interleaved image is one long "row" for the kernel; every tier
  // applies exactly (v/255 - mean) * inv_std, so output is bit-identical
  // across tiers (and to the pre-SIMD LUT implementation).
  simd::kernels().normalize_rgb_row(img.data().data(), out.data(), out.data() + plane,
                                    out.data() + 2 * plane, plane, mean.data(), inv_std);
  return out;
}

Image center_crop(const Image& src, int side) {
  if (side <= 0) throw std::invalid_argument("center_crop: non-positive side");
  const int s = std::min({side, src.width(), src.height()});
  const int x0 = (src.width() - s) / 2;
  const int y0 = (src.height() - s) / 2;
  Image dst{s, s, src.channels()};
  const auto ch = static_cast<std::size_t>(src.channels());
  const std::size_t src_row = static_cast<std::size_t>(src.width()) * ch;
  const std::size_t dst_row = static_cast<std::size_t>(s) * ch;
  const std::uint8_t* sp = src.data().data() +
      static_cast<std::size_t>(y0) * src_row + static_cast<std::size_t>(x0) * ch;
  std::uint8_t* dp = dst.data().data();
  for (int y = 0; y < s; ++y) {
    std::memcpy(dp, sp, dst_row);
    sp += src_row;
    dp += dst_row;
  }
  return dst;
}

}  // namespace serve::codec
