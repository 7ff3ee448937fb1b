#include "codec/transform.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "codec/simd_kernels.h"

namespace serve::codec {

namespace {

/// Per-axis bilinear resampling plan: for each destination index, the two
/// clamped source taps and the weight of the second tap. Precomputed once
/// per resize so the pixel loops are pure float multiply-adds.
struct AxisPlan {
  std::vector<int> i0, i1;
  std::vector<float> w1;  ///< weight of tap i1; tap i0 gets (1 - w1)
};

AxisPlan make_axis_plan(int src, int dst) {
  AxisPlan plan;
  const auto n = static_cast<std::size_t>(dst);
  plan.i0.resize(n);
  plan.i1.resize(n);
  plan.w1.resize(n);
  const double scale = static_cast<double>(src) / dst;
  for (int x = 0; x < dst; ++x) {
    // Pixel-center mapping keeps the image from shifting by half a pixel.
    const double f = (x + 0.5) * scale - 0.5;
    const int x0 = static_cast<int>(std::floor(f));
    const auto i = static_cast<std::size_t>(x);
    plan.i0[i] = std::clamp(x0, 0, src - 1);
    plan.i1[i] = std::clamp(x0 + 1, 0, src - 1);
    plan.w1[i] = static_cast<float>(f - x0);
  }
  return plan;
}

/// Nearest-neighbour index plan (same pixel-center mapping as the reference).
std::vector<int> make_nearest_plan(int src, int dst) {
  std::vector<int> idx(static_cast<std::size_t>(dst));
  const double scale = static_cast<double>(src) / dst;
  for (int x = 0; x < dst; ++x) {
    const double f = (x + 0.5) * scale - 0.5;
    idx[static_cast<std::size_t>(x)] =
        std::clamp(static_cast<int>(std::lround(f)), 0, src - 1);
  }
  return idx;
}

Image resize_nearest(const Image& src, int dst_w, int dst_h) {
  Image dst{dst_w, dst_h, src.channels()};
  const auto xs = make_nearest_plan(src.width(), dst_w);
  const auto ys = make_nearest_plan(src.height(), dst_h);
  const int ch = src.channels();
  const std::uint8_t* sdata = src.data().data();
  std::uint8_t* out = dst.data().data();
  const std::size_t src_row = static_cast<std::size_t>(src.width()) * static_cast<std::size_t>(ch);
  for (int y = 0; y < dst_h; ++y) {
    const std::uint8_t* srow = sdata + static_cast<std::size_t>(ys[static_cast<std::size_t>(y)]) * src_row;
    for (int x = 0; x < dst_w; ++x) {
      const std::uint8_t* sp = srow + static_cast<std::size_t>(xs[static_cast<std::size_t>(x)]) * static_cast<std::size_t>(ch);
      for (int c = 0; c < ch; ++c) *out++ = sp[c];
    }
  }
  return dst;
}

Image resize_bilinear_two_pass(const Image& src, int dst_w, int dst_h) {
  Image dst{dst_w, dst_h, src.channels()};
  const int ch = src.channels();
  const AxisPlan xp = make_axis_plan(src.width(), dst_w);
  const AxisPlan yp = make_axis_plan(src.height(), dst_h);

  // The vertical taps never move backwards (i0 and i1 are nondecreasing and
  // i1 <= i0 + 1), so a window of the last two horizontally resampled source
  // rows serves every output row: each referenced source row gets exactly
  // one horizontal pass, and an evicted row is never needed again.
  const std::size_t mid_row = static_cast<std::size_t>(dst_w) * static_cast<std::size_t>(ch);
  std::vector<float> window(2 * mid_row);
  int held[2] = {-1, -1};  ///< source row in each window slot
  const std::uint8_t* sdata = src.data().data();
  const std::size_t src_size = src.data().size();
  const std::size_t src_row = static_cast<std::size_t>(src.width()) * static_cast<std::size_t>(ch);
  const auto& K = simd::kernels();
  // Source row `sy`, resampled; evicts the slot not holding `keep`.
  auto hrow = [&](int sy, int keep) -> const float* {
    for (std::size_t s = 0; s < 2; ++s) {
      if (held[s] == sy) return window.data() + s * mid_row;
    }
    const std::size_t s = held[0] == keep ? 1 : 0;
    held[s] = sy;
    const std::size_t row_off = static_cast<std::size_t>(sy) * src_row;
    // Bytes readable from the row start: the rest of the image buffer, so a
    // vector load may legally run past the row end into the next row.
    K.resize_hpass_row(sdata + row_off, window.data() + s * mid_row, xp.i0.data(), xp.i1.data(),
                       xp.w1.data(), dst_w, ch, src_size - row_off);
    return window.data() + s * mid_row;
  };

  std::uint8_t* out = dst.data().data();
  for (int y = 0; y < dst_h; ++y) {
    const auto yi = static_cast<std::size_t>(y);
    const float* r0 = hrow(yp.i0[yi], yp.i1[yi]);
    const float* r1 = hrow(yp.i1[yi], yp.i0[yi]);
    K.resize_vpass_row(r0, r1, yp.w1[yi], out, mid_row);
    out += mid_row;
  }
  return dst;
}

}  // namespace

Image resize(const Image& src, int dst_w, int dst_h, ResizeFilter filter) {
  if (src.empty()) throw std::invalid_argument("resize: empty source");
  if (dst_w <= 0 || dst_h <= 0) throw std::invalid_argument("resize: non-positive target");
  if (filter == ResizeFilter::kNearest) return resize_nearest(src, dst_w, dst_h);
  return resize_bilinear_two_pass(src, dst_w, dst_h);
}

Image resize_reference(const Image& src, int dst_w, int dst_h, ResizeFilter filter) {
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
      if (filter == ResizeFilter::kNearest) {
        const int ix = static_cast<int>(std::lround(fx));
        const int iy = static_cast<int>(std::lround(fy));
        for (int c = 0; c < src.channels(); ++c) dst.at(x, y, c) = src.at_clamped(ix, iy, c);
      } else {
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
  }
  return dst;
}

std::vector<float> normalize_chw(const Image& img, const std::array<float, 3>& mean,
                                 const std::array<float, 3>& stddev) {
  if (img.channels() != 3) throw std::invalid_argument("normalize_chw: need RGB input");
  for (float s : stddev) {
    if (s <= 0.0f) throw std::invalid_argument("normalize_chw: stddev must be positive");
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
