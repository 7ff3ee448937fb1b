// Scalar kernel tier + the dispatch plumbing of codec/cpu_features.h.
//
// The scalar kernels are the semantic definition the AVX2 tier is tested
// against; they are also the permanent fallback (non-x86 builds, the
// SERVESCOPE_SIMD=scalar CI leg, and machines without AVX2).
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "codec/dct.h"
#include "codec/simd_kernels.h"

namespace serve::codec {

namespace simd {
namespace {

// Round-half-up + clamp; identical to the decoder's and resizer's clamp255.
inline std::uint8_t round_clamp255(float v) noexcept {
  v += 0.5f;
  return static_cast<std::uint8_t>(v < 0.0f ? 0 : (v > 255.0f ? 255 : static_cast<int>(v)));
}

void scalar_idct8x8_scaled(const float in[64], float out[64]) noexcept {
  jpeg::idct8x8_scaled_scalar(in, out);
}

void scalar_ycbcr_to_rgb_row(const float* y, const float* cb, const float* cr,
                             std::uint8_t* out, int n) noexcept {
  for (int x = 0; x < n; ++x) {
    const float Y = y[x];
    const float Cb = cb[x] - 128.0f;
    const float Cr = cr[x] - 128.0f;
    out[0] = round_clamp255(Y + 1.402f * Cr);
    out[1] = round_clamp255(Y - 0.344136f * Cb - 0.714136f * Cr);
    out[2] = round_clamp255(Y + 1.772f * Cb);
    out += 3;
  }
}

void scalar_gray_to_u8_row(const float* y, std::uint8_t* out, int n) noexcept {
  for (int x = 0; x < n; ++x) out[x] = round_clamp255(y[x]);
}

void scalar_resize_hpass_row(const std::uint8_t* srow, float* mrow, const int* i0,
                             const int* i1, const float* w1, int dst_w, int ch,
                             std::size_t /*srow_avail*/) noexcept {
  for (int x = 0; x < dst_w; ++x) {
    const auto xi = static_cast<std::size_t>(x);
    const std::uint8_t* p0 = srow + static_cast<std::size_t>(i0[xi]) * static_cast<std::size_t>(ch);
    const std::uint8_t* p1 = srow + static_cast<std::size_t>(i1[xi]) * static_cast<std::size_t>(ch);
    const float w = w1[xi];
    const float w0 = 1.0f - w;
    for (int c = 0; c < ch; ++c) {
      *mrow++ = static_cast<float>(p0[c]) * w0 + static_cast<float>(p1[c]) * w;
    }
  }
}

void scalar_resize_vpass_row(const float* r0, const float* r1, float w,
                             std::uint8_t* out, std::size_t n) noexcept {
  const float w0 = 1.0f - w;
  for (std::size_t i = 0; i < n; ++i) out[i] = round_clamp255(r0[i] * w0 + r1[i] * w);
}

void scalar_upsample2_row(const float* src, float* dst, int dst_n) noexcept {
  for (int i = 0; i < dst_n; ++i) dst[i] = src[i >> 1];
}

void scalar_normalize_rgb_row(const std::uint8_t* p, float* r, float* g, float* b,
                              std::size_t n, const float* mean,
                              const float* inv_std) noexcept {
  // Same 256-entry LUT scheme the pre-SIMD normalize_chw used: each entry is
  // exactly (v/255 - mean)*inv_std, so output is bit-identical to inline.
  float lut[3][256];
  for (int c = 0; c < 3; ++c) {
    for (int v = 0; v < 256; ++v) {
      lut[c][v] = (static_cast<float>(v) / 255.0f - mean[c]) * inv_std[c];
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    r[i] = lut[0][p[0]];
    g[i] = lut[1][p[1]];
    b[i] = lut[2][p[2]];
    p += 3;
  }
}

}  // namespace

const KernelTable kScalarKernels{
    scalar_idct8x8_scaled, scalar_ycbcr_to_rgb_row, scalar_gray_to_u8_row,
    scalar_resize_hpass_row, scalar_resize_vpass_row, scalar_upsample2_row,
    scalar_normalize_rgb_row,
};

const KernelTable& kernels_for(cpu::SimdTier t) noexcept {
  switch (t) {
    case cpu::SimdTier::kAvx2: return kAvx2Kernels;
    case cpu::SimdTier::kScalar: break;
  }
  return kScalarKernels;
}

const KernelTable& kernels() noexcept { return kernels_for(cpu::active_tier()); }

bool tier_compiled(cpu::SimdTier t) noexcept {
  switch (t) {
    case cpu::SimdTier::kAvx2: return detail::kAvx2Compiled;
    case cpu::SimdTier::kScalar: break;
  }
  return true;
}

}  // namespace simd

namespace cpu {
namespace {

/// Best tier the executing CPU can run among those compiled into this build.
SimdTier hardware_tier() noexcept {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  if (simd::tier_compiled(SimdTier::kAvx2) && __builtin_cpu_supports("avx2")) {
    return SimdTier::kAvx2;
  }
#endif
  return SimdTier::kScalar;
}

/// Environment cap: SERVESCOPE_SIMD.
SimdTier env_cap() noexcept {
  const char* simd_env = std::getenv("SERVESCOPE_SIMD");
  if (simd_env != nullptr) {
    const std::string_view v{simd_env};
    if (v == "scalar") return SimdTier::kScalar;
    // "avx2", empty, or unknown: no cap (detection still bounds it).
  }
  return SimdTier::kAvx2;
}

SimdTier detect() noexcept {
  const SimdTier hw = hardware_tier();
  const SimdTier cap = env_cap();
  return static_cast<int>(cap) < static_cast<int>(hw) ? cap : hw;
}

SimdTier& active_slot() noexcept {
  static SimdTier tier = detect();
  return tier;
}

}  // namespace

std::string_view tier_name(SimdTier t) noexcept {
  switch (t) {
    case SimdTier::kAvx2: return "avx2";
    case SimdTier::kScalar: break;
  }
  return "scalar";
}

bool tier_supported(SimdTier t) noexcept {
  return static_cast<int>(t) <= static_cast<int>(hardware_tier());
}

SimdTier detected_tier() noexcept {
  static const SimdTier tier = detect();
  return tier;
}

SimdTier active_tier() noexcept { return active_slot(); }

void set_active_tier(SimdTier t) {
  if (!tier_supported(t)) {
    throw std::invalid_argument("codec::cpu::set_active_tier: tier '" +
                                std::string(tier_name(t)) +
                                "' not supported by this host/build");
  }
  active_slot() = t;
}

}  // namespace cpu
}  // namespace serve::codec
