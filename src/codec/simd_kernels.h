// Internal kernel table behind the codec's runtime SIMD dispatch
// (codec/cpu_features.h). One table per tier, scalar and AVX2; the scalar
// table defines the semantics and the AVX2 table must match it within the
// `*_ref` contracts.
//
// Every kernel is a leaf: no allocation, no exceptions, caller validates
// sizes. Row kernels may read only the bytes the scalar loop would read plus
// an explicitly passed slack (`avail` arguments); implementations fall back
// to scalar lanes near buffer ends instead of over-reading.
#pragma once

#include <cstddef>
#include <cstdint>

#include "codec/cpu_features.h"

namespace serve::codec::simd {

struct KernelTable {
  /// AAN inverse DCT over coefficients already multiplied by
  /// `jpeg::idct_prescale()` — same contract as `jpeg::idct8x8_scaled`.
  void (*idct8x8_scaled)(const float in[64], float out[64]) noexcept;

  /// One image row of JPEG color conversion: interleaves clamp255(YCbCr->RGB)
  /// into `out[3*n]`. `cb`/`cr` are full-resolution rows (caller gathers
  /// subsampled planes first); all three input rows hold `n` floats.
  void (*ycbcr_to_rgb_row)(const float* y, const float* cb, const float* cr,
                           std::uint8_t* out, int n) noexcept;

  /// Grayscale row: out[i] = clamp255(y[i]) for i < n.
  void (*gray_to_u8_row)(const float* y, std::uint8_t* out, int n) noexcept;

  /// Horizontal bilinear pass over one interleaved source row. For each
  /// destination x: mrow[x*ch+c] = p0[c]*(1-w1[x]) + p1[c]*w1[x] with
  /// p0 = srow + i0[x]*ch, p1 = srow + i1[x]*ch. `srow_avail` is the number
  /// of bytes readable starting at `srow` (the kernel may use vector loads
  /// only where they stay inside that bound).
  void (*resize_hpass_row)(const std::uint8_t* srow, float* mrow, const int* i0,
                           const int* i1, const float* w1, int dst_w, int ch,
                           std::size_t srow_avail) noexcept;

  /// Vertical bilinear blend of two float rows into u8:
  /// out[i] = round_clamp255(r0[i]*(1-w) + r1[i]*w) for i < n.
  void (*resize_vpass_row)(const float* r0, const float* r1, float w,
                           std::uint8_t* out, std::size_t n) noexcept;

  /// 2x nearest-neighbour horizontal upsample: dst[i] = src[i >> 1] for
  /// i < dst_n (JPEG 4:2:0/4:2:2 chroma rows; src holds ceil(dst_n/2)).
  void (*upsample2_row)(const float* src, float* dst, int dst_n) noexcept;

  /// CHW normalization of `n` interleaved RGB pixels starting at `p` into
  /// planar outputs: r[i] = (p[3i+0]/255 - mean[0]) * inv_std[0], etc.
  /// Bit-exact against the scalar formula (IEEE div/sub/mul, no FMA).
  void (*normalize_rgb_row)(const std::uint8_t* p, float* r, float* g, float* b,
                            std::size_t n, const float* mean,
                            const float* inv_std) noexcept;
};

/// Table for `cpu::active_tier()` (scalar when dispatch is pinned there).
[[nodiscard]] const KernelTable& kernels() noexcept;

/// Table for an explicit tier (tests sweep tiers; throws nothing — callers
/// check `cpu::tier_supported` before executing the returned kernels).
[[nodiscard]] const KernelTable& kernels_for(cpu::SimdTier t) noexcept;

// Per-tier tables (defined in simd_scalar.cpp / simd_avx2.cpp). On builds
// without AVX2 the AVX2 table aliases the scalar entries and the tier
// reports unsupported.
extern const KernelTable kScalarKernels;
extern const KernelTable kAvx2Kernels;

/// True when this *build* carries real vector code for the tier (regardless
/// of host CPU support); scalar is always true.
[[nodiscard]] bool tier_compiled(cpu::SimdTier t) noexcept;

namespace detail {
// Constant-initialized in simd_avx2.cpp: true when that TU compiled real
// vector code rather than aliasing the scalar table.
extern const bool kAvx2Compiled;
}  // namespace detail

}  // namespace serve::codec::simd
