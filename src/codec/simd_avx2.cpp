// AVX2 kernel tier: 8-wide float math. This TU is compiled with -mavx2 (and
// nothing more — no -mfma, so mul/add stay separate and every lane computes
// bit-identically to the scalar tier); when the compiler can't target AVX2
// the table aliases scalar and the tier reports "not compiled".
#include "codec/simd_kernels.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <cstring>

namespace serve::codec::simd {
namespace detail {
const bool kAvx2Compiled = true;
}  // namespace detail

namespace {

// The IDCT runs 4 wide: one DCT row is two __m128 (a V8), so the 8x8
// transpose decomposes into four 4x4 quadrant transposes, which need only
// `shufps` — cheaper on most cores than the cross-lane permutes an 8-wide
// __m256 transpose requires. -mavx2 still gives these ops VEX encoding.
struct V8 {
  __m128 lo, hi;
};
inline V8 operator+(V8 a, V8 b) noexcept {
  return {_mm_add_ps(a.lo, b.lo), _mm_add_ps(a.hi, b.hi)};
}
inline V8 operator-(V8 a, V8 b) noexcept {
  return {_mm_sub_ps(a.lo, b.lo), _mm_sub_ps(a.hi, b.hi)};
}
inline V8 operator*(V8 a, V8 b) noexcept {
  return {_mm_mul_ps(a.lo, b.lo), _mm_mul_ps(a.hi, b.hi)};
}
inline V8 splat(float f) noexcept {
  const __m128 v = _mm_set1_ps(f);
  return {v, v};
}

// The exact vector transliteration of the scalar `idct_pass1d` in dct.cpp:
// same expressions, same association, mul/add kept separate (no FMA), so
// every lane computes bit-identically to the scalar pass.
inline void aan_idct_pass(V8 d[8]) noexcept {
  // Even part.
  const V8 e0 = d[0], e1 = d[2], e2 = d[4], e3 = d[6];
  const V8 t10 = e0 + e2;
  const V8 t11 = e0 - e2;
  const V8 t13 = e1 + e3;
  const V8 t12 = (e1 - e3) * splat(1.414213562f) - t13;  // 2*c4

  const V8 p0 = t10 + t13;
  const V8 p3 = t10 - t13;
  const V8 p1 = t11 + t12;
  const V8 p2 = t11 - t12;

  // Odd part.
  const V8 o4 = d[1], o5 = d[3], o6 = d[5], o7 = d[7];
  const V8 z13 = o6 + o5;
  const V8 z10 = o6 - o5;
  const V8 z11 = o4 + o7;
  const V8 z12 = o4 - o7;

  const V8 q7 = z11 + z13;
  const V8 w11 = (z11 - z13) * splat(1.414213562f);  // 2*c4
  const V8 z5 = (z10 + z12) * splat(1.847759065f);   // 2*c2
  const V8 w10 = splat(1.082392200f) * z12 - z5;     // 2*(c2-c6)
  const V8 w12 = z5 - splat(2.613125930f) * z10;     // -2*(c2+c6)

  const V8 q6 = w12 - q7;
  const V8 q5 = w11 - q6;
  const V8 q4 = w10 + q5;

  d[0] = p0 + q7;
  d[7] = p0 - q7;
  d[1] = p1 + q6;
  d[6] = p1 - q6;
  d[2] = p2 + q5;
  d[5] = p2 - q5;
  d[4] = p3 + q4;
  d[3] = p3 - q4;
}

inline void transpose8(V8 r[8]) noexcept {
  __m128 a0 = r[0].lo, a1 = r[1].lo, a2 = r[2].lo, a3 = r[3].lo;  // quadrant A
  __m128 b0 = r[0].hi, b1 = r[1].hi, b2 = r[2].hi, b3 = r[3].hi;  // quadrant B
  __m128 c0 = r[4].lo, c1 = r[5].lo, c2 = r[6].lo, c3 = r[7].lo;  // quadrant C
  __m128 d0 = r[4].hi, d1 = r[5].hi, d2 = r[6].hi, d3 = r[7].hi;  // quadrant D
  _MM_TRANSPOSE4_PS(a0, a1, a2, a3);
  _MM_TRANSPOSE4_PS(b0, b1, b2, b3);
  _MM_TRANSPOSE4_PS(c0, c1, c2, c3);
  _MM_TRANSPOSE4_PS(d0, d1, d2, d3);
  // [A B; C D]^T = [A^T C^T; B^T D^T]
  r[0] = {a0, c0};
  r[1] = {a1, c1};
  r[2] = {a2, c2};
  r[3] = {a3, c3};
  r[4] = {b0, d0};
  r[5] = {b1, d1};
  r[6] = {b2, d2};
  r[7] = {b3, d3};
}

// load rows -> pass (columns, vertical) -> transpose -> pass (rows)
// -> transpose -> store
void avx2_idct8x8_scaled(const float in[64], float out[64]) noexcept {
  V8 r[8];
  for (int i = 0; i < 8; ++i) {
    r[i] = {_mm_loadu_ps(in + 8 * i), _mm_loadu_ps(in + 8 * i + 4)};
  }
  aan_idct_pass(r);
  transpose8(r);
  aan_idct_pass(r);
  transpose8(r);
  for (int i = 0; i < 8; ++i) {
    _mm_storeu_ps(out + 8 * i, r[i].lo);
    _mm_storeu_ps(out + 8 * i + 4, r[i].hi);
  }
}

// 8 i32 -> 8 saturated u8 in the low qword.
inline __m128i pack_u8x8(__m256i v) noexcept {
  const __m128i w =
      _mm_packs_epi32(_mm256_castsi256_si128(v), _mm256_extracti128_si256(v, 1));
  return _mm_packus_epi16(w, w);
}

inline __m256i round_i32(__m256 v) noexcept {
  return _mm256_cvttps_epi32(_mm256_add_ps(v, _mm256_set1_ps(0.5f)));
}

void avx2_ycbcr_to_rgb_row(const float* y, const float* cb, const float* cr,
                           std::uint8_t* out, int n) noexcept {
  const __m256 k128 = _mm256_set1_ps(128.0f);
  const __m256 k1402 = _mm256_set1_ps(1.402f);
  const __m256 k0344 = _mm256_set1_ps(0.344136f);
  const __m256 k0714 = _mm256_set1_ps(0.714136f);
  const __m256 k1772 = _mm256_set1_ps(1.772f);
  // Interleave masks: rg8 holds bytes [r0..r7 g0..g7], b8 holds [b0..b7 x8].
  // First 16 output bytes are pixels 0-4 plus r5; next 8 finish pixels 5-7.
  const __m128i m_rg1 =
      _mm_setr_epi8(0, 8, -1, 1, 9, -1, 2, 10, -1, 3, 11, -1, 4, 12, -1, 5);
  const __m128i m_b1 =
      _mm_setr_epi8(-1, -1, 0, -1, -1, 1, -1, -1, 2, -1, -1, 3, -1, -1, 4, -1);
  const __m128i m_rg2 = _mm_setr_epi8(13, -1, 6, 14, -1, 7, 15, -1, -1, -1, -1,
                                      -1, -1, -1, -1, -1);
  const __m128i m_b2 = _mm_setr_epi8(-1, 5, -1, -1, 6, -1, -1, 7, -1, -1, -1,
                                     -1, -1, -1, -1, -1);
  int x = 0;
  for (; x + 8 <= n; x += 8) {
    const __m256 Y = _mm256_loadu_ps(y + x);
    const __m256 Cb = _mm256_sub_ps(_mm256_loadu_ps(cb + x), k128);
    const __m256 Cr = _mm256_sub_ps(_mm256_loadu_ps(cr + x), k128);
    const __m256 R = _mm256_add_ps(Y, _mm256_mul_ps(k1402, Cr));
    const __m256 G = _mm256_sub_ps(_mm256_sub_ps(Y, _mm256_mul_ps(k0344, Cb)),
                                   _mm256_mul_ps(k0714, Cr));
    const __m256 B = _mm256_add_ps(Y, _mm256_mul_ps(k1772, Cb));
    const __m128i r16 = _mm_packs_epi32(
        _mm256_castsi256_si128(round_i32(R)),
        _mm256_extracti128_si256(round_i32(R), 1));
    const __m128i g16 = _mm_packs_epi32(
        _mm256_castsi256_si128(round_i32(G)),
        _mm256_extracti128_si256(round_i32(G), 1));
    const __m128i rg8 = _mm_packus_epi16(r16, g16);  // r0..7 g0..7
    const __m128i b8 = pack_u8x8(round_i32(B));      // b0..7 b0..7
    const __m128i v1 =
        _mm_or_si128(_mm_shuffle_epi8(rg8, m_rg1), _mm_shuffle_epi8(b8, m_b1));
    const __m128i v2 =
        _mm_or_si128(_mm_shuffle_epi8(rg8, m_rg2), _mm_shuffle_epi8(b8, m_b2));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out), v1);   // bytes 0..15
    _mm_storel_epi64(reinterpret_cast<__m128i*>(out + 16), v2);  // bytes 16..23
    out += 24;
  }
  if (x < n) kScalarKernels.ycbcr_to_rgb_row(y + x, cb + x, cr + x, out, n - x);
}

void avx2_gray_to_u8_row(const float* y, std::uint8_t* out, int n) noexcept {
  int x = 0;
  for (; x + 8 <= n; x += 8) {
    const __m128i u8 = pack_u8x8(round_i32(_mm256_loadu_ps(y + x)));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(out + x), u8);
  }
  if (x < n) kScalarKernels.gray_to_u8_row(y + x, out + x, n - x);
}

inline __m128 u8x4_to_ps(const std::uint8_t* p) noexcept {
  std::int32_t bits;
  std::memcpy(&bits, p, 4);
  return _mm_cvtepi32_ps(_mm_cvtepu8_epi32(_mm_cvtsi32_si128(bits)));
}

void avx2_resize_hpass_row(const std::uint8_t* srow, float* mrow, const int* i0,
                           const int* i1, const float* w1, int dst_w, int ch,
                           std::size_t srow_avail) noexcept {
  if (ch != 3 || dst_w < 2) {
    kScalarKernels.resize_hpass_row(srow, mrow, i0, i1, w1, dst_w, ch, srow_avail);
    return;
  }
  // One dst pixel per iteration: two 4-byte taps, 4-float store (one lane of
  // slack, overwritten by the next pixel — so the last pixel goes scalar, as
  // do taps whose 4-byte load would cross `srow_avail`).
  const int last = dst_w - 1;
  int x = 0;
  for (; x < last; ++x) {
    const auto xi = static_cast<std::size_t>(x);
    const std::size_t off0 = static_cast<std::size_t>(i0[xi]) * 3;
    const std::size_t off1 = static_cast<std::size_t>(i1[xi]) * 3;
    if (off1 + 4 > srow_avail) break;  // i1 is monotone; tail goes scalar
    const float w = w1[xi];
    const __m128 wv = _mm_set1_ps(w);
    const __m128 w0v = _mm_set1_ps(1.0f - w);
    const __m128 m = _mm_add_ps(_mm_mul_ps(u8x4_to_ps(srow + off0), w0v),
                                _mm_mul_ps(u8x4_to_ps(srow + off1), wv));
    _mm_storeu_ps(mrow + xi * 3, m);
  }
  if (x < dst_w) {
    kScalarKernels.resize_hpass_row(srow, mrow + static_cast<std::size_t>(x) * 3,
                                    i0 + x, i1 + x, w1 + x, dst_w - x, ch,
                                    srow_avail);
  }
}

void avx2_resize_vpass_row(const float* r0, const float* r1, float w,
                           std::uint8_t* out, std::size_t n) noexcept {
  const __m256 wv = _mm256_set1_ps(w);
  const __m256 w0v = _mm256_set1_ps(1.0f - w);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_add_ps(_mm256_mul_ps(_mm256_loadu_ps(r0 + i), w0v),
                                   _mm256_mul_ps(_mm256_loadu_ps(r1 + i), wv));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(out + i), pack_u8x8(round_i32(v)));
  }
  if (i < n) kScalarKernels.resize_vpass_row(r0 + i, r1 + i, w, out + i, n - i);
}

void avx2_upsample2_row(const float* src, float* dst, int dst_n) noexcept {
  int i = 0;
  for (; i + 16 <= dst_n; i += 16) {
    const __m256 v = _mm256_loadu_ps(src + (i >> 1));
    // Pairwise duplicate: unpack gives [s0 s0 s1 s1 | s4 s4 s5 s5] and
    // [s2 s2 s3 s3 | s6 s6 s7 s7]; recombine the 128-bit halves in order.
    const __m256 lo = _mm256_unpacklo_ps(v, v);
    const __m256 hi = _mm256_unpackhi_ps(v, v);
    _mm256_storeu_ps(dst + i, _mm256_permute2f128_ps(lo, hi, 0x20));
    _mm256_storeu_ps(dst + i + 8, _mm256_permute2f128_ps(lo, hi, 0x31));
  }
  for (; i < dst_n; ++i) dst[i] = src[i >> 1];
}

void avx2_normalize_rgb_row(const std::uint8_t* p, float* r, float* g, float* b,
                            std::size_t n, const float* mean,
                            const float* inv_std) noexcept {
  const __m256 k255 = _mm256_set1_ps(255.0f);
  const __m256 mr = _mm256_set1_ps(mean[0]), ir = _mm256_set1_ps(inv_std[0]);
  const __m256 mg = _mm256_set1_ps(mean[1]), ig = _mm256_set1_ps(inv_std[1]);
  const __m256 mb = _mm256_set1_ps(mean[2]), ib = _mm256_set1_ps(inv_std[2]);
  // Two 16-byte loads per 8 pixels (24 bytes): x0 = bytes [0,16) and
  // x1 = bytes [8,24) of the group, so both stay inside the pixel data
  // whenever 8 full pixels remain. pshufb masks gather the 8 R/G/B samples.
  const __m128i m_r0 = _mm_setr_epi8(0, 3, 6, 9, 12, 15, -1, -1, -1, -1, -1,
                                     -1, -1, -1, -1, -1);
  const __m128i m_r1 = _mm_setr_epi8(-1, -1, -1, -1, -1, -1, 10, 13, -1, -1,
                                     -1, -1, -1, -1, -1, -1);
  const __m128i m_g0 = _mm_setr_epi8(1, 4, 7, 10, 13, -1, -1, -1, -1, -1, -1,
                                     -1, -1, -1, -1, -1);
  const __m128i m_g1 = _mm_setr_epi8(-1, -1, -1, -1, -1, 8, 11, 14, -1, -1, -1,
                                     -1, -1, -1, -1, -1);
  const __m128i m_b0 = _mm_setr_epi8(2, 5, 8, 11, 14, -1, -1, -1, -1, -1, -1,
                                     -1, -1, -1, -1, -1);
  const __m128i m_b1 = _mm_setr_epi8(-1, -1, -1, -1, -1, 9, 12, 15, -1, -1, -1,
                                     -1, -1, -1, -1, -1);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const std::uint8_t* q = p + 3 * i;
    const __m128i x0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(q));
    const __m128i x1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(q + 8));
    const __m128i rb =
        _mm_or_si128(_mm_shuffle_epi8(x0, m_r0), _mm_shuffle_epi8(x1, m_r1));
    const __m128i gb =
        _mm_or_si128(_mm_shuffle_epi8(x0, m_g0), _mm_shuffle_epi8(x1, m_g1));
    const __m128i bb =
        _mm_or_si128(_mm_shuffle_epi8(x0, m_b0), _mm_shuffle_epi8(x1, m_b1));
    const __m256 fr = _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(rb));
    const __m256 fg = _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(gb));
    const __m256 fb = _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(bb));
    _mm256_storeu_ps(r + i,
                     _mm256_mul_ps(_mm256_sub_ps(_mm256_div_ps(fr, k255), mr), ir));
    _mm256_storeu_ps(g + i,
                     _mm256_mul_ps(_mm256_sub_ps(_mm256_div_ps(fg, k255), mg), ig));
    _mm256_storeu_ps(b + i,
                     _mm256_mul_ps(_mm256_sub_ps(_mm256_div_ps(fb, k255), mb), ib));
  }
  if (i < n) {
    kScalarKernels.normalize_rgb_row(p + 3 * i, r + i, g + i, b + i, n - i, mean,
                                     inv_std);
  }
}

}  // namespace

const KernelTable kAvx2Kernels{
    avx2_idct8x8_scaled,   avx2_ycbcr_to_rgb_row, avx2_gray_to_u8_row,
    avx2_resize_hpass_row, avx2_resize_vpass_row, avx2_upsample2_row,
    avx2_normalize_rgb_row,
};

}  // namespace serve::codec::simd

#else  // !defined(__AVX2__): alias scalar so the table stays valid.

namespace serve::codec::simd {
namespace detail {
const bool kAvx2Compiled = false;
}  // namespace detail

const KernelTable kAvx2Kernels = kScalarKernels;

}  // namespace serve::codec::simd

#endif
