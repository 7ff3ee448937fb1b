// Property tests pinning the AVX2 kernel tier to the scalar semantic
// definition (codec/simd_kernels.h). The scalar table is the oracle; AVX2
// must match it within the documented contracts: ±1 LSB on u8 outputs,
// bit-exact normalize, exact upsample.
//
// The sweeps deliberately hit the awkward cases vector code gets wrong:
// odd widths covering every remainder modulo the widest lane count,
// unaligned row pointers (heap allocation + 1 element), and exact-size
// buffers so the ASan job catches any tail over-read the `avail` contracts
// forbid. Tiers are swept by simd_tiers.h, capped at cpu::detected_tier(),
// which honors SERVESCOPE_SIMD — the forced-scalar CI leg
// (SERVESCOPE_SIMD=scalar) runs these tests against the scalar table
// only, by design; SimdDispatch.EnvCapPinsDispatch proves the cap took.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <random>
#include <string_view>
#include <vector>

#include "codec/cpu_features.h"
#include "codec/dct.h"
#include "codec/image.h"
#include "codec/jpeg.h"
#include "codec/simd_kernels.h"
#include "codec/synthetic.h"
#include "codec/transform.h"
#include "simd_tiers.h"

namespace {

using namespace serve::codec;
using serve::tiers::for_each_tier;

// Widths covering every tail-lane remainder for 16-wide u8 kernels, plus a
// few larger sizes that exercise full vector bodies with a straggler tail.
const int kWidths[] = {1,  2,  3,  4,  5,  6,  7,  8,  9,  10, 11, 12,
                       13, 14, 15, 16, 17, 31, 33, 63, 64, 100, 333};

TEST(SimdDispatch, ScalarTableAlwaysCompiledAndSupported) {
  EXPECT_TRUE(simd::tier_compiled(cpu::SimdTier::kScalar));
  EXPECT_TRUE(cpu::tier_supported(cpu::SimdTier::kScalar));
  // The dispatched table for the scalar tier is the scalar table itself.
  EXPECT_EQ(&simd::kernels_for(cpu::SimdTier::kScalar), &simd::kScalarKernels);
}

TEST(SimdDispatch, SetActiveTierRoundTrip) {
  const cpu::SimdTier original = cpu::active_tier();
  cpu::set_active_tier(cpu::SimdTier::kScalar);
  EXPECT_EQ(cpu::active_tier(), cpu::SimdTier::kScalar);
  EXPECT_EQ(&simd::kernels(), &simd::kScalarKernels);
  cpu::set_active_tier(original);
  EXPECT_EQ(cpu::active_tier(), original);
}

TEST(SimdDispatch, UnsupportedTierThrows) {
  // Pinning AVX2 throws exactly when the host or build cannot run it.
  const cpu::SimdTier original = cpu::active_tier();
  if (cpu::tier_supported(cpu::SimdTier::kAvx2)) {
    EXPECT_NO_THROW(cpu::set_active_tier(cpu::SimdTier::kAvx2));
    EXPECT_EQ(&simd::kernels(), &simd::kAvx2Kernels);
  } else {
    EXPECT_THROW(cpu::set_active_tier(cpu::SimdTier::kAvx2), std::invalid_argument);
  }
  cpu::set_active_tier(original);
}

TEST(SimdDispatch, EnvCapPinsDispatch) {
  // The forced-scalar CI leg passes vacuously on an AVX2 host unless the
  // SERVESCOPE_SIMD cap really took effect.
  const char* env = std::getenv("SERVESCOPE_SIMD");
  if (env == nullptr) {
    const cpu::SimdTier best = cpu::tier_supported(cpu::SimdTier::kAvx2)
                                   ? cpu::SimdTier::kAvx2
                                   : cpu::SimdTier::kScalar;
    EXPECT_EQ(cpu::detected_tier(), best);
  } else if (std::string_view{env} == "scalar") {
    EXPECT_EQ(cpu::detected_tier(), cpu::SimdTier::kScalar);
    EXPECT_EQ(&simd::kernels(), &simd::kScalarKernels);
  } else {
    GTEST_SKIP() << "SERVESCOPE_SIMD=" << env;
  }
}

TEST(SimdEquivalence, Idct8x8ScaledMatchesScalar) {
  std::mt19937 rng{20240807};
  std::uniform_real_distribution<float> coeff{-1024.0f, 1024.0f};
  std::uniform_int_distribution<int> sparsity{0, 63};
  const auto& prescale = jpeg::idct_prescale();
  for_each_tier([&](cpu::SimdTier t) {
    const simd::KernelTable& K = simd::kernels_for(t);
    for (int round = 0; round < 200; ++round) {
      float in[64], ref[64], got[64];
      // Mix dense blocks with DC-heavy sparse ones (the common decode case).
      const int keep = (round % 2 == 0) ? 64 : sparsity(rng);
      for (int i = 0; i < 64; ++i) {
        in[i] = (i <= keep ? coeff(rng) : 0.0f) * prescale[static_cast<std::size_t>(i)];
      }
      simd::kScalarKernels.idct8x8_scaled(in, ref);
      K.idct8x8_scaled(in, got);
      for (int i = 0; i < 64; ++i) {
        // Outputs feed a +128/round/clamp to u8; well under half an LSB of
        // float drift keeps the pixel within the ±1 LSB decode contract.
        ASSERT_NEAR(got[i], ref[i], 0.05f) << "block " << round << " idx " << i;
      }
    }
  });
}

TEST(SimdEquivalence, YcbcrToRgbRowWithinOneLsb) {
  std::mt19937 rng{7};
  // Past-the-gamut values exercise both clamp edges.
  std::uniform_real_distribution<float> ydist{-40.0f, 300.0f};
  std::uniform_real_distribution<float> cdist{-32.0f, 288.0f};
  for_each_tier([&](cpu::SimdTier t) {
    const simd::KernelTable& K = simd::kernels_for(t);
    for (int n : kWidths) {
      const auto un = static_cast<std::size_t>(n);
      // +1 slot so the kernel sees a deliberately unaligned row pointer;
      // outputs are exact-size so ASan flags any tail overwrite.
      std::vector<float> y(un + 1), cb(un + 1), cr(un + 1);
      for (std::size_t i = 1; i <= un; ++i) {
        y[i] = ydist(rng);
        cb[i] = cdist(rng);
        cr[i] = cdist(rng);
      }
      std::vector<std::uint8_t> ref(un * 3), got(un * 3);
      simd::kScalarKernels.ycbcr_to_rgb_row(y.data() + 1, cb.data() + 1,
                                            cr.data() + 1, ref.data(), n);
      K.ycbcr_to_rgb_row(y.data() + 1, cb.data() + 1, cr.data() + 1, got.data(), n);
      for (std::size_t i = 0; i < un * 3; ++i) {
        ASSERT_LE(std::abs(int(got[i]) - int(ref[i])), 1)
            << "n=" << n << " byte " << i;
      }
    }
  });
}

TEST(SimdEquivalence, GrayToU8RowWithinOneLsb) {
  std::mt19937 rng{11};
  std::uniform_real_distribution<float> ydist{-40.0f, 300.0f};
  for_each_tier([&](cpu::SimdTier t) {
    const simd::KernelTable& K = simd::kernels_for(t);
    for (int n : kWidths) {
      const auto un = static_cast<std::size_t>(n);
      std::vector<float> y(un + 1);
      for (std::size_t i = 1; i <= un; ++i) y[i] = ydist(rng);
      std::vector<std::uint8_t> ref(un), got(un);
      simd::kScalarKernels.gray_to_u8_row(y.data() + 1, ref.data(), n);
      K.gray_to_u8_row(y.data() + 1, got.data(), n);
      for (std::size_t i = 0; i < un; ++i) {
        ASSERT_LE(std::abs(int(got[i]) - int(ref[i])), 1) << "n=" << n << " i=" << i;
      }
    }
  });
}

TEST(SimdEquivalence, ResizeHpassRowMatchesScalar) {
  std::mt19937 rng{13};
  std::uniform_int_distribution<int> byte{0, 255};
  std::uniform_real_distribution<float> wdist{0.0f, 1.0f};
  for_each_tier([&](cpu::SimdTier t) {
    const simd::KernelTable& K = simd::kernels_for(t);
    for (int ch : {1, 3}) {
      for (int dst_w : kWidths) {
        const int src_w = 2 * dst_w + 3;  // odd source width, general mapping
        const auto udw = static_cast<std::size_t>(dst_w);
        const std::size_t srow_bytes =
            static_cast<std::size_t>(src_w) * static_cast<std::size_t>(ch);
        // Exact-size source row: `srow_avail` is tight, so a kernel that
        // vector-loads past its stated bound trips ASan here.
        std::vector<std::uint8_t> srow(srow_bytes);
        for (auto& v : srow) v = static_cast<std::uint8_t>(byte(rng));
        std::vector<int> i0(udw), i1(udw);
        std::vector<float> w1(udw);
        std::uniform_int_distribution<int> idx{0, src_w - 2};
        for (std::size_t x = 0; x < udw; ++x) {
          i0[x] = idx(rng);
          i1[x] = i0[x] + 1;
          w1[x] = wdist(rng);
        }
        // Last destination pixel pinned to the final source pixel: the
        // resizer's edge case where p0 == p1 == last texel.
        i0[udw - 1] = i1[udw - 1] = src_w - 1;
        w1[udw - 1] = 0.0f;
        std::vector<float> ref(udw * static_cast<std::size_t>(ch));
        std::vector<float> got(udw * static_cast<std::size_t>(ch));
        simd::kScalarKernels.resize_hpass_row(srow.data(), ref.data(), i0.data(),
                                              i1.data(), w1.data(), dst_w, ch,
                                              srow_bytes);
        K.resize_hpass_row(srow.data(), got.data(), i0.data(), i1.data(),
                           w1.data(), dst_w, ch, srow_bytes);
        for (std::size_t i = 0; i < ref.size(); ++i) {
          ASSERT_NEAR(got[i], ref[i], 2e-2f)
              << "ch=" << ch << " dst_w=" << dst_w << " i=" << i;
        }
      }
    }
  });
}

TEST(SimdEquivalence, ResizeVpassRowWithinOneLsb) {
  std::mt19937 rng{17};
  std::uniform_real_distribution<float> pix{-2.0f, 257.0f};
  std::uniform_real_distribution<float> wdist{0.0f, 1.0f};
  for_each_tier([&](cpu::SimdTier t) {
    const simd::KernelTable& K = simd::kernels_for(t);
    for (int n : kWidths) {
      const auto un = static_cast<std::size_t>(n);
      std::vector<float> r0(un + 1), r1(un + 1);
      for (std::size_t i = 1; i <= un; ++i) {
        r0[i] = pix(rng);
        r1[i] = pix(rng);
      }
      for (float w : {0.0f, 1.0f, wdist(rng)}) {
        std::vector<std::uint8_t> ref(un), got(un);
        simd::kScalarKernels.resize_vpass_row(r0.data() + 1, r1.data() + 1, w,
                                              ref.data(), un);
        K.resize_vpass_row(r0.data() + 1, r1.data() + 1, w, got.data(), un);
        for (std::size_t i = 0; i < un; ++i) {
          ASSERT_LE(std::abs(int(got[i]) - int(ref[i])), 1)
              << "n=" << n << " w=" << w << " i=" << i;
        }
      }
    }
  });
}

TEST(SimdEquivalence, Upsample2RowExact) {
  std::mt19937 rng{19};
  std::uniform_real_distribution<float> pix{0.0f, 255.0f};
  for_each_tier([&](cpu::SimdTier t) {
    const simd::KernelTable& K = simd::kernels_for(t);
    for (int dst_n : kWidths) {
      const auto udn = static_cast<std::size_t>(dst_n);
      const std::size_t src_n = (udn + 1) / 2;
      std::vector<float> src(src_n + 1);
      for (std::size_t i = 1; i <= src_n; ++i) src[i] = pix(rng);
      std::vector<float> ref(udn), got(udn);
      simd::kScalarKernels.upsample2_row(src.data() + 1, ref.data(), dst_n);
      K.upsample2_row(src.data() + 1, got.data(), dst_n);
      for (std::size_t i = 0; i < udn; ++i) {
        // A pure gather/duplicate: bit-exact, no tolerance.
        ASSERT_EQ(got[i], ref[i]) << "dst_n=" << dst_n << " i=" << i;
      }
    }
  });
}

TEST(SimdEquivalence, NormalizeRgbRowBitExact) {
  std::mt19937 rng{23};
  std::uniform_int_distribution<int> byte{0, 255};
  const float mean[3] = {0.485f, 0.456f, 0.406f};
  const float inv_std[3] = {1.0f / 0.229f, 1.0f / 0.224f, 1.0f / 0.225f};
  for_each_tier([&](cpu::SimdTier t) {
    const simd::KernelTable& K = simd::kernels_for(t);
    for (int n : kWidths) {
      const auto un = static_cast<std::size_t>(n);
      std::vector<std::uint8_t> p(un * 3 + 1);
      for (std::size_t i = 1; i < p.size(); ++i) {
        p[i] = static_cast<std::uint8_t>(byte(rng));
      }
      std::vector<float> rr(un), rg(un), rb(un), gr(un), gg(un), gb(un);
      simd::kScalarKernels.normalize_rgb_row(p.data() + 1, rr.data(), rg.data(),
                                             rb.data(), un, mean, inv_std);
      K.normalize_rgb_row(p.data() + 1, gr.data(), gg.data(), gb.data(), un,
                          mean, inv_std);
      for (std::size_t i = 0; i < un; ++i) {
        // Contract in simd_kernels.h: bit-exact against the scalar formula.
        ASSERT_EQ(gr[i], rr[i]) << "n=" << n << " r[" << i << "]";
        ASSERT_EQ(gg[i], rg[i]) << "n=" << n << " g[" << i << "]";
        ASSERT_EQ(gb[i], rb[i]) << "n=" << n << " b[" << i << "]";
      }
    }
  });
}

TEST(SimdEquivalence, FullDecodeTierSweepWithinOneLsb) {
  // End-to-end: the same JPEG decoded with dispatch pinned to each available
  // tier must agree pixel-wise within ±1 with the scalar decode. Odd
  // dimensions force subsampled chroma edge blocks and resize tails.
  const Image img = make_synthetic(157, 101, Pattern::kScene, 3);
  const auto bytes = encode_jpeg(img, {.quality = 90});

  const cpu::SimdTier original = cpu::active_tier();
  cpu::set_active_tier(cpu::SimdTier::kScalar);
  const Image scalar_decoded = decode_jpeg(bytes);
  const Image scalar_resized = resize(scalar_decoded, 64, 48);
  cpu::set_active_tier(original);

  for_each_tier([&](cpu::SimdTier) {
    const Image d = decode_jpeg(bytes);
    ASSERT_EQ(d.width(), scalar_decoded.width());
    ASSERT_EQ(d.height(), scalar_decoded.height());
    const auto& a = scalar_decoded.data();
    const auto& b = d.data();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_LE(std::abs(int(a[i]) - int(b[i])), 1) << "decode byte " << i;
    }
    const Image r = resize(d, 64, 48);
    const auto& ra = scalar_resized.data();
    const auto& rb = r.data();
    ASSERT_EQ(ra.size(), rb.size());
    for (std::size_t i = 0; i < ra.size(); ++i) {
      // Decode drift of ±1 on the resize input can add ±1 more after
      // rounding; the end-to-end budget is therefore 2.
      ASSERT_LE(std::abs(int(ra[i]) - int(rb[i])), 2) << "resize byte " << i;
    }
  });
}

}  // namespace
