// Tests for the from-scratch JPEG codec and image transforms: round-trip
// quality properties across sizes/qualities/subsampling, header parsing,
// and malformed-input rejection.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdlib>
#include <iterator>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "codec/batch_preprocess.h"
#include "codec/bit_io.h"
#include "codec/cpu_features.h"
#include "codec/dct.h"
#include "codec/image.h"
#include "codec/jpeg.h"
#include "codec/jpeg_huffman.h"
#include "codec/jpeg_tables.h"
#include "codec/synthetic.h"
#include "codec/transform.h"
#include "sim/rng.h"
#include "simd_tiers.h"

namespace serve::codec {
namespace {

using tiers::for_each_tier;

TEST(Image, AccessorsAndBounds) {
  Image img{4, 3, 3};
  img.at(3, 2, 2) = 77;
  EXPECT_EQ(img.at(3, 2, 2), 77);
  EXPECT_THROW((void)img.at(4, 0, 0), std::out_of_range);
  EXPECT_THROW((void)img.at(0, 3, 0), std::out_of_range);
  EXPECT_THROW((void)img.at(0, 0, 3), std::out_of_range);
  EXPECT_EQ(img.at_clamped(-5, 10, 2), img.at(0, 2, 2));
}

TEST(Image, RejectsBadShapes) {
  EXPECT_THROW((Image{0, 4, 3}), std::invalid_argument);
  EXPECT_THROW((Image{4, 4, 2}), std::invalid_argument);
}

TEST(Image, PsnrIdenticalIsInfinite) {
  const Image img = make_synthetic(16, 16, Pattern::kGradient, 1);
  EXPECT_TRUE(std::isinf(psnr(img, img)));
  EXPECT_DOUBLE_EQ(mean_abs_diff(img, img), 0.0);
}

TEST(Image, PsnrOfKnownErrorMatchesFormula) {
  Image a{8, 4, 3};
  Image b{8, 4, 3};
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    a.data()[i] = 100;
    b.data()[i] = i % 2 == 0 ? 100 : 110;  // half the samples off by 10: MSE 50
  }
  EXPECT_NEAR(psnr(a, b), 10.0 * std::log10(255.0 * 255.0 / 50.0), 1e-9);
  EXPECT_DOUBLE_EQ(psnr(b, a), psnr(a, b));
  EXPECT_DOUBLE_EQ(mean_abs_diff(a, b), 5.0);
  EXPECT_THROW((void)psnr(a, Image{8, 4, 1}), std::invalid_argument);
}

TEST(JpegTables, QualityScalingMonotoneAndClamped) {
  EXPECT_EQ(jpeg::scale_quant(16, 100), 1u);
  EXPECT_GE(jpeg::scale_quant(16, 1), 255u);
  EXPECT_LE(jpeg::scale_quant(255, 1), 255u);
  for (int q = 10; q < 100; q += 10) {
    EXPECT_GE(jpeg::scale_quant(32, q), jpeg::scale_quant(32, q + 5));
  }
}

TEST(Jpeg, HighQualityRoundTripIsClose) {
  const Image img = make_synthetic(64, 48, Pattern::kScene, 42);
  const auto bytes = encode_jpeg(img, {.quality = 95, .subsampling = Subsampling::k444});
  const Image back = decode_jpeg(bytes);
  ASSERT_EQ(back.width(), img.width());
  ASSERT_EQ(back.height(), img.height());
  EXPECT_GT(psnr(img, back), 38.0);
}

TEST(Jpeg, LowerQualityIsSmallerAndWorse) {
  const Image img = make_synthetic(128, 96, Pattern::kTexture, 3);
  const auto hi = encode_jpeg(img, {.quality = 92});
  const auto lo = encode_jpeg(img, {.quality = 25});
  EXPECT_LT(lo.size(), hi.size());
  EXPECT_LT(psnr(img, decode_jpeg(lo)), psnr(img, decode_jpeg(hi)));
}

TEST(Jpeg, GrayscaleRoundTrip) {
  Image gray{40, 40, 1};
  for (int y = 0; y < 40; ++y) {
    for (int x = 0; x < 40; ++x) gray.at(x, y, 0) = static_cast<std::uint8_t>((x * 5 + y) & 0xFF);
  }
  const auto bytes = encode_jpeg(gray, {.quality = 90});
  const Image back = decode_jpeg(bytes);
  EXPECT_EQ(back.channels(), 1);
  EXPECT_GT(psnr(gray, back), 30.0);
}

TEST(Jpeg, RestartMarkersRoundTrip) {
  const Image img = make_synthetic(96, 64, Pattern::kScene, 9);
  const auto bytes = encode_jpeg(img, {.quality = 85, .restart_interval_mcus = 3});
  const Image back = decode_jpeg(bytes);
  const auto no_rst = encode_jpeg(img, {.quality = 85});
  const Image back2 = decode_jpeg(no_rst);
  // Restart markers must not change decoded content.
  EXPECT_EQ(back.data(), back2.data());
}

TEST(Jpeg, PeekInfoMatchesEncodeOptions) {
  const Image img = make_synthetic(50, 30, Pattern::kGradient, 1);
  const auto b420 = encode_jpeg(img, {.subsampling = Subsampling::k420});
  const auto info420 = peek_jpeg_info(b420);
  EXPECT_EQ(info420.width, 50);
  EXPECT_EQ(info420.height, 30);
  EXPECT_EQ(info420.components, 3);
  EXPECT_EQ(info420.subsampling, Subsampling::k420);
  const auto b444 = encode_jpeg(img, {.subsampling = Subsampling::k444});
  EXPECT_EQ(peek_jpeg_info(b444).subsampling, Subsampling::k444);
}

TEST(Jpeg, OddDimensionsRoundTrip) {
  // Dimensions not divisible by the MCU size exercise edge padding.
  for (auto [w, h] : {std::pair{17, 9}, {31, 33}, {8, 8}, {1, 1}, {15, 16}}) {
    const Image img = make_synthetic(w, h, Pattern::kScene, 11);
    const Image back = decode_jpeg(encode_jpeg(img, {.quality = 90}));
    ASSERT_EQ(back.width(), w);
    ASSERT_EQ(back.height(), h);
    EXPECT_GT(psnr(img, back), 24.0) << w << "x" << h;
  }
}

TEST(Jpeg, EncodeRejectsWidthPastSixteenBits) {
  // SOF0 holds the width in 16 bits: 65552 would be written as 16.
  EXPECT_THROW((void)encode_jpeg(Image{65552, 8, 1}), std::invalid_argument);
  EXPECT_EQ(peek_jpeg_info(encode_jpeg(Image{65535, 8, 1})).width, 65535);
}

TEST(Jpeg, EncodeRejectsHeightPastSixteenBits) {
  EXPECT_THROW((void)encode_jpeg(Image{8, 65552, 1}), std::invalid_argument);
  EXPECT_EQ(peek_jpeg_info(encode_jpeg(Image{8, 65535, 1})).height, 65535);
}

TEST(Jpeg, EncodeRejectsRestartIntervalPastSixteenBits) {
  // DRI holds the interval in 16 bits: 65537 would be written as 1.
  const Image img = make_synthetic(32, 32, Pattern::kScene, 4);
  EXPECT_THROW((void)encode_jpeg(img, {.restart_interval_mcus = 65537}), std::invalid_argument);
  EXPECT_EQ(decode_jpeg(encode_jpeg(img, {.restart_interval_mcus = 65535})),
            decode_jpeg(encode_jpeg(img)));
}

TEST(Jpeg, RejectsGarbage) {
  const std::vector<std::uint8_t> garbage{0x00, 0x01, 0x02, 0x03};
  EXPECT_THROW(decode_jpeg(garbage), jpeg::CodecError);
}

TEST(Jpeg, RejectsTruncatedStream) {
  const Image img = make_synthetic(64, 64, Pattern::kScene, 2);
  auto bytes = encode_jpeg(img);
  bytes.resize(bytes.size() / 2);
  EXPECT_THROW(decode_jpeg(bytes), jpeg::CodecError);
}

TEST(Jpeg, RejectsTruncatedHeader) {
  const Image img = make_synthetic(32, 32, Pattern::kGradient, 2);
  auto bytes = encode_jpeg(img);
  bytes.resize(20);  // inside APP0
  EXPECT_THROW((void)peek_jpeg_info(bytes), jpeg::CodecError);
}

TEST(Jpeg, RejectsCorruptEntropyData) {
  const Image img = make_synthetic(64, 64, Pattern::kTexture, 8);
  auto bytes = encode_jpeg(img);
  // Inject an illegal marker into the entropy segment.
  const std::size_t mid = bytes.size() - bytes.size() / 4;
  bytes[mid] = 0xFF;
  bytes[mid + 1] = 0xC0;
  EXPECT_THROW(decode_jpeg(bytes), jpeg::CodecError);
}

TEST(Jpeg, RejectsProgressive) {
  const Image img = make_synthetic(16, 16, Pattern::kGradient, 1);
  auto bytes = encode_jpeg(img);
  // Rewrite SOF0 marker to SOF2 (progressive).
  for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
    if (bytes[i] == 0xFF && bytes[i + 1] == 0xC0) {
      bytes[i + 1] = 0xC2;
      break;
    }
  }
  EXPECT_THROW(decode_jpeg(bytes), jpeg::CodecError);
}

TEST(Jpeg, CompressionRatioIsRealistic) {
  // The paper's medium image: 500x375 at 121 kB => ~4.6x compression vs raw.
  const Image img = make_synthetic(500, 375, Pattern::kScene, 21);
  const auto bytes = encode_jpeg(img, {.quality = 85});
  const double ratio = static_cast<double>(img.data().size()) / static_cast<double>(bytes.size());
  EXPECT_GT(ratio, 3.0);
  EXPECT_LT(ratio, 60.0);
}

// Property sweep: round-trip PSNR is acceptable across the full option grid.
using RoundTripParam = std::tuple<int, int, int, Subsampling, Pattern>;

class JpegRoundTripTest : public ::testing::TestWithParam<RoundTripParam> {};

TEST_P(JpegRoundTripTest, PsnrAboveFloor) {
  const auto [w, h, quality, sub, pattern] = GetParam();
  const Image img = make_synthetic(w, h, pattern, 77);
  const auto bytes = encode_jpeg(img, {.quality = quality, .subsampling = sub});
  const Image back = decode_jpeg(bytes);
  ASSERT_EQ(back.width(), w);
  ASSERT_EQ(back.height(), h);
  // Floor depends on quality; 4:2:0 chroma loss and checkers are the worst
  // cases (tiny images amplify the chroma subsampling error).
  double floor = 27.0;
  if (quality < 85) floor = 14.0;
  else if (pattern == Pattern::kCheckers) floor = 15.0;
  else if (sub == Subsampling::k420) floor = 24.0;
  EXPECT_GT(psnr(img, back), floor);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, JpegRoundTripTest,
    ::testing::Combine(::testing::Values(24, 60, 100), ::testing::Values(24, 70),
                       ::testing::Values(50, 85, 95),
                       ::testing::Values(Subsampling::k444, Subsampling::k420),
                       ::testing::Values(Pattern::kGradient, Pattern::kScene,
                                         Pattern::kCheckers)));

// Property sweep: restart markers change only the entropy-coded stream. For
// every interval, component layout and table choice the stream decodes to the
// pixels of the stream without restarts, and its scan carries one RSTn marker
// per interval boundary, numbered modulo 8.
enum class Layout { kGray, k444, k422, k420 };

class JpegRestartTest : public ::testing::TestWithParam<std::tuple<int, Layout, bool>> {};

TEST_P(JpegRestartTest, MarkersChangeOnlyTheEntropyStream) {
  const auto [interval, layout, optimize] = GetParam();
  constexpr int kW = 97, kH = 61;  // partial MCUs on both edges
  Image img = make_synthetic(kW, kH, Pattern::kScene, 21);
  if (layout == Layout::kGray) {
    Image gray{kW, kH, 1};
    for (std::size_t i = 0; i < gray.data().size(); ++i) gray.data()[i] = img.data()[3 * i + 1];
    img = gray;
  }
  const Subsampling sub = layout == Layout::k422   ? Subsampling::k422
                          : layout == Layout::k420 ? Subsampling::k420
                                                   : Subsampling::k444;
  JpegEncodeOptions opts{.quality = 85, .subsampling = sub, .optimize_huffman = optimize};
  const auto plain = encode_jpeg(img, opts);
  opts.restart_interval_mcus = interval;
  const auto bytes = encode_jpeg(img, opts);

  const JpegInfo info = peek_jpeg_info(bytes);
  EXPECT_EQ(info.components, img.channels());
  EXPECT_EQ(info.subsampling, sub);
  EXPECT_EQ(decode_jpeg(bytes).data(), decode_jpeg(plain).data());

  // Scan the entropy data after the SOS segment; stuffed 0xFF bytes are
  // followed by 0x00, so every 0xFF 0xD0..0xD7 pair is a restart marker.
  std::size_t pos = 2;
  bool sos = false;
  for (; !sos; pos += 2 + (static_cast<std::size_t>(bytes[pos + 2]) << 8 | bytes[pos + 3])) {
    sos = bytes[pos + 1] == 0xDA;
  }
  std::vector<int> markers;
  for (; pos + 1 < bytes.size(); ++pos) {
    if (bytes[pos] == 0xFF && bytes[pos + 1] >= 0xD0 && bytes[pos + 1] <= 0xD7) {
      markers.push_back(bytes[pos + 1] - 0xD0);
    }
  }
  const int mcu_w = sub == Subsampling::k444 ? 8 : 16;
  const int mcu_h = sub == Subsampling::k420 ? 16 : 8;
  const int mcus = ((kW + mcu_w - 1) / mcu_w) * ((kH + mcu_h - 1) / mcu_h);
  ASSERT_EQ(markers.size(), static_cast<std::size_t>((mcus + interval - 1) / interval - 1));
  for (std::size_t i = 0; i < markers.size(); ++i) EXPECT_EQ(markers[i], static_cast<int>(i % 8));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, JpegRestartTest,
    ::testing::Combine(::testing::Values(1, 5, 64),
                       ::testing::Values(Layout::kGray, Layout::k444, Layout::k422,
                                         Layout::k420),
                       ::testing::Bool()));


TEST(Jpeg, Subsampling422RoundTrip) {
  const Image img = make_synthetic(90, 62, Pattern::kScene, 31);
  const auto bytes = encode_jpeg(img, {.quality = 90, .subsampling = Subsampling::k422});
  EXPECT_EQ(peek_jpeg_info(bytes).subsampling, Subsampling::k422);
  const Image back = decode_jpeg(bytes);
  ASSERT_EQ(back.width(), img.width());
  EXPECT_GT(psnr(img, back), 28.0);
  // 4:2:2 halves only horizontal chroma: quality sits between 4:4:4 and 4:2:0.
  const auto b444 = encode_jpeg(img, {.quality = 90, .subsampling = Subsampling::k444});
  const auto b420 = encode_jpeg(img, {.quality = 90, .subsampling = Subsampling::k420});
  EXPECT_LT(bytes.size(), b444.size());
  EXPECT_GT(bytes.size(), b420.size());
}

TEST(Jpeg, OptimizedHuffmanShrinksFileSamePixels) {
  const Image img = make_synthetic(160, 120, Pattern::kScene, 55);
  JpegEncodeOptions std_opts{.quality = 85};
  JpegEncodeOptions opt_opts{.quality = 85, .optimize_huffman = true};
  const auto std_bytes = encode_jpeg(img, std_opts);
  const auto opt_bytes = encode_jpeg(img, opt_opts);
  EXPECT_LT(opt_bytes.size(), std_bytes.size());
  // The quantized coefficients are identical, so decoded pixels match bit
  // for bit — only the entropy coding differs.
  EXPECT_EQ(decode_jpeg(opt_bytes).data(), decode_jpeg(std_bytes).data());
}

TEST(Jpeg, OptimizedHuffmanGrayscaleAndRestarts) {
  Image gray{48, 48, 1};
  for (int y = 0; y < 48; ++y) {
    for (int x = 0; x < 48; ++x) gray.at(x, y, 0) = static_cast<std::uint8_t>((x * x + y) & 0xFF);
  }
  const auto bytes =
      encode_jpeg(gray, {.quality = 80, .restart_interval_mcus = 2, .optimize_huffman = true});
  const Image back = decode_jpeg(bytes);
  EXPECT_GT(psnr(gray, back), 25.0);
}

// Property: optimized Huffman never loses to the Annex K defaults by more
// than the extra DHT header bytes, across patterns and qualities.
class OptimizedHuffmanTest
    : public ::testing::TestWithParam<std::tuple<int, Pattern, Subsampling>> {};

TEST_P(OptimizedHuffmanTest, NeverLargerThanDefaultPlusHeaders) {
  const auto [quality, pattern, sub] = GetParam();
  const Image img = make_synthetic(96, 64, pattern, 123);
  const auto def = encode_jpeg(img, {.quality = quality, .subsampling = sub});
  const auto opt =
      encode_jpeg(img, {.quality = quality, .subsampling = sub, .optimize_huffman = true});
  EXPECT_LE(opt.size(), def.size() + 64) << "optimal tables should never cost meaningful size";
  EXPECT_EQ(decode_jpeg(opt).data(), decode_jpeg(def).data());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, OptimizedHuffmanTest,
    ::testing::Combine(::testing::Values(40, 85, 95),
                       ::testing::Values(Pattern::kGradient, Pattern::kScene, Pattern::kTexture,
                                         Pattern::kCheckers),
                       ::testing::Values(Subsampling::k444, Subsampling::k420)));

// Robustness fuzz: random single-byte corruptions of a valid stream must
// either decode (possibly to different pixels) or throw CodecError — never
// crash or hang. Exercises the decoder's bounds discipline.
class DecoderFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(DecoderFuzzTest, CorruptedStreamsNeverCrash) {
  const Image img = make_synthetic(48, 40, Pattern::kScene, 99);
  const auto clean = encode_jpeg(img, {.quality = 80});
  sim::Rng rng{static_cast<std::uint64_t>(GetParam())};
  for (int trial = 0; trial < 200; ++trial) {
    auto bytes = clean;
    const auto pos = static_cast<std::size_t>(
        rng.uniform_int(2, static_cast<std::int64_t>(bytes.size()) - 1));
    bytes[pos] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    try {
      const Image out = decode_jpeg(bytes);
      EXPECT_GT(out.width(), 0);  // decoded something structurally valid
    } catch (const jpeg::CodecError&) {
      // rejected cleanly - acceptable
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecoderFuzzTest, ::testing::Range(1, 7));

TEST(Resize, IdentityIsExactForBilinear) {
  const Image img = make_synthetic(33, 17, Pattern::kScene, 4);
  const Image same = resize(img, 33, 17);
  EXPECT_EQ(img, same);
}

TEST(Resize, DownUpRetainsStructure) {
  const Image img = make_synthetic(128, 128, Pattern::kGradient, 1);
  const Image down = resize(img, 32, 32);
  const Image up = resize(down, 128, 128);
  EXPECT_GT(psnr(img, up), 25.0);  // gradients survive resampling
}

TEST(Resize, RejectsBadArgs) {
  const Image img = make_synthetic(8, 8, Pattern::kGradient, 1);
  EXPECT_THROW(resize(img, 0, 8), std::invalid_argument);
  EXPECT_THROW(resize(Image{}, 8, 8), std::invalid_argument);
}

TEST(Normalize, ValuesMatchFormula) {
  Image img{2, 1, 3};
  img.at(0, 0, 0) = 255;
  img.at(1, 0, 2) = 128;
  const auto t = normalize_chw(img);
  ASSERT_EQ(t.size(), 6u);
  EXPECT_NEAR(t[0], (1.0f - kImageNetMean[0]) / kImageNetStd[0], 1e-5);
  EXPECT_NEAR(t[1], (0.0f - kImageNetMean[0]) / kImageNetStd[0], 1e-5);
  EXPECT_NEAR(t[5], (128.0f / 255.0f - kImageNetMean[2]) / kImageNetStd[2], 1e-5);
}

TEST(Normalize, RejectsGrayscaleAndBadStd) {
  Image gray{2, 2, 1};
  EXPECT_THROW(normalize_chw(gray), std::invalid_argument);
  Image rgb{2, 2, 3};
  EXPECT_THROW(normalize_chw(rgb, kImageNetMean, {1.0f, 0.0f, 1.0f}), std::invalid_argument);
}

TEST(Normalize, NanStddevThrowsSeriallyAndInThePool) {
  // NaN fails every comparison, so a `<= 0` check lets it through and the
  // tensor comes back all NaN.
  const std::array<float, 3> nan_std{1.0f, std::nanf(""), 1.0f};
  const Image rgb = make_synthetic(40, 30, Pattern::kScene, 5);
  const auto message_of = [](auto&& fn) -> std::string {
    try {
      (void)fn();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "no exception";
  };
  const std::string want = "normalize_chw: stddev must be positive";
  EXPECT_EQ(message_of([&] { return normalize_chw(rgb, kImageNetMean, nan_std); }), want);
  const std::vector<std::vector<std::uint8_t>> jpegs{encode_jpeg(rgb)};
  BatchPreprocessOptions opts;
  opts.stddev = nan_std;
  for (int threads : {1, 2}) {  // one image: run inline, or pipelined on two threads
    BatchPreprocessor pool{threads};
    EXPECT_EQ(message_of([&] { return pool.run(jpegs, opts); }), want) << "threads=" << threads;
  }
}

TEST(CenterCrop, SquareFromRectangle) {
  const Image img = make_synthetic(60, 40, Pattern::kGradient, 1);
  const Image crop = center_crop(img, 40);
  EXPECT_EQ(crop.width(), 40);
  EXPECT_EQ(crop.height(), 40);
  EXPECT_EQ(crop.at(0, 0, 0), img.at(10, 0, 0));
}

TEST(Synthetic, DeterministicPerSeed) {
  const Image a = make_synthetic(32, 32, Pattern::kTexture, 5);
  const Image b = make_synthetic(32, 32, Pattern::kTexture, 5);
  const Image c = make_synthetic(32, 32, Pattern::kTexture, 6);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

// --- Fast-path equivalence: every optimized kernel against its reference ---

TEST(DctEquivalence, FastFdctMatchesReferenceOnRandomBlocks) {
  sim::Rng rng{99};
  double max_err = 0.0;
  for (int trial = 0; trial < 200; ++trial) {
    float in[64], fast[64], ref[64];
    for (auto& v : in) v = static_cast<float>(rng.uniform_int(0, 255)) - 128.0f;
    jpeg::fdct8x8(in, fast);
    jpeg::fdct8x8_ref(in, ref);
    for (int i = 0; i < 64; ++i) {
      max_err = std::max(max_err, std::abs(static_cast<double>(fast[i]) - ref[i]));
    }
  }
  // AAN and the basis-matrix DCT compute the same transform; the gap is pure
  // float rounding, far below one quantizer step.
  EXPECT_LT(max_err, 0.01);
}

TEST(DctEquivalence, FastIdctMatchesReferenceOnRandomBlocks) {
  sim::Rng rng{101};
  double max_err = 0.0;
  for (int trial = 0; trial < 200; ++trial) {
    float in[64], fast[64], ref[64];
    // Realistic dequantized-coefficient magnitudes (DC large, AC smaller).
    for (auto& v : in) v = static_cast<float>(rng.uniform_int(-1024, 1024));
    jpeg::idct8x8(in, fast);
    jpeg::idct8x8_ref(in, ref);
    for (int i = 0; i < 64; ++i) {
      max_err = std::max(max_err, std::abs(static_cast<double>(fast[i]) - ref[i]));
    }
  }
  EXPECT_LT(max_err, 0.01);
}

TEST(DctEquivalence, FastRoundTripReconstructs) {
  sim::Rng rng{7};
  float in[64], freq[64], out[64];
  for (auto& v : in) v = static_cast<float>(rng.uniform_int(0, 255)) - 128.0f;
  jpeg::fdct8x8(in, freq);
  jpeg::idct8x8(freq, out);
  for (int i = 0; i < 64; ++i) EXPECT_NEAR(out[i], in[i], 0.01f);
}

TEST(DctEquivalence, ScaledIdctMatchesPrescaledInput) {
  // idct8x8_scaled(x * prescale) == idct8x8(x): the decoder folds the
  // prescale into its dequantization tables.
  sim::Rng rng{31};
  const auto& pre = jpeg::idct_prescale();
  float in[64], scaled_in[64], a[64], b[64];
  for (int i = 0; i < 64; ++i) {
    in[i] = static_cast<float>(rng.uniform_int(-512, 512));
    scaled_in[i] = in[i] * pre[static_cast<std::size_t>(i)];
  }
  jpeg::idct8x8(in, a);
  jpeg::idct8x8_scaled(scaled_in, b);
  for (int i = 0; i < 64; ++i) EXPECT_NEAR(a[i], b[i], 0.01f);
}

TEST(DecodeEquivalence, FastIdctWithinOneLsbOfReference) {
  // Full decode with the AAN fast IDCT vs the basis-matrix reference IDCT:
  // the entropy/dequant path is bit-identical, so pixels may differ only
  // when the exact value sits within float error of a rounding boundary —
  // never by more than 1 LSB.
  for (auto sub : {Subsampling::k444, Subsampling::k422, Subsampling::k420}) {
    for (auto [w, h] : {std::pair{96, 64}, {31, 33}}) {
      const Image img = make_synthetic(w, h, Pattern::kScene, 17);
      const auto bytes = encode_jpeg(img, {.quality = 85, .subsampling = sub});
      const Image fast = decode_jpeg(bytes);
      const Image ref = decode_jpeg(bytes, {.use_reference_idct = true});
      ASSERT_EQ(fast.data().size(), ref.data().size());
      int max_diff = 0;
      for (std::size_t i = 0; i < fast.data().size(); ++i) {
        max_diff = std::max(max_diff, std::abs(static_cast<int>(fast.data()[i]) -
                                               static_cast<int>(ref.data()[i])));
      }
      EXPECT_LE(max_diff, 1) << w << "x" << h;
    }
  }
}

TEST(ResizeEquivalence, TwoPassBilinearWithinOneLsbOfReference) {
  for (auto [sw, sh, dw, dh] : {std::tuple{500, 375, 224, 224},
                                {64, 48, 224, 224},     // upscale
                                {357, 289, 89, 53},     // odd geometry downscale
                                {224, 224, 224, 224}})  // identity
  {
    const Image img = make_synthetic(sw, sh, Pattern::kScene, 23);
    const Image fast = resize(img, dw, dh);
    const Image ref = resize_reference(img, dw, dh);
    ASSERT_EQ(fast.data().size(), ref.data().size());
    int max_diff = 0;
    for (std::size_t i = 0; i < fast.data().size(); ++i) {
      max_diff = std::max(max_diff, std::abs(static_cast<int>(fast.data()[i]) -
                                             static_cast<int>(ref.data()[i])));
    }
    EXPECT_LE(max_diff, 1) << sw << "x" << sh << " -> " << dw << "x" << dh;
  }
}

TEST(NormalizeEquivalence, LutIsBitExactAgainstInlineFormula) {
  const Image img = make_synthetic(53, 41, Pattern::kScene, 12);
  const auto t = normalize_chw(img);
  const auto plane = static_cast<std::size_t>(53 * 41);
  ASSERT_EQ(t.size(), plane * 3);
  for (int y = 0; y < img.height(); ++y) {
    for (int x = 0; x < img.width(); ++x) {
      const auto i = static_cast<std::size_t>(y) * 53 + static_cast<std::size_t>(x);
      for (std::size_t c = 0; c < 3; ++c) {
        // Same operation order as the kernel (multiply by the reciprocal,
        // not divide) so "bit-exact" is well defined.
        const float inv = 1.0f / kImageNetStd[c];
        const float expect = (static_cast<float>(img.at(x, y, static_cast<int>(c))) / 255.0f -
                              kImageNetMean[c]) * inv;
        ASSERT_EQ(t[c * plane + i], expect) << x << "," << y << "," << c;
      }
    }
  }
}

TEST(CenterCropEquivalence, RowMemcpyMatchesNaiveLoops) {
  const Image img = make_synthetic(61, 47, Pattern::kScene, 6);
  const int side = 32;
  const Image crop = center_crop(img, side);
  const int x0 = (img.width() - side) / 2;
  const int y0 = (img.height() - side) / 2;
  for (int y = 0; y < side; ++y) {
    for (int x = 0; x < side; ++x) {
      for (int c = 0; c < 3; ++c) {
        ASSERT_EQ(crop.at(x, y, c), img.at(x0 + x, y0 + y, c)) << x << "," << y;
      }
    }
  }
}

// --- Bit reader / Huffman table malformed-stream behaviour ---

TEST(BitReader, BulkRefillReadsBitsMsbFirst) {
  const std::uint8_t data[] = {0xA5, 0x3C, 0x0F, 0xF0, 0x81, 0x42, 0x24, 0x18, 0x99, 0x66};
  jpeg::BitReader br(data, sizeof(data));
  EXPECT_EQ(br.get_bits(4), 0xAu);
  EXPECT_EQ(br.get_bits(8), 0x53u);
  EXPECT_EQ(br.get_bit(), 1u);
  EXPECT_EQ(br.get_bits(3), 0x4u);  // remaining of 0x3C
  // Crosses the first 8-byte bulk refill boundary.
  EXPECT_EQ(br.get_bits(32), 0x0FF08142u);
  EXPECT_EQ(br.get_bits(32), 0x24189966u);
}

TEST(BitReader, StuffedByteAtRefillBoundaryIsUnstuffed) {
  // 0xFF00 pairs placed so one straddles the first bulk refill (which stops
  // after the accumulator holds > 56 bits): bytes 6..8 are FF 00 FF 00.
  const std::uint8_t data[] = {0x01, 0x02, 0x03, 0x04, 0x05, 0x06,
                               0xFF, 0x00, 0xFF, 0x00, 0x07, 0x08};
  jpeg::BitReader br(data, sizeof(data));
  for (std::uint32_t expect : {0x01u, 0x02u, 0x03u, 0x04u, 0x05u, 0x06u,
                               0xFFu, 0xFFu, 0x07u, 0x08u}) {
    EXPECT_EQ(br.get_bits(8), expect);
  }
}

TEST(BitReader, PeekPastEndIsZeroButConsumeThrows) {
  const std::uint8_t data[] = {0xAB, 0xCD};
  jpeg::BitReader br(data, sizeof(data));
  EXPECT_EQ(br.get_bits(16), 0xABCDu);
  // Peeks beyond the segment read zero padding without throwing...
  EXPECT_EQ(br.peek(16), 0u);
  // ...but consuming into the padding reports exhaustion.
  EXPECT_THROW(br.consume(1), jpeg::CodecError);
}

TEST(BitReader, TruncatedRefillThrowsOnConsume) {
  const std::uint8_t data[] = {0x12, 0x34, 0x56};
  jpeg::BitReader br(data, sizeof(data));
  EXPECT_EQ(br.get_bits(24), 0x123456u);
  EXPECT_THROW((void)br.get_bits(8), jpeg::CodecError);
}

TEST(BitReader, StopsAtMarkerAndReportsPosition) {
  const std::uint8_t data[] = {0x12, 0xFF, 0xD9};  // EOI after one data byte
  jpeg::BitReader br(data, sizeof(data));
  EXPECT_EQ(br.get_bits(8), 0x12u);
  EXPECT_EQ(br.peek(8), 0u);          // zero padding, not marker bytes
  EXPECT_EQ(br.position(), 1u);       // refill never advanced past the 0xFF
  EXPECT_THROW(br.consume(8), jpeg::CodecError);
}

TEST(BitReader, DanglingFfThrowsOnConsume) {
  const std::uint8_t data[] = {0x12, 0xFF};
  jpeg::BitReader br(data, sizeof(data));
  EXPECT_EQ(br.get_bits(8), 0x12u);
  EXPECT_THROW((void)br.get_bits(8), jpeg::CodecError);
}

TEST(BitReader, RestartMarkerResetsStream) {
  const std::uint8_t data[] = {0xAB, 0xFF, 0xD3, 0xCD};
  jpeg::BitReader br(data, sizeof(data));
  EXPECT_EQ(br.get_bits(8), 0xABu);
  (void)br.peek(8);  // force a refill that stops at the marker
  EXPECT_EQ(br.consume_restart_marker(), 3);
  EXPECT_EQ(br.get_bits(8), 0xCDu);
}

TEST(BitWriter, RoundTripsThroughReaderWithStuffing) {
  std::vector<std::uint8_t> out;
  jpeg::BitWriter bw(out);
  sim::Rng rng{55};
  std::vector<std::pair<std::uint32_t, int>> writes;
  for (int i = 0; i < 500; ++i) {
    const int count = static_cast<int>(rng.uniform_int(1, 24));
    // Bias toward all-ones values so 0xFF stuffing triggers frequently.
    std::uint32_t value = static_cast<std::uint32_t>(
        rng.uniform_int(0, (1ll << count) - 1));
    if (rng.uniform_int(0, 3) == 0) value = (1u << count) - 1u;
    writes.emplace_back(value, count);
    bw.put_bits(value, count);
  }
  bw.finish();
  ASSERT_FALSE(out.empty());
  jpeg::BitReader br(out.data(), out.size());
  for (const auto& [value, count] : writes) {
    ASSERT_EQ(br.get_bits(count), value & ((1u << count) - 1u));
  }
}

TEST(HuffmanTable, DecodesKnownSpecBitExact) {
  // Canonical code book: one code each of lengths 1..3 => 0, 10, 110.
  std::uint8_t bits[16] = {1, 1, 1};
  const std::uint8_t vals[] = {5, 9, 17};
  jpeg::DecodeTable table;
  table.build(bits, vals, 3);
  std::vector<std::uint8_t> stream;
  jpeg::BitWriter bw(stream);
  bw.put_bits(0b0, 1);    // 5
  bw.put_bits(0b10, 2);   // 9
  bw.put_bits(0b110, 3);  // 17
  bw.put_bits(0b0, 1);    // 5
  bw.finish();
  jpeg::BitReader br(stream.data(), stream.size());
  EXPECT_EQ(table.decode(br), 5);
  EXPECT_EQ(table.decode(br), 9);
  EXPECT_EQ(table.decode(br), 17);
  EXPECT_EQ(table.decode(br), 5);
}

TEST(HuffmanTable, SlowPathDecodesCodesLongerThanLookupWindow) {
  // One code per length 1..12; length-12's canonical code is 2^12 - 2
  // (eleven 1-bits then 0), beyond the 9-bit primary window.
  std::uint8_t bits[16] = {1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1};
  std::uint8_t vals[12];
  for (int i = 0; i < 12; ++i) vals[i] = static_cast<std::uint8_t>(i + 1);
  jpeg::DecodeTable table;
  table.build(bits, vals, 12);
  std::vector<std::uint8_t> stream;
  jpeg::BitWriter bw(stream);
  bw.put_bits((1u << 12) - 2u, 12);  // length-12 code -> symbol 12
  bw.put_bits(0, 1);                 // length-1 code -> symbol 1
  bw.finish();
  jpeg::BitReader br(stream.data(), stream.size());
  EXPECT_EQ(table.decode(br), 12);
  EXPECT_EQ(table.decode(br), 1);
}

TEST(HuffmanTable, OverLongInvalidCodeThrows) {
  std::uint8_t bits[16] = {1, 1, 1};  // codes 0, 10, 110; 111... is unassigned
  const std::uint8_t vals[] = {5, 9, 17};
  jpeg::DecodeTable table;
  table.build(bits, vals, 3);
  const std::uint8_t stream[] = {0xFF, 0x00, 0xFF, 0x00};  // stuffed all-ones
  jpeg::BitReader br(stream, sizeof(stream));
  EXPECT_THROW((void)table.decode(br), jpeg::CodecError);
}

TEST(HuffmanTable, InvalidDhtCountsThrowInBuild) {
  // Three 1-bit codes cannot exist in a binary prefix code.
  std::uint8_t bits[16] = {3};
  const std::uint8_t vals[] = {1, 2, 3};
  jpeg::DecodeTable table;
  EXPECT_THROW(table.build(bits, vals, 3), jpeg::CodecError);
}

/// The AC tables carried in the DHT segments of an encoder-written stream.
std::vector<jpeg::DecodeTable> ac_tables_of(const std::vector<std::uint8_t>& jpg) {
  std::vector<jpeg::DecodeTable> tables;
  for (std::size_t i = 2; i + 4 <= jpg.size() && jpg[i + 1] != 0xDA;) {
    const std::size_t end = i + 2 + (static_cast<std::size_t>(jpg[i + 2]) << 8 | jpg[i + 3]);
    for (std::size_t p = i + 4; jpg[i + 1] == 0xC4 && p < end;) {
      int count = 0;
      for (int l = 0; l < 16; ++l) count += jpg[p + 1 + static_cast<std::size_t>(l)];
      if (jpg[p] >> 4 == 1) {
        tables.emplace_back();
        tables.back().build(&jpg[p + 1], &jpg[p + 17], count);
        tables.back().build_fast_ac();
      }
      p += 17 + static_cast<std::size_t>(count);
    }
    i = end;
  }
  return tables;
}

TEST(HuffmanTable, FastAcTableMatchesLookupAndExtend) {
  // Every 9-bit window of the Annex K AC tables and of two optimized ones:
  // a fast entry must consume exactly the bits, and give the run and value,
  // that the symbol lookup plus a separate magnitude read give; a zero entry
  // must mean the window does not hold both.
  std::vector<jpeg::DecodeTable> tables(2);
  tables[0].build(jpeg::kLumaAc.bits.data(), jpeg::kLumaAc.vals.data(), jpeg::kLumaAc.val_count);
  tables[1].build(jpeg::kChromaAc.bits.data(), jpeg::kChromaAc.vals.data(),
                  jpeg::kChromaAc.val_count);
  for (auto& t : tables) t.build_fast_ac();
  const auto optimized = ac_tables_of(encode_jpeg(make_synthetic(97, 61, Pattern::kTexture, 5),
                                                  {.quality = 90, .optimize_huffman = true}));
  ASSERT_EQ(optimized.size(), 2u);
  tables.insert(tables.end(), optimized.begin(), optimized.end());
  for (std::size_t t = 0; t < tables.size(); ++t) {
    const auto& table = tables[t];
    int hits = 0;
    for (std::uint32_t w = 0; w < (1u << jpeg::kHuffLookupBits); ++w) {
      SCOPED_TRACE("table " + std::to_string(t) + " window " + std::to_string(w));
      const std::int32_t fast = table.fast_ac[w];
      const std::uint16_t entry = table.lookup[w];
      if (entry == 0) {
        EXPECT_EQ(fast, 0);
        continue;
      }
      // The window, then 1-bits.
      std::vector<std::uint8_t> stream;
      jpeg::BitWriter bw(stream);
      bw.put_bits(w, jpeg::kHuffLookupBits);
      bw.put_bits(0xFFFF, 16);
      bw.finish();
      jpeg::BitReader br(stream.data(), stream.size());
      const std::uint8_t rs = table.decode(br);
      const int size = rs & 0x0F;
      const int used = (entry & 0xFF) + size;
      if (used > jpeg::kHuffLookupBits) {
        EXPECT_EQ(fast, 0);
        continue;
      }
      ASSERT_NE(fast, 0);
      ++hits;
      int value = 0;
      if (size > 0) {
        const int m = static_cast<int>(br.get_bits(size));
        value = m >= (1 << (size - 1)) ? m : m - (1 << size) + 1;
      }
      EXPECT_EQ(fast & 0x0F, used);
      EXPECT_EQ((fast >> 4) & 0x0F, rs >> 4);
      EXPECT_EQ(fast >> 8, value);
      // The reader now stands right after the used bits.
      const int rest = jpeg::kHuffLookupBits - used;
      EXPECT_EQ(br.peek(rest + 1), ((w & ((1u << rest) - 1u)) << 1) | 1u);
    }
    EXPECT_GT(hits, 256) << "table " << t;
  }
}

// --- BatchPreprocessor: parallel decode->resize->normalize worker pool ---

TEST(BatchPreprocessor, MatchesSequentialPipelineAcrossThreadCounts) {
  std::vector<std::vector<std::uint8_t>> jpegs;
  for (int i = 0; i < 9; ++i) {
    const Image img = make_synthetic(64 + 8 * i, 48 + 4 * i, Pattern::kScene,
                                     static_cast<unsigned>(100 + i));
    jpegs.push_back(encode_jpeg(img, {.quality = 85}));
  }
  // Reference: the plain single-image pipeline, in order.
  std::vector<std::vector<float>> expect;
  for (const auto& j : jpegs) {
    const Image img = decode_jpeg(j);
    expect.push_back(normalize_chw(resize(img, 224, 224)));
  }
  for (int threads : {1, 2, 4}) {
    BatchPreprocessor pool{threads};
    const auto got = pool.run(jpegs, {});
    ASSERT_EQ(got.size(), expect.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], expect[i]) << "threads=" << threads << " image=" << i;
    }
  }
}

TEST(BatchPreprocessor, AppliesCenterCrop) {
  const Image img = make_synthetic(120, 90, Pattern::kScene, 3);
  const auto jpeg_bytes = encode_jpeg(img, {.quality = 90});
  BatchPreprocessor pool{2};
  BatchPreprocessOptions opts;
  opts.center_crop_side = 80;
  opts.target_side = 64;
  const auto got = pool.run(std::vector<std::vector<std::uint8_t>>{jpeg_bytes}, opts);
  const auto expect =
      normalize_chw(resize(center_crop(decode_jpeg(jpeg_bytes), 80), 64, 64));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], expect);
}

TEST(BatchPreprocessor, PropagatesDecodeErrors) {
  std::vector<std::vector<std::uint8_t>> jpegs;
  for (int i = 0; i < 6; ++i) {
    const Image img = make_synthetic(40, 30, Pattern::kGradient, static_cast<unsigned>(i));
    jpegs.push_back(encode_jpeg(img));
  }
  jpegs[3] = {0xDE, 0xAD, 0xBE, 0xEF};  // not a JPEG
  for (int threads : {1, 4}) {
    BatchPreprocessor pool{threads};
    EXPECT_THROW((void)pool.run(jpegs, {}), jpeg::CodecError) << "threads=" << threads;
  }
}

TEST(BatchPreprocessor, RejectsBadConfiguration) {
  EXPECT_THROW(BatchPreprocessor{0}, std::invalid_argument);
  BatchPreprocessor pool{1};
  BatchPreprocessOptions opts;
  opts.target_side = 0;
  EXPECT_THROW((void)pool.run(std::vector<std::vector<std::uint8_t>>{}, opts),
               std::invalid_argument);
}

// --- Golden hashes: decoded, resized and batch-preprocessed bytes ---
//
// Each case's FNV-1a hash is checked under every SIMD tier this build and
// host can run (simd_tiers.h). The kernel contracts allow AVX2 ±1 LSB
// against scalar (simd_test.cpp), but today both tiers give these bytes
// exactly, so one hash pins both. A refactor of the decoder, resize or pool must leave every hash
// unchanged; a change of output re-pins them on purpose.

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t h = kFnvBasis) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 0x100000001b3ULL;
  return h;
}

std::uint64_t image_hash(const Image& img) {
  const int shape[3] = {img.width(), img.height(), img.channels()};
  return fnv1a(img.data().data(), img.data().size(), fnv1a(shape, sizeof shape));
}

void expect_golden(const std::string& name, std::uint64_t got, std::uint64_t want) {
  EXPECT_EQ(got, want) << name << ": got 0x" << std::hex << got;
}

Image gray_of(const Image& rgb) {
  Image gray{rgb.width(), rgb.height(), 1};
  for (int y = 0; y < rgb.height(); ++y) {
    for (int x = 0; x < rgb.width(); ++x) gray.at(x, y, 0) = rgb.at(x, y, 1);
  }
  return gray;
}

TEST(CodecGolden, DecodedPixelsMatchGolden) {
  struct Case {
    std::string name;
    int w, h;
    Pattern pattern;
    bool gray;
    JpegEncodeOptions enc;
    bool reference_idct;
    std::uint64_t hash;
  };
  using S = Subsampling;
  const Case cases[] = {
      {"444", 96, 64, Pattern::kScene, false, {.quality = 90, .subsampling = S::k444}, false,
       0xca5fbf3f23cb1121ULL},
      {"422", 96, 64, Pattern::kScene, false, {.quality = 85, .subsampling = S::k422}, false,
       0xf0bab4c3c7879ecbULL},
      {"420", 96, 64, Pattern::kScene, false, {.quality = 85, .subsampling = S::k420}, false,
       0x3c5456bc63c5d8a5ULL},
      {"gray", 96, 64, Pattern::kScene, true, {.quality = 85}, false, 0x9e03507f522834c8ULL},
      {"420 1x1", 1, 1, Pattern::kScene, false, {.quality = 85}, false, 0x62aa593bf01331c0ULL},
      {"444 1x1", 1, 1, Pattern::kScene, false, {.quality = 85, .subsampling = S::k444}, false,
       0x62aa593bf01331c0ULL},
      {"gray 1x1", 1, 1, Pattern::kScene, true, {.quality = 85}, false, 0x73605c582dbc6c93ULL},
      {"420 17x9", 17, 9, Pattern::kScene, false, {.quality = 85}, false, 0xcba6c613dec3b72aULL},
      {"422 17x9", 17, 9, Pattern::kTexture, false, {.quality = 80, .subsampling = S::k422},
       false, 0x72b62dbb9e56a578ULL},
      {"444 17x9", 17, 9, Pattern::kScene, false, {.quality = 85, .subsampling = S::k444}, false,
       0xd67f6f5f269ad232ULL},
      {"420 333x251", 333, 251, Pattern::kScene, false, {.quality = 85}, false, 0x81876aecc113d5c5ULL},
      {"422 333x251 texture", 333, 251, Pattern::kTexture, false,
       {.quality = 95, .subsampling = S::k422}, false, 0x8eb8ae3b0c395250ULL},
      {"gray 333x251", 333, 251, Pattern::kScene, true, {.quality = 75}, false, 0x201395b010b6c0c6ULL},
      {"420 restart 3", 97, 61, Pattern::kScene, false,
       {.quality = 75, .restart_interval_mcus = 3}, false, 0xb91a617d596c23c4ULL},
      {"444 restart 1", 33, 17, Pattern::kCheckers, false,
       {.quality = 90, .subsampling = S::k444, .restart_interval_mcus = 1}, false, 0x2c96f73f8da70694ULL},
      {"gray restart 2", 64, 40, Pattern::kTexture, true,
       {.quality = 85, .restart_interval_mcus = 2}, false, 0x699f80d7cf47a6aULL},
      {"420 optimized", 97, 61, Pattern::kScene, false,
       {.quality = 85, .optimize_huffman = true}, false, 0xbeeb55da307bc8dfULL},
      {"444 optimized restart 5", 120, 80, Pattern::kTexture, false,
       {.quality = 90, .subsampling = S::k444, .restart_interval_mcus = 5,
        .optimize_huffman = true},
       false, 0x211b7ba5f3ca578eULL},
      {"gray optimized", 61, 47, Pattern::kCheckers, true,
       {.quality = 70, .optimize_huffman = true}, false, 0x71cdba359af6ddb5ULL},
      {"420 q100 texture", 64, 64, Pattern::kTexture, false, {.quality = 100}, false,
       0x61a7662f1dca7980ULL},
      {"420 q50 checkers", 80, 80, Pattern::kCheckers, false, {.quality = 50}, false,
       0x3d38e868bca603b6ULL},
      {"420 reference idct", 97, 61, Pattern::kScene, false, {.quality = 85}, true, 0xbeeb55da307bc8dfULL},
      {"gray reference idct", 17, 9, Pattern::kTexture, true, {.quality = 85}, true, 0x82c283108bf0dbebULL},
      {"420 medium", 500, 375, Pattern::kScene, false, {.quality = 85}, false, 0x733bcc9a1898762ULL},
  };
  std::vector<std::vector<std::uint8_t>> wires;
  for (const auto& c : cases) {
    const Image rgb = make_synthetic(c.w, c.h, c.pattern, 29);
    wires.push_back(encode_jpeg(c.gray ? gray_of(rgb) : rgb, c.enc));
  }
  for_each_tier([&](cpu::SimdTier) {
    for (std::size_t i = 0; i < std::size(cases); ++i) {
      const Image img = decode_jpeg(wires[i], {.use_reference_idct = cases[i].reference_idct});
      expect_golden(cases[i].name, image_hash(img), cases[i].hash);
    }
  });
}

TEST(CodecGolden, ResizedPixelsMatchGolden) {
  struct Case {
    std::string name;
    int sw, sh;
    bool gray;
    int dw, dh;
    std::uint64_t hash;
  };
  const Case cases[] = {
      {"500x375 -> 224x224", 500, 375, false, 224, 224, 0xbb27bb39c4d48d2aULL},
      {"97x61 -> 300x200 upscale", 97, 61, false, 300, 200, 0x88c7a9e602a2c076ULL},
      {"500x375 -> 37x500", 500, 375, false, 37, 500, 0xcaf2540057c71169ULL},
      {"500x375 -> 300x100", 500, 375, false, 300, 100, 0xcee1dbb9d1d58236ULL},
      {"500x375 -> 1000x800", 500, 375, false, 1000, 800, 0x91ab603ed04581b4ULL},
      {"1000x700 -> 224x224", 1000, 700, false, 224, 224, 0xdc0158a234db96fULL},
      {"gray 333x251 -> 224x224", 333, 251, true, 224, 224, 0x26601d23d8c3ad9bULL},
      {"1x1 -> 5x3", 1, 1, false, 5, 3, 0x713b969734a648c1ULL},
      {"64x48 -> 1x1", 64, 48, false, 1, 1, 0xa29c23859124e99ULL},
      {"224x224 identity", 224, 224, false, 224, 224, 0x5d5de1c99a84f02cULL},
  };
  for_each_tier([&](cpu::SimdTier) {
    for (const auto& c : cases) {
      const Image rgb = make_synthetic(c.sw, c.sh, Pattern::kScene, 31);
      const Image out = resize(c.gray ? gray_of(rgb) : rgb, c.dw, c.dh);
      expect_golden(c.name, image_hash(out), c.hash);
    }
  });
}

TEST(CodecGolden, BatchPreprocessorTensorsMatchGolden) {
  std::vector<std::vector<std::uint8_t>> jpegs;
  for (int i = 0; i < 5; ++i) {
    const Image img = make_synthetic(500 - 37 * i, 375 - 23 * i, Pattern::kScene,
                                     static_cast<unsigned>(40 + i));
    jpegs.push_back(encode_jpeg(img, {.quality = 85}));
  }
  constexpr std::uint64_t kPlain = 0x47cd404baf1f1e62ULL;
  constexpr std::uint64_t kCropped = 0xadaa399ce4aada7cULL;
  BatchPreprocessor pool{2};
  const auto tensors_hash = [](const std::vector<std::vector<float>>& tensors) {
    std::uint64_t h = kFnvBasis;
    for (const auto& t : tensors) h = fnv1a(t.data(), t.size() * sizeof(float), h);
    return h;
  };
  for_each_tier([&](cpu::SimdTier) {
    expect_golden("224x224", tensors_hash(pool.run(jpegs, {})), kPlain);
    BatchPreprocessOptions crop;
    crop.center_crop_side = 256;
    crop.target_side = 160;
    expect_golden("crop 256 -> 160", tensors_hash(pool.run(jpegs, crop)), kCropped);
  });
}

TEST(CodecGolden, SingleImageBatchesMatchGolden) {
  // One-image batches are every zero-load request. Pools of 1, 2 and 4
  // threads must give the same tensor bytes, with and without a crop.
  struct Case {
    std::string name;
    int w, h;
    JpegEncodeOptions enc;
    int crop;  ///< center_crop_side of the cropped run
    std::uint64_t plain, cropped;
  };
  using S = Subsampling;
  const Case cases[] = {
      {"444", 96, 64, {.quality = 90, .subsampling = S::k444}, 48,
       0x94d5d8673161e941ULL, 0xb982a45201d48b1aULL},
      {"422", 96, 64, {.quality = 85, .subsampling = S::k422}, 48,
       0xff8f9985f49171f0ULL, 0x766e5837cfec7c38ULL},
      {"420 medium", 500, 375, {.quality = 85}, 320,
       0xb6fddb4c9fd735c9ULL, 0xfde6470b872c9685ULL},
      {"420 restart 3", 97, 61, {.quality = 75, .restart_interval_mcus = 3}, 50,
       0xf2d79e700e4619f4ULL, 0xbe5d34270f1917e9ULL},
      {"444 optimized restart 5", 120, 80,
       {.quality = 90, .subsampling = S::k444, .restart_interval_mcus = 5,
        .optimize_huffman = true},
       64, 0x452a9d11811f78dULL, 0xe184321d291e977dULL},
      {"420 optimized", 97, 61, {.quality = 85, .optimize_huffman = true}, 56,
       0x1f5ad691c99c157aULL, 0x22f8cb18e42d5691ULL},
      {"420 17x9", 17, 9, {.quality = 85}, 8,
       0x6002afb0f3103af0ULL, 0xc60141e8b92ff9cdULL},
      {"422 333x251", 333, 251, {.quality = 85, .subsampling = S::k422}, 200,
       0x4bdd48677df1de00ULL, 0x705d56e0cc08b25bULL},
      {"420 upscale 60x70", 60, 70, {.quality = 85}, 64,
       0x2679d8c753f567d2ULL, 0xb25754ca5a86e4fdULL},
  };
  std::vector<std::vector<std::uint8_t>> wires;
  for (const auto& c : cases) {
    wires.push_back(encode_jpeg(make_synthetic(c.w, c.h, Pattern::kScene, 37), c.enc));
  }
  BatchPreprocessor pools[] = {BatchPreprocessor{1}, BatchPreprocessor{2}, BatchPreprocessor{4}};
  for_each_tier([&](cpu::SimdTier) {
    for (std::size_t i = 0; i < std::size(cases); ++i) {
      const std::vector<std::span<const std::uint8_t>> batch{wires[i]};
      BatchPreprocessOptions crop;
      crop.center_crop_side = cases[i].crop;
      for (auto& pool : pools) {
        const std::string name = cases[i].name + " threads=" + std::to_string(pool.threads());
        const auto plain = pool.run(batch);
        const auto cropped = pool.run(batch, crop);
        expect_golden(name, fnv1a(plain[0].data(), plain[0].size() * sizeof(float)),
                      cases[i].plain);
        expect_golden(name + " crop", fnv1a(cropped[0].data(), cropped[0].size() * sizeof(float)),
                      cases[i].cropped);
      }
    }
  });
}

TEST(FullPreprocessingPipeline, MatchesPaperStages) {
  // The paper's preprocessing: JPEG decode -> resize -> normalize. Run the
  // real pipeline end to end on a medium-class image.
  const Image original = make_synthetic(500, 375, Pattern::kScene, 13);
  const auto wire = encode_jpeg(original, {.quality = 85});
  const Image decoded = decode_jpeg(wire);
  const Image resized = resize(decoded, 224, 224);
  const auto tensor = normalize_chw(resized);
  EXPECT_EQ(tensor.size(), 224u * 224u * 3u);
  for (float v : tensor) {
    EXPECT_GT(v, -4.0f);
    EXPECT_LT(v, 4.0f);
  }
}

}  // namespace
}  // namespace serve::codec
