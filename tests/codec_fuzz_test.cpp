// Seeded corruption fuzzing for the JPEG decoder.
//
// The serving stack feeds decoder errors into the payload-validation fault
// path, so the decoder must hold a hard contract on hostile bytes: every
// input either decodes to a well-formed image or throws jpeg::CodecError —
// never any other exception type, never a crash, hang, or giant allocation.
// This harness takes valid encoder output as the corpus and applies seeded
// byte flips and truncations (deterministic xorshift stream, reproducible
// from the test alone), and runs in the CI sanitizer job so ASan/UBSan see
// every mutated decode.
#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <span>
#include <string>
#include <typeinfo>
#include <vector>

#include "codec/batch_preprocess.h"
#include "codec/cpu_features.h"
#include "codec/jpeg.h"
#include "codec/synthetic.h"
#include "codec/transform.h"
#include "simd_tiers.h"
#include "xorshift.h"

namespace serve::codec {
namespace {

using fuzz::XorShift;

std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t h) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 0x100000001b3ULL;
  return h;
}

struct SeedInput {
  std::string name;
  std::vector<std::uint8_t> bytes;
};

std::vector<SeedInput> build_corpus() {
  std::vector<SeedInput> corpus;
  const std::pair<Pattern, const char*> patterns[] = {
      {Pattern::kGradient, "gradient"},
      {Pattern::kTexture, "texture"},
      {Pattern::kScene, "scene"},
      {Pattern::kCheckers, "checkers"},
  };
  for (const auto& [pattern, pname] : patterns) {
    const Image rgb = make_synthetic(97, 61, pattern, 3);
    for (const auto sub : {Subsampling::k444, Subsampling::k420}) {
      JpegEncodeOptions opts;
      opts.quality = sub == Subsampling::k444 ? 90 : 60;
      opts.subsampling = sub;
      opts.restart_interval_mcus = sub == Subsampling::k420 ? 4 : 0;
      corpus.push_back({std::string("jpeg/") + pname +
                            (sub == Subsampling::k444 ? "/444" : "/420"),
                        encode_jpeg(rgb, opts)});
    }
  }
  Image gray{64, 64, 1};
  const Image scene = make_synthetic(64, 64, Pattern::kScene, 9);
  for (int y = 0; y < 64; ++y) {
    for (int x = 0; x < 64; ++x) gray.at(x, y, 0) = scene.at(x, y, 1);
  }
  corpus.push_back({"jpeg/gray", encode_jpeg(gray)});
  return corpus;
}

// Decodes and returns true, throws CodecError and returns false, or fails the
// test on any other outcome (the contract violation this harness exists for).
bool decode_or_codec_error(std::span<const std::uint8_t> data) {
  try {
    const Image img = decode_jpeg(data);
    EXPECT_GT(img.width(), 0);
    EXPECT_GT(img.height(), 0);
    EXPECT_EQ(img.data().size(), static_cast<std::size_t>(img.width()) *
                                     static_cast<std::size_t>(img.height()) *
                                     static_cast<std::size_t>(img.channels()));
    return true;
  } catch (const jpeg::CodecError&) {
    return false;
  }
  // Anything else (std::bad_alloc, std::length_error, ...) propagates and
  // fails the test loudly.
}

TEST(CodecFuzz, SeedCorpusDecodesCleanly) {
  for (const auto& seed : build_corpus()) {
    SCOPED_TRACE(seed.name);
    EXPECT_TRUE(decode_or_codec_error(seed.bytes));
  }
}

// The three seeded mutation streams. Each calls `visit(seed, label, bytes)`
// once per mutant, in a fixed order. Every seed input draws from its own
// xorshift stream, seeded by the stream's seed and the input's name, so
// adding or removing a seed input leaves the other inputs' mutants as they
// were.

XorShift stream_for(std::uint64_t stream_seed, const SeedInput& seed) {
  return XorShift{fnv1a(seed.name.data(), seed.name.size(), stream_seed) | 1};  // never zero
}

/// 150 mutants per seed input, each with 1..8 flipped bytes.
template <typename Visit>
void for_each_byte_flip(const std::vector<SeedInput>& corpus, Visit&& visit) {
  for (const auto& seed : corpus) {
    XorShift rng = stream_for(0x5eed5eed5eed5eedULL, seed);
    for (int round = 0; round < 150; ++round) {
      auto mutated = seed.bytes;
      const int flips = 1 + static_cast<int>(rng.below(8));
      for (int f = 0; f < flips; ++f) {
        mutated[rng.below(mutated.size())] ^= static_cast<std::uint8_t>(1 + rng.below(255));
      }
      visit(seed, " round " + std::to_string(round), std::span<const std::uint8_t>{mutated});
    }
  }
}

/// 60 random prefixes per seed input.
template <typename Visit>
void for_each_truncation(const std::vector<SeedInput>& corpus, Visit&& visit) {
  for (const auto& seed : corpus) {
    XorShift rng = stream_for(0xfeedfacecafebeefULL, seed);
    for (int round = 0; round < 60; ++round) {
      const std::size_t keep = rng.below(seed.bytes.size());
      visit(seed, " truncated to " + std::to_string(keep),
            std::span<const std::uint8_t>{seed.bytes.data(), keep});
    }
  }
}

/// 60 mutants per seed input, each a random prefix with 1..4 flipped bytes.
template <typename Visit>
void for_each_flip_and_truncate(const std::vector<SeedInput>& corpus, Visit&& visit) {
  for (const auto& seed : corpus) {
    XorShift rng = stream_for(0x0123456789abcdefULL, seed);
    for (int round = 0; round < 60; ++round) {
      auto mutated = seed.bytes;
      mutated.resize(1 + rng.below(mutated.size()));
      const int flips = 1 + static_cast<int>(rng.below(4));
      for (int f = 0; f < flips; ++f) {
        mutated[rng.below(mutated.size())] ^= static_cast<std::uint8_t>(1 + rng.below(255));
      }
      visit(seed, " round " + std::to_string(round), std::span<const std::uint8_t>{mutated});
    }
  }
}

TEST(CodecFuzz, ByteFlipsEitherDecodeOrThrowCodecError) {
  int decoded = 0, rejected = 0;
  for_each_byte_flip(build_corpus(), [&](const SeedInput& seed, const std::string& label,
                                         std::span<const std::uint8_t> bytes) {
    SCOPED_TRACE(seed.name + label);
    decode_or_codec_error(bytes) ? ++decoded : ++rejected;
  });
  // Both outcomes must actually occur, or the harness is testing nothing:
  // flips in entropy data often still decode, flips in headers must reject.
  EXPECT_GT(decoded, 0);
  EXPECT_GT(rejected, 0);
}

TEST(CodecFuzz, TruncationsEitherDecodeOrThrowCodecError) {
  const auto corpus = build_corpus();
  for_each_truncation(corpus, [](const SeedInput& seed, const std::string& label,
                                 std::span<const std::uint8_t> bytes) {
    SCOPED_TRACE(seed.name + label);
    decode_or_codec_error(bytes);
  });
  for (const auto& seed : corpus) {
    // Every prefix of the header region, exhaustively.
    for (std::size_t keep = 0; keep < 64 && keep < seed.bytes.size(); ++keep) {
      SCOPED_TRACE(seed.name + " header prefix " + std::to_string(keep));
      EXPECT_FALSE(decode_or_codec_error(
          std::span<const std::uint8_t>{seed.bytes.data(), keep}));
    }
  }
}

TEST(CodecFuzz, CombinedFlipAndTruncate) {
  for_each_flip_and_truncate(build_corpus(), [](const SeedInput& seed, const std::string& label,
                                                std::span<const std::uint8_t> bytes) {
    SCOPED_TRACE(seed.name + label);
    decode_or_codec_error(bytes);
  });
}

TEST(CodecFuzz, MutationOutcomesMatchGolden) {
  // The serving stack turns decode accept/reject into simulated outcomes
  // (corrupted payloads), so which mutants decode, the message each
  // rejected one throws, and the pixels of each accepted one are pinned.
  // Both hashes are checked under every SIMD tier, as the goldens in
  // codec_test.cpp are.
  constexpr std::uint64_t kOutcomes = 0x874a11529efe0ca6ULL;
  constexpr std::uint64_t kPixels = 0xcbb1ae905d694ec2ULL;
  const auto corpus = build_corpus();
  tiers::for_each_tier([&](cpu::SimdTier) {
    std::uint64_t outcomes = 0xcbf29ce484222325ULL;
    std::uint64_t pixels = outcomes;
    const auto replay = [&](const SeedInput&, const std::string&,
                            std::span<const std::uint8_t> bytes) {
      try {
        const Image img = decode_jpeg(bytes);
        outcomes = fnv1a("ok", 2, outcomes);
        const int shape[3] = {img.width(), img.height(), img.channels()};
        pixels = fnv1a(shape, sizeof shape, pixels);
        pixels = fnv1a(img.data().data(), img.data().size(), pixels);
      } catch (const jpeg::CodecError& e) {
        const std::string what = e.what();
        outcomes = fnv1a(what.data(), what.size() + 1, outcomes);
      }
    };
    for_each_byte_flip(corpus, replay);
    for_each_truncation(corpus, replay);
    for_each_flip_and_truncate(corpus, replay);
    EXPECT_EQ(outcomes, kOutcomes) << "outcomes: got 0x" << std::hex << outcomes;
    EXPECT_EQ(pixels, kPixels) << "pixels: got 0x" << std::hex << pixels;
  });
}

/// What a preprocessing call gave: its tensor, or the dynamic type and
/// message of the exception it threw.
struct Outcome {
  std::vector<float> tensor;
  std::string error;
  bool operator==(const Outcome&) const = default;
};

template <typename Fn>
Outcome outcome_of(Fn&& fn) {
  try {
    return {fn(), {}};
  } catch (const std::exception& e) {
    return {{}, std::string(typeid(e).name()) + ": " + e.what()};
  }
}

TEST(BatchPreprocessor, SingleImageErrorsMatchSerialPipeline) {
  // A one-image batch on a two-thread pool must fail exactly as the serial
  // decode -> resize -> normalize does: same exception type and message,
  // and the same tensor whenever the mutant decodes.
  const auto corpus = build_corpus();
  BatchPreprocessor pool{2};
  int decoded = 0, rejected = 0;
  const auto check = [&](const SeedInput& seed, const std::string& label,
                         std::span<const std::uint8_t> bytes) {
    SCOPED_TRACE(seed.name + label);
    const Outcome serial =
        outcome_of([&] { return normalize_chw(resize(decode_jpeg(bytes), 224, 224)); });
    const Outcome pooled = outcome_of(
        [&] { return pool.run(std::vector<std::span<const std::uint8_t>>{bytes})[0]; });
    EXPECT_EQ(pooled.error, serial.error);
    EXPECT_TRUE(pooled.tensor == serial.tensor);
    serial.error.empty() ? ++decoded : ++rejected;
  };
  for_each_byte_flip(corpus, check);
  for_each_truncation(corpus, check);
  for_each_flip_and_truncate(corpus, check);
  EXPECT_GT(decoded, 0);
  EXPECT_GT(rejected, 0);

  // Grayscale decodes but cannot be normalized; a corrupt grayscale stream
  // fails in the decoder first, as it does serially.
  const SeedInput& gray = corpus.back();
  ASSERT_EQ(gray.name, "jpeg/gray");
  const std::span<const std::uint8_t> clean{gray.bytes};
  const std::string rgb_error =
      outcome_of([&] { return pool.run(std::vector<std::span<const std::uint8_t>>{clean})[0]; })
          .error;
  EXPECT_NE(rgb_error.find("normalize_chw: need RGB input"), std::string::npos) << rgb_error;
  const std::span<const std::uint8_t> cut = clean.first(clean.size() / 2);
  EXPECT_THROW((void)pool.run(std::vector<std::span<const std::uint8_t>>{cut}), jpeg::CodecError);
}

TEST(CodecFuzz, CorruptedDimensionsAreCappedNotAllocated) {
  // Force absurd dimensions directly into the header: the decoder must
  // reject past their pixel cap instead of attempting a multi-GB allocation
  // (the exact failure payload corruption produces in the serving path).
  auto jpg = encode_jpeg(make_synthetic(32, 32, Pattern::kScene, 1));
  // Find the SOF0 marker and overwrite height/width with 65535 x 65535.
  for (std::size_t i = 0; i + 8 < jpg.size(); ++i) {
    if (jpg[i] == 0xFF && jpg[i + 1] == 0xC0) {
      jpg[i + 5] = jpg[i + 6] = jpg[i + 7] = jpg[i + 8] = 0xFF;
      break;
    }
  }
  EXPECT_THROW((void)decode_jpeg(jpg), jpeg::CodecError);
}

TEST(CodecFuzz, MutationStreamIsDeterministic) {
  // The harness itself must be reproducible: the same seed yields the same
  // mutation, so a failure report ("seed X round N") can be replayed exactly.
  XorShift a{42}, b{42};
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(a.next(), b.next());
}

}  // namespace
}  // namespace serve::codec
