// Tests for the workload module: image mixtures and the real JPEG corpus.
#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "codec/jpeg.h"
#include "sim/rng.h"
#include "workload/corpus.h"
#include "workload/image_mixture.h"
#include "workload/popularity.h"

namespace serve::workload {
namespace {

TEST(ImageMixture, FixedAlwaysSamplesSameSpec) {
  const auto m = ImageMixture::fixed(hw::kMediumImage);
  sim::Rng rng{1};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(m.sample(rng), hw::kMediumImage);
}

TEST(ImageMixture, WeightsRespected) {
  ImageMixture m;
  m.add(hw::kSmallImage, 1.0).add(hw::kLargeImage, 3.0);
  sim::Rng rng{5};
  int large = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) large += m.sample(rng) == hw::kLargeImage ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(large) / n, 0.75, 0.02);
}

TEST(ImageMixture, ImagenetLikeMostlyMedium) {
  const auto m = ImageMixture::imagenet_like();
  sim::Rng rng{9};
  int medium = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) medium += m.sample(rng) == hw::kMediumImage ? 1 : 0;
  EXPECT_GT(medium, n / 2);
}

TEST(ImageMixture, Errors) {
  ImageMixture m;
  EXPECT_THROW(m.add(hw::kSmallImage, 0.0), std::invalid_argument);
  sim::Rng rng{1};
  EXPECT_THROW((void)m.sample(rng), std::logic_error);
  EXPECT_THROW((void)m.mean_weighted_spec(), std::logic_error);
}

TEST(ImageMixture, MeanWeightedSpec) {
  ImageMixture m;
  m.add(hw::ImageSpec{100, 100, 1000}, 1.0).add(hw::ImageSpec{300, 100, 3000}, 1.0);
  const auto mean = m.mean_weighted_spec();
  EXPECT_EQ(mean.width, 200);
  EXPECT_EQ(mean.height, 100);
  EXPECT_EQ(mean.compressed_bytes, 2000);
}

TEST(Corpus, ProducesDecodableJpegs) {
  const auto corpus = make_corpus(hw::kSmallImage, 3, 11);
  ASSERT_EQ(corpus.size(), 3u);
  for (const auto& entry : corpus) {
    EXPECT_EQ(entry.spec.width, hw::kSmallImage.width);
    EXPECT_EQ(entry.spec.compressed_bytes, static_cast<std::int64_t>(entry.jpeg.size()));
    const auto img = codec::decode_jpeg(entry.jpeg);
    EXPECT_EQ(img.width(), hw::kSmallImage.width);
    EXPECT_EQ(img.height(), hw::kSmallImage.height);
  }
}

TEST(Corpus, DeterministicInSeed) {
  const auto a = make_corpus(hw::kSmallImage, 2, 42);
  const auto b = make_corpus(hw::kSmallImage, 2, 42);
  const auto c = make_corpus(hw::kSmallImage, 2, 43);
  EXPECT_EQ(a[0].jpeg, b[0].jpeg);
  EXPECT_NE(a[0].jpeg, c[0].jpeg);
  EXPECT_NE(a[0].jpeg, a[1].jpeg);  // different images within a corpus
}

TEST(Corpus, RejectsBadCount) {
  EXPECT_THROW(make_corpus(hw::kSmallImage, 0), std::invalid_argument);
}

TEST(Corpus, ThreadedGenerationIsDeterministic) {
  // Fanning the per-entry work over the BatchPreprocessor pool must not
  // change the corpus: entries depend only on (seed + index).
  const auto seq = make_corpus(hw::kSmallImage, 8, 42, 1);
  const auto par = make_corpus(hw::kSmallImage, 8, 42, 4);
  ASSERT_EQ(seq.size(), par.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(seq[i].jpeg, par[i].jpeg) << "entry " << i;
    EXPECT_EQ(seq[i].spec.compressed_bytes, par[i].spec.compressed_bytes);
  }
}

TEST(Corpus, RealPreprocessTimingIsPositiveAndDecodeHeavy) {
  const auto corpus = make_corpus(hw::kMediumImage, 1, 3);
  const auto t = time_real_preprocess(corpus[0], 224);
  EXPECT_GT(t.decode_s, 0.0);
  EXPECT_GT(t.resize_s, 0.0);
  EXPECT_GT(t.normalize_s, 0.0);
  // Decode dominates the preprocessing pipeline (paper Fig. 6 mechanism).
  EXPECT_GT(t.decode_s, t.normalize_s);
  EXPECT_NEAR(t.total(), t.decode_s + t.resize_s + t.normalize_s, 1e-12);
}

TEST(ImageMixture, RejectsNonFiniteAndNonPositiveWeights) {
  // Regression: a NaN weight used to slip past the `weight <= 0` guard (NaN
  // comparisons are false), poisoning the total and making
  // mean_weighted_spec divide by garbage.
  ImageMixture m;
  EXPECT_THROW(m.add(hw::kSmallImage, std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_THROW(m.add(hw::kSmallImage, std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_THROW(m.add(hw::kSmallImage, -1.0), std::invalid_argument);
  EXPECT_THROW(m.add(hw::kSmallImage, 0.0), std::invalid_argument);
  // Rejected weights leave the mixture untouched and usable.
  m.add(hw::kMediumImage, 2.0);
  EXPECT_EQ(m.mean_weighted_spec(), hw::kMediumImage);
}

TEST(SpecCorpus, DistinctStableNonZeroIdentities) {
  const auto corpus = make_spec_corpus(hw::kMediumImage, 100, 7);
  ASSERT_EQ(corpus.size(), 100u);
  std::set<std::uint64_t> hashes;
  for (const auto& e : corpus) {
    EXPECT_EQ(e.spec, hw::kMediumImage);
    EXPECT_NE(e.content_hash, 0u);
    hashes.insert(e.content_hash);
  }
  EXPECT_EQ(hashes.size(), 100u);  // all distinct despite identical geometry
  const auto again = make_spec_corpus(hw::kMediumImage, 100, 7);
  for (std::size_t i = 0; i < 100; ++i) EXPECT_EQ(corpus[i].content_hash, again[i].content_hash);
  const auto reseeded = make_spec_corpus(hw::kMediumImage, 100, 8);
  EXPECT_NE(corpus[0].content_hash, reseeded[0].content_hash);
  EXPECT_THROW((void)make_spec_corpus(hw::kMediumImage, 0), std::invalid_argument);
}

TEST(Popularity, ZipfMassIsHeadHeavyAndNormalized) {
  const auto p = PopularityModel::zipf(100, 1.0);
  EXPECT_EQ(p.size(), 100u);
  double total = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) total += p.mass(i);
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_GT(p.mass(0), p.mass(1));
  EXPECT_GT(p.mass(1), p.mass(99));
}

TEST(Popularity, UniformIsFlat) {
  const auto p = PopularityModel::uniform(8);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_NEAR(p.mass(i), 1.0 / 8.0, 1e-12);
}

TEST(Popularity, SamplingIsDeterministicAndMatchesMass) {
  const auto p = PopularityModel::zipf(50, 1.2);
  sim::Rng a{99}, b{99};
  int head = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const auto ia = p.sample(a);
    ASSERT_EQ(ia, p.sample(b));  // same seed, same draw sequence
    ASSERT_LT(ia, p.size());
    head += ia == 0 ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(head) / n, p.mass(0), 0.02);
}

TEST(Popularity, RejectsBadParameters) {
  EXPECT_THROW((void)PopularityModel::zipf(0, 1.0), std::invalid_argument);
  EXPECT_THROW((void)PopularityModel::zipf(10, -0.5), std::invalid_argument);
  EXPECT_THROW((void)PopularityModel::zipf(10, std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
}

TEST(Popularity, CorpusSourceCarriesIdentity) {
  auto corpus = make_spec_corpus(hw::kMediumImage, 4, 21);
  const auto expected = corpus;  // the source moves its copy
  const auto source = popular_corpus_source(std::move(corpus), PopularityModel::uniform(4));
  sim::Rng rng{5};
  for (int i = 0; i < 32; ++i) {
    const auto desc = source(rng);
    bool found = false;
    for (const auto& e : expected) found |= e.content_hash == desc.content_hash;
    EXPECT_TRUE(found);
    EXPECT_EQ(desc.image, hw::kMediumImage);
  }
  EXPECT_THROW((void)popular_corpus_source(expected, PopularityModel::uniform(3)),
               std::invalid_argument);
}

}  // namespace
}  // namespace serve::workload
