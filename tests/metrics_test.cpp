// Unit and property tests for serve::metrics.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <vector>

#include "metrics/breakdown.h"
#include "metrics/energy_accumulator.h"
#include "metrics/histogram.h"
#include "metrics/stat_accumulator.h"
#include "metrics/table.h"
#include "sim/rng.h"

namespace serve::metrics {
namespace {

TEST(StatAccumulator, EmptyIsZero) {
  StatAccumulator a;
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.count(), 0u);
  EXPECT_DOUBLE_EQ(a.mean(), 0.0);
  EXPECT_DOUBLE_EQ(a.variance(), 0.0);
  EXPECT_DOUBLE_EQ(a.min(), 0.0);
  EXPECT_DOUBLE_EQ(a.max(), 0.0);
}

TEST(StatAccumulator, BasicMoments) {
  StatAccumulator a;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) a.add(x);
  EXPECT_EQ(a.count(), 8u);
  EXPECT_DOUBLE_EQ(a.mean(), 5.0);
  EXPECT_DOUBLE_EQ(a.variance(), 4.0);
  EXPECT_DOUBLE_EQ(a.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(a.min(), 2.0);
  EXPECT_DOUBLE_EQ(a.max(), 9.0);
  EXPECT_DOUBLE_EQ(a.sum(), 40.0);
}

TEST(Histogram, EmptyHistogramQuantilesAreExactlyZero) {
  // Documented contract: with count() == 0 every quantile — including
  // p999() — returns exactly 0.0. Consumers distinguish "no samples" from
  // "all zero" via count(); `servescope report` prints "no completed requests".
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  for (double q : {0.0, 0.5, 0.95, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(h.quantile(q), 0.0) << "q=" << q;
  }
  EXPECT_EQ(h.p50(), 0.0);
  EXPECT_EQ(h.p999(), 0.0);
  EXPECT_TRUE(h.nonzero_buckets().empty());
}

TEST(Histogram, ExemplarsTrackLastTracePerBucket) {
  Histogram h{{.track_exemplars = true}};
  h.add(0.010, 7);
  h.add(0.010, 0);   // trace_id 0 = unsampled: must not clobber the exemplar
  h.add(3.0, 41);
  h.add(3.0, 42);    // same bucket: last write wins
  const auto buckets = h.nonzero_buckets();
  ASSERT_EQ(buckets.size(), 2u);
  EXPECT_EQ(buckets[0].exemplar_trace_id, 7u);
  EXPECT_DOUBLE_EQ(buckets[0].exemplar_value, 0.010);
  EXPECT_EQ(buckets[1].exemplar_trace_id, 42u);
  EXPECT_DOUBLE_EQ(buckets[1].exemplar_value, 3.0);

  // Merge carries exemplars across; reset clears them.
  Histogram other{{.track_exemplars = true}};
  other.add(0.010, 99);
  h.merge(other);
  EXPECT_EQ(h.nonzero_buckets()[0].exemplar_trace_id, 99u);
  h.reset();
  EXPECT_TRUE(h.nonzero_buckets().empty());

  // Untracked histograms never retain exemplars even via the id overload.
  Histogram plain;
  plain.add(1.0, 123);
  EXPECT_EQ(plain.nonzero_buckets()[0].exemplar_trace_id, 0u);
}

TEST(StatAccumulator, MergeMatchesSequential) {
  sim::Rng rng{7};
  StatAccumulator whole, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.lognormal(0.0, 1.5);
    whole.add(x);
    (i % 3 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(a.min(), whole.min());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

TEST(StatAccumulator, MergeIntoEmpty) {
  StatAccumulator a, b;
  b.add(3.0);
  b.add(5.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 4.0);
}

TEST(Histogram, RejectsBadOptions) {
  Histogram::Options o;
  o.min_value = 0.0;
  EXPECT_THROW(Histogram{o}, std::invalid_argument);
  o = {};
  o.growth = 1.0;
  EXPECT_THROW(Histogram{o}, std::invalid_argument);
  o = {};
  o.max_value = o.min_value;
  EXPECT_THROW(Histogram{o}, std::invalid_argument);
}

TEST(Histogram, SingleValueQuantiles) {
  Histogram h;
  h.add(0.042);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_NEAR(h.p50(), 0.042, 0.042 * 0.05);
  EXPECT_NEAR(h.p99(), 0.042, 0.042 * 0.05);
}

TEST(Histogram, QuantileBoundedRelativeError) {
  Histogram h;
  sim::Rng rng{42};
  std::vector<double> samples;
  samples.reserve(20000);
  for (int i = 0; i < 20000; ++i) {
    const double x = rng.lognormal(std::log(0.010), 1.0);  // ~10ms median
    samples.push_back(x);
    h.add(x);
  }
  std::sort(samples.begin(), samples.end());
  for (double q : {0.10, 0.50, 0.90, 0.99}) {
    const double exact = samples[static_cast<std::size_t>(q * 20000.0)];
    EXPECT_NEAR(h.quantile(q), exact, exact * 0.08) << "q=" << q;
  }
}

TEST(Histogram, QuantileMonotone) {
  Histogram h;
  sim::Rng rng{3};
  for (int i = 0; i < 5000; ++i) h.add(rng.exponential(100.0));
  double prev = 0.0;
  for (double q = 0.0; q <= 1.0; q += 0.01) {
    const double v = h.quantile(q);
    EXPECT_GE(v, prev - 1e-12);
    prev = v;
  }
}

TEST(Histogram, OutOfRangeValuesClampToEdgeBuckets) {
  Histogram h{Histogram::Options{.min_value = 1e-3, .max_value = 1.0, .growth = 1.5}};
  h.add(1e-9);
  h.add(100.0);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_GE(h.quantile(1.0), h.quantile(0.0));
}

TEST(Histogram, MergeAddsCounts) {
  Histogram a, b;
  a.add(0.001);
  b.add(0.002);
  b.add(0.003);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
}

TEST(Histogram, OverflowBucketQuantileStaysWithinObservedRange) {
  // Regression: with growth 2 over [1, 10] the overflow bucket's nominal
  // lower edge (16) exceeds an observed max of 12, so lo > hi and
  // quantile() was *decreasing* in q and overshot max(). Both bounds must
  // clamp to the observed range.
  Histogram h{Histogram::Options{.min_value = 1.0, .max_value = 10.0, .growth = 2.0}};
  h.add(12.0);
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    const double v = h.quantile(q);
    EXPECT_GE(v, h.min()) << "q=" << q;
    EXPECT_LE(v, h.max()) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 12.0);
}

// Property test: quantiles are monotone in q and bounded by the observed
// min/max — for in-range, underflow, and overflow values, and after merge.
void check_quantile_properties(const Histogram& h) {
  double prev = h.quantile(0.0);
  for (double q = 0.0; q <= 1.0 + 1e-9; q += 0.01) {
    const double v = h.quantile(q);
    EXPECT_GE(v, h.min()) << "q=" << q;
    EXPECT_LE(v, h.max()) << "q=" << q;
    EXPECT_GE(v, prev - 1e-12) << "q=" << q;
    prev = v;
  }
}

TEST(Histogram, QuantilePropertiesHoldAcrossRangeAndMerge) {
  const Histogram::Options opts{.min_value = 1e-3, .max_value = 1.0, .growth = 1.7};
  Histogram a{opts}, b{opts};
  sim::Rng rng{17};
  for (int i = 0; i < 4000; ++i) {
    // Spread across 6 decades so both edge buckets and the interior fill.
    a.add(rng.lognormal(std::log(0.05), 2.0));
    b.add(rng.lognormal(std::log(2.0), 2.0));  // mostly overflow
  }
  check_quantile_properties(a);
  check_quantile_properties(b);
  a.merge(b);
  check_quantile_properties(a);
  EXPECT_EQ(a.count(), 8000u);
}

TEST(Histogram, MergeIncompatibleThrows) {
  Histogram a;
  Histogram b{Histogram::Options{.min_value = 1e-3, .max_value = 10.0, .growth = 2.0}};
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(Histogram, MergeRejectsShiftedRangeWithEqualBucketCount) {
  // Regression: merge() used to compare only bucket-vector sizes, so two
  // layouts with the same min/max ratio (hence the same bucket count) but
  // different edges merged silently, scrambling quantiles by 10x here.
  Histogram a{Histogram::Options{.min_value = 1e-6, .max_value = 1e3, .growth = 1.04}};
  Histogram b{Histogram::Options{.min_value = 1e-5, .max_value = 1e4, .growth = 1.04}};
  ASSERT_EQ(a.bucket_count(), b.bucket_count());  // the shape the bug needs
  b.add(0.5);
  EXPECT_THROW(a.merge(b), std::invalid_argument);

  Histogram c{Histogram::Options{.min_value = 1e-6, .max_value = 1e3, .growth = 1.04}};
  c.add(0.5);
  a.merge(c);  // identical layouts still merge
  EXPECT_EQ(a.count(), 1u);
}

TEST(Histogram, MergePreservesQuantilesAcrossShards) {
  // Sharded recording (one histogram per worker) must agree with a single
  // histogram fed the union of the samples — the property the layout check
  // protects.
  sim::Rng rng{11};
  Histogram whole, s1, s2;
  for (int i = 0; i < 4000; ++i) {
    const double x = rng.lognormal(-4.0, 1.0);
    whole.add(x);
    (i % 2 == 0 ? s1 : s2).add(x);
  }
  s1.merge(s2);
  EXPECT_EQ(s1.count(), whole.count());
  EXPECT_DOUBLE_EQ(s1.p50(), whole.p50());
  EXPECT_DOUBLE_EQ(s1.p99(), whole.p99());
}

// Property sweep: percentile estimates stay within the configured growth
// factor's relative error bound for several distributions.
class HistogramPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(HistogramPropertyTest, RelativeErrorWithinGrowthBound) {
  const int seed = GetParam();
  sim::Rng rng{static_cast<std::uint64_t>(seed)};
  Histogram h;
  std::vector<double> samples;
  for (int i = 0; i < 8000; ++i) {
    double x = 0.0;
    switch (seed % 3) {
      case 0: x = rng.exponential(50.0); break;
      case 1: x = rng.uniform(0.001, 0.5); break;
      default: x = rng.lognormal(std::log(0.05), 0.7); break;
    }
    samples.push_back(x);
    h.add(x);
  }
  std::sort(samples.begin(), samples.end());
  const double exact_p90 = samples[7200];
  // Bucket growth 1.04 plus interpolation: allow 8% relative error.
  EXPECT_NEAR(h.quantile(0.9), exact_p90, exact_p90 * 0.08);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HistogramPropertyTest, ::testing::Range(1, 13));

TEST(Breakdown, SharesSumToOne) {
  Breakdown b;
  StageTimes t;
  t[Stage::kPreprocess] = 0.002;
  t[Stage::kInference] = 0.001;
  t[Stage::kQueue] = 0.001;
  b.add(t);
  double total_share = 0.0;
  for (std::size_t i = 0; i < kStageCount; ++i) {
    total_share += b.share(static_cast<Stage>(i));
  }
  EXPECT_NEAR(total_share, 1.0, 1e-12);
  EXPECT_NEAR(b.share(Stage::kPreprocess), 0.5, 1e-12);
}

TEST(Breakdown, MeanTotalsMatch) {
  Breakdown b;
  for (int i = 1; i <= 4; ++i) {
    StageTimes t;
    t[Stage::kInference] = 0.001 * i;
    b.add(t);
  }
  EXPECT_EQ(b.count(), 4u);
  EXPECT_NEAR(b.mean_total(), 0.0025, 1e-12);
  EXPECT_NEAR(b.mean(Stage::kInference), 0.0025, 1e-12);
}

TEST(Breakdown, StageNamesDistinct) {
  for (std::size_t i = 0; i < kStageCount; ++i) {
    for (std::size_t j = i + 1; j < kStageCount; ++j) {
      EXPECT_NE(stage_name(static_cast<Stage>(i)), stage_name(static_cast<Stage>(j)));
    }
  }
}

TEST(EnergyAccumulator, PerImageAttribution) {
  EnergyAccumulator e;
  e.add_cpu(100.0, 2.0);  // 200 J
  e.add_gpu(300.0, 1.0);  // 300 J
  e.count_image(100);
  EXPECT_DOUBLE_EQ(e.cpu_joules_per_image(), 2.0);
  EXPECT_DOUBLE_EQ(e.gpu_joules_per_image(), 3.0);
  EXPECT_DOUBLE_EQ(e.joules_per_image(), 5.0);
  EXPECT_DOUBLE_EQ(e.total_joules(), 500.0);
}

TEST(EnergyAccumulator, NoImagesNoDivision) {
  EnergyAccumulator e;
  e.add_cpu(10.0, 1.0);
  EXPECT_DOUBLE_EQ(e.joules_per_image(), 0.0);
}

TEST(Table, AlignedOutputContainsAllCells) {
  Table t({"model", "tput", "count"});
  t.add_row({std::string("vit-base"), 1612.5, std::int64_t{3}});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("vit-base"), std::string::npos);
  EXPECT_NE(s.find("1612.50"), std::string::npos);
  EXPECT_NE(s.find("model"), std::string::npos);
}

TEST(Table, CsvEscaping) {
  Table t({"a", "b"});
  t.add_row({std::string("x,y"), std::string("q\"z")});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n\"x,y\",\"q\"\"z\"\n");
}

TEST(Table, MarkdownShape) {
  Table t({"h1", "h2"});
  t.add_row({1.0, 2.0});
  std::ostringstream os;
  t.print_markdown(os);
  EXPECT_NE(os.str().find("| h1 | h2 |"), std::string::npos);
  EXPECT_NE(os.str().find("|---|---|"), std::string::npos);
}

TEST(Table, RowArityMismatchThrows) {
  Table t({"only"});
  EXPECT_THROW(t.add_row({1.0, 2.0}), std::invalid_argument);
}

TEST(Table, PrecisionControl) {
  Table t({"v"});
  t.set_precision(4);
  t.add_row({3.14159});
  EXPECT_EQ(t.cell_text(0, 0), "3.1416");
}

}  // namespace
}  // namespace serve::metrics
