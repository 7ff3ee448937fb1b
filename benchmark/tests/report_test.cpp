// Unit tests for the rules servescope_bench reports its numbers by.
#include "report.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <vector>

namespace serve::perf {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Median, OddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(TailPercentile, P99OverTwoThousandKeepsTwentyBeyond) {
  const TailPercentile t = tail_percentile(one_to(2000));
  EXPECT_DOUBLE_EQ(t.value, 1980.0);
  EXPECT_EQ(t.beyond, 20u);
  EXPECT_DOUBLE_EQ(t.percentile, 99.0);
}

TEST(TailPercentile, ClampsSoTenSamplesStayBeyond) {
  // 100 repetitions: nominal p99 is the 99th sample, but only one would lie
  // beyond it; the rule falls back to the sample with ten above it.
  const TailPercentile t = tail_percentile(one_to(100));
  EXPECT_DOUBLE_EQ(t.value, 90.0);
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_DOUBLE_EQ(t.percentile, 90.0);
}

TEST(TailPercentile, NeedsMoreThanTenSamples) {
  const TailPercentile none = tail_percentile(one_to(10));
  EXPECT_DOUBLE_EQ(none.value, 0.0);
  EXPECT_DOUBLE_EQ(none.percentile, 0.0);
  const TailPercentile t = tail_percentile(one_to(11));
  EXPECT_DOUBLE_EQ(t.value, 1.0);
  EXPECT_EQ(t.beyond, 10u);
}

TEST(TailPercentile, OrderOfInputDoesNotMatter) {
  std::vector<double> v = one_to(500);
  std::reverse(v.begin(), v.end());
  EXPECT_DOUBLE_EQ(tail_percentile(v).value, 490.0);  // p99 clamped to p98
}

TEST(BatchRates, FirstBatchAnchorsTheClock) {
  // Batches of 16 every 10 ms, except one slow 40 ms gap: the median rate
  // ignores the outlier and the first batch contributes no rate.
  const std::vector<double> sizes = {16, 16, 16, 16, 16};
  const std::vector<double> done = {0.100, 0.110, 0.120, 0.160, 0.170};
  const std::vector<double> rates = batch_rates(sizes, done);
  ASSERT_EQ(rates.size(), 4u);
  EXPECT_NEAR(rates[2], 400.0, 1e-6);
  EXPECT_NEAR(median(rates), 1600.0, 1e-6);
}

TEST(BatchRates, MedianOfBatchesUsesEachBatchSize) {
  const std::vector<double> rates = batch_rates({4, 8, 2}, {1.0, 1.5, 2.5});
  ASSERT_EQ(rates.size(), 2u);
  EXPECT_DOUBLE_EQ(rates[0], 16.0);
  EXPECT_DOUBLE_EQ(rates[1], 2.0);
  EXPECT_DOUBLE_EQ(median(rates), 9.0);
}

TEST(BatchRates, FewerThanTwoBatchesGiveNoRate) {
  EXPECT_TRUE(batch_rates({16}, {0.5}).empty());
  EXPECT_DOUBLE_EQ(median(batch_rates({}, {})), 0.0);
}

TEST(Ladder, PassRuleChecksLatencyCompletionAndLateness) {
  const LadderStep good{1000.0, 49.0, 0.995, 9000.0};
  EXPECT_TRUE(step_passes(good));
  LadderStep s = good;
  s.p99_ms = 50.5;
  EXPECT_FALSE(step_passes(s));
  s = good;
  s.done_ratio = 0.98;
  EXPECT_FALSE(step_passes(s));
  s = good;
  s.late_p99_us = 10'001.0;
  EXPECT_FALSE(step_passes(s));
  s = good;
  s.p99_ms = 50.0;
  s.done_ratio = 0.99;
  s.late_p99_us = 10'000.0;
  EXPECT_TRUE(step_passes(s)) << "limits are inclusive";
}

TEST(Ladder, MaxRateIsTheHighestPassingStep) {
  const std::vector<LadderStep> steps = {
      {250, 5, 1.0, 100}, {500, 6, 1.0, 100}, {1000, 80, 0.9, 100}, {2000, 40, 1.0, 100}};
  EXPECT_DOUBLE_EQ(max_rate_passing(steps), 2000.0);
  EXPECT_DOUBLE_EQ(max_rate_passing({{250, 90, 1.0, 0}}), 0.0);
}

TEST(Digest, EqualOnlyForBitwiseEqualFields) {
  Digest a, b, c;
  a.add(std::uint64_t{42});
  a.add(0.1 + 0.2);
  b.add(std::uint64_t{42});
  b.add(0.1 + 0.2);
  c.add(std::uint64_t{42});
  c.add(0.3);  // differs from 0.1 + 0.2 in the last bit
  EXPECT_EQ(a.str(), b.str());
  EXPECT_NE(a.str(), c.str());
  EXPECT_EQ(a.str().size(), 32u);
}

TEST(MetricName, AlphabetAndLength) {
  EXPECT_TRUE(valid_metric_name("req_per_s"));
  EXPECT_TRUE(valid_metric_name("ladder.r4000.p99_ms"));
  EXPECT_TRUE(valid_metric_name("0-start.ok"));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name("_leading"));
  EXPECT_FALSE(valid_metric_name(".leading"));
  EXPECT_FALSE(valid_metric_name("has space"));
  EXPECT_FALSE(valid_metric_name("quote\"d"));
  EXPECT_FALSE(valid_metric_name("slash/ed"));
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
}

TEST(MetricUnit, Alphabet) {
  EXPECT_TRUE(valid_unit("req/s"));
  EXPECT_TRUE(valid_unit("%"));
  EXPECT_TRUE(valid_unit("sim_ms"));
  EXPECT_FALSE(valid_unit(""));
  EXPECT_FALSE(valid_unit("m s"));
  EXPECT_FALSE(valid_unit(std::string(17, 'x')));
}

TEST(Json, ExactSchema) {
  RunResult r;
  r.attempted = 12;
  r.add("latency_ms", 1.25, "ms");
  r.add("setup_s", 0.1, "s");
  r.note("reps", 12, "count");  // lines only, never in the JSON object
  EXPECT_EQ(validate(r), "");
  EXPECT_EQ(to_json(r),
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {"
            "\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, "
            "\"setup_s\": {\"value\": 0.10000000000000001, \"unit\": \"s\"}}}");
  EXPECT_EQ(metric_line(r.metrics[0]), "latency_ms 1.25 ms");
}

TEST(Json, FailedRunIsNotCorrect) {
  RunResult r;
  r.attempted = 5;
  r.failed = 1;
  EXPECT_NE(to_json(r).find("\"correct\": false"), std::string::npos);
  EXPECT_FALSE(RunResult{}.correct()) << "nothing attempted is not a correct run";
}

TEST(Json, ValidateRejectsWhatJsonCannotCarry) {
  RunResult r;
  r.add("x", std::numeric_limits<double>::quiet_NaN(), "ms");
  EXPECT_NE(validate(r), "");
  r.metrics = {{"x", 1.0, "ms"}};
  r.note("x", 2.0, "ms");
  EXPECT_NE(validate(r), "") << "duplicate across metrics and diagnostics";
  r.diagnostics.clear();
  r.metrics = {{"bad name", 1.0, "ms"}};
  EXPECT_NE(validate(r), "");
  r.metrics = {{"ok", 1.0, "bad unit"}};
  EXPECT_NE(validate(r), "");
}

}  // namespace
}  // namespace serve::perf
