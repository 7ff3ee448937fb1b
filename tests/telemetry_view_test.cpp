// Tests for the servescope CLI's shared reading layer (tools/telemetry_view.h):
// the cumulative-bucket quantile every subcommand uses, the instrument and
// capacity digests, and the two sparkline scales.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "../tools/telemetry_view.h"

namespace {

using telemetry::Histogram;

jsonmini::Value parse(const std::string& text) {
  jsonmini::Parser p{text};
  auto v = p.parse();
  EXPECT_TRUE(v.has_value()) << p.error();
  return v.value_or(jsonmini::Value{});
}

std::string ms(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f", seconds * 1e3);  // report's "p99 %.1f ms"
  return buf;
}

// 100 samples in [10 ms, 150 ms]; the top bucket's `le` (250 ms) lies far
// above the largest sample, so q = 0.99 interpolates past the max.
constexpr const char* kLatencyDoc = R"({"instruments": [
  {"kind": "histogram", "name": "serving_request_latency_seconds", "labels": {},
   "count": 100, "sum": 7.5, "min": 0.010, "max": 0.150,
   "buckets": [{"le": 0.05, "count": 40}, {"le": 0.1, "count": 90},
               {"le": 0.25, "count": 100}]}]})";

TEST(TelemetryView, QuantileClampsToHistogramMax) {
  const telemetry::Instruments ins = telemetry::digest(parse(kLatencyDoc));
  ASSERT_TRUE(ins.latency.has_value());
  const Histogram& h = *ins.latency;
  EXPECT_EQ(h.count, 100u);
  ASSERT_EQ(h.buckets.size(), 3u);

  // Interpolating 9/10 of the way into (0.1, 0.25] would give 235 ms.
  const double p99 = telemetry::quantile(h, 0.99);
  EXPECT_LE(p99, h.max);
  EXPECT_DOUBLE_EQ(p99, 0.150);
  // p50 sits 10/50 of the way into (0.05, 0.1].
  EXPECT_DOUBLE_EQ(telemetry::quantile(h, 0.50), 0.060);
  EXPECT_EQ(ms(telemetry::quantile(h, 0.50)), "60.0");
  EXPECT_EQ(ms(p99), "150.0");
  // A rank inside the first bucket starts from the observed min, not 0.
  EXPECT_DOUBLE_EQ(telemetry::quantile(h, 0.10), 0.010 + 0.25 * (0.05 - 0.010));
}

TEST(TelemetryView, AttainmentInterpolatesInsideTheStraddlingBucket) {
  const Histogram h = *telemetry::digest(parse(kLatencyDoc)).latency;
  EXPECT_DOUBLE_EQ(telemetry::attainment(h, 0.075), 0.65);  // 40 + 50/2
  EXPECT_DOUBLE_EQ(telemetry::attainment(h, 1.0), 1.0);
}

TEST(TelemetryView, EmptyHistogramQuantilesAreZero) {
  const Histogram empty;
  EXPECT_EQ(telemetry::quantile(empty, 0.99), 0.0);
  EXPECT_EQ(telemetry::attainment(empty, 0.25), 1.0);
}

TEST(TelemetryView, DigestKeysInstrumentsByLabelInExportOrder) {
  const telemetry::Instruments ins = telemetry::digest(parse(R"({"instruments": [
    {"name": "serving_requests_completed_total", "value": 10},
    {"name": "serving_stage_seconds_total", "labels": {"stage": "queue"}, "value": 2.0},
    {"name": "serving_stage_seconds_total", "labels": {"stage": "inference"}, "value": 3.0},
    {"name": "serving_stage_seconds_total", "labels": {"stage": "queue"}, "value": 0.5},
    {"name": "serving_stage_seconds_total", "value": 1.0},
    {"name": "obs_alerts_resolved_total", "labels": {"alert": "slo-burn-rate"}, "value": 1},
    {"name": "obs_alerts_fired_total", "labels": {"alert": "slo-burn-rate"}, "value": 2},
    {"name": "fleet_node_state", "labels": {"node": "node0"}, "value": 0.5},
    {"name": "fleet_node_dispatches_total", "labels": {"node": "node0"}, "value": 7}]})"));
  EXPECT_TRUE(ins.present);
  EXPECT_DOUBLE_EQ(ins.completed, 10.0);
  ASSERT_EQ(ins.stage_seconds.size(), 3u);
  EXPECT_EQ(ins.stage_seconds[0].first, "queue");
  EXPECT_DOUBLE_EQ(ins.stage_seconds[0].second, 2.5);
  EXPECT_EQ(ins.stage_seconds[1].first, "inference");
  EXPECT_EQ(ins.stage_seconds[2].first, "?");
  ASSERT_EQ(ins.alerts.size(), 1u);
  EXPECT_DOUBLE_EQ(ins.alerts[0].second.fired, 2.0);
  EXPECT_DOUBLE_EQ(ins.alerts[0].second.resolved, 1.0);
  ASSERT_EQ(ins.fleet.size(), 1u);
  EXPECT_DOUBLE_EQ(ins.fleet[0].second.state, 0.5);
  EXPECT_DOUBLE_EQ(ins.fleet[0].second.dispatches, 7.0);
  EXPECT_DOUBLE_EQ(ins.fleet[0].second.score, -1.0);  // not exported
  EXPECT_FALSE(ins.latency.has_value());

  EXPECT_FALSE(telemetry::digest(parse(R"({"schema": "x"})")).present);
}

TEST(TelemetryView, CapacitySectionParses) {
  EXPECT_FALSE(telemetry::capacity_of(parse("{}")).has_value());
  const auto cap = telemetry::capacity_of(parse(R"({"capacity": {
    "period_s": 0.5,
    "resources": [{"device": "gpu0", "engine": "compute", "capacity": 1,
                   "busy_frac": [0.2, 0.95, 1.0], "queue_mean": [0, 1, 2]},
                  {"device": "cpu", "engine": "preproc_workers", "capacity": 8,
                   "busy_frac": [0.1], "queue_mean": [0]}],
    "segments": [{"begin": 0, "end": 3, "resource": "gpu0.compute"}],
    "little_l": [1, 2, 3], "violation_intervals": [2],
    "sustainable_rps": 120.5, "binding": "gpu0.compute", "binding_stage": "inference"}})"));
  ASSERT_TRUE(cap.has_value());
  EXPECT_DOUBLE_EQ(cap->period_s, 0.5);
  ASSERT_EQ(cap->resources.size(), 2u);
  EXPECT_EQ(cap->resources[0].label, "gpu0.compute");
  EXPECT_EQ(cap->resources[1].capacity, 8.0);
  EXPECT_EQ(cap->intervals(), 3u);
  ASSERT_EQ(cap->segments.size(), 1u);
  EXPECT_EQ(cap->segments[0].end, 3u);
  EXPECT_EQ(cap->audited, 3u);
  ASSERT_EQ(cap->violations.size(), 1u);
  EXPECT_EQ(cap->violations[0], 2u);
  EXPECT_DOUBLE_EQ(cap->sustainable_rps, 120.5);
  EXPECT_EQ(cap->binding_stage, "inference");
}

TEST(TelemetryView, SparklineScales) {
  using telemetry::Scale;
  using telemetry::sparkline;
  // Unit scale keeps absolute levels; min/max stretches the same samples.
  EXPECT_EQ(sparkline({0.0, 0.5}, Scale::kUnit), "▁▅");
  EXPECT_EQ(sparkline({0.0, 0.5}, Scale::kMinMax), "▁█");
  EXPECT_EQ(sparkline({3.0, 3.0}, Scale::kMinMax), "▅▅");  // flat: mid-scale
  EXPECT_EQ(sparkline({}, Scale::kUnit), "(no samples)");
  EXPECT_EQ(sparkline({0.0, std::nan("")}, Scale::kUnit), "▁?");
  EXPECT_EQ(sparkline({std::nan("")}, Scale::kMinMax), "(no finite samples)");
  // Long series are averaged down to kSparkWidth columns.
  const std::vector<double> busy(4 * telemetry::kSparkWidth, 1.0);
  EXPECT_EQ(sparkline(busy, Scale::kUnit).size(),
            telemetry::kSparkWidth * std::string("█").size());
}

}  // namespace
