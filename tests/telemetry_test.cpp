// Tests for the unified telemetry layer: registry identity rules, flight-
// recorder determinism and ring wraparound, and exporter golden output.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "core/experiment.h"
#include "metrics/export.h"
#include "metrics/flight_recorder.h"
#include "metrics/registry.h"
#include "models/model_zoo.h"
#include "sim/fault_plan.h"
#include "sim/simulator.h"
#include "sim/trace.h"

namespace serve {
namespace {

using metrics::FlightRecorder;
using metrics::Registry;
using metrics::TelemetryExport;

// --- registry identity rules -------------------------------------------------

TEST(RegistryTest, SameNameAndLabelsReturnsSameInstrument) {
  Registry reg;
  auto a = reg.counter("requests_total", {{"stage", "queue"}});
  auto b = reg.counter("requests_total", {{"stage", "queue"}});
  a.inc(2.0);
  b.inc(3.0);
  EXPECT_DOUBLE_EQ(a.value(), 5.0);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(RegistryTest, LabelOrderDoesNotSplitInstruments) {
  Registry reg;
  auto a = reg.counter("x", {{"b", "2"}, {"a", "1"}});
  auto b = reg.counter("x", {{"a", "1"}, {"b", "2"}});
  a.inc();
  EXPECT_DOUBLE_EQ(b.value(), 1.0);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(RegistryTest, RejectsTypeCollision) {
  Registry reg;
  (void)reg.counter("metric");
  EXPECT_THROW((void)reg.gauge("metric"), std::invalid_argument);
  EXPECT_THROW((void)reg.histogram("metric"), std::invalid_argument);
}

TEST(RegistryTest, RejectsLabelKeySetCollision) {
  Registry reg;
  (void)reg.counter("metric", {{"device", "gpu0"}});
  // Same key set, different value: a new time series, allowed.
  EXPECT_NO_THROW((void)reg.counter("metric", {{"device", "gpu1"}}));
  // Different key set under the same name: the Prometheus label collision.
  EXPECT_THROW((void)reg.counter("metric", {{"stage", "queue"}}), std::invalid_argument);
  EXPECT_THROW((void)reg.counter("metric"), std::invalid_argument);
}

TEST(RegistryTest, RejectsDuplicateLabelKey) {
  Registry reg;
  EXPECT_THROW((void)reg.counter("metric", {{"k", "1"}, {"k", "2"}}), std::invalid_argument);
}

TEST(RegistryTest, FreezeCallbacksDetachesFromComponents) {
  Registry reg;
  int depth = 7;
  reg.gauge_fn("queue_depth", {}, [&depth] { return static_cast<double>(depth); });
  reg.freeze_callbacks();
  depth = 99;  // must not be observed any more
  const auto snap = reg.find("queue_depth");
  ASSERT_TRUE(snap.has_value());
  EXPECT_DOUBLE_EQ(snap->value, 7.0);
}

TEST(RegistryTest, CallbackReregistrationRebinds) {
  Registry reg;
  reg.gauge_fn("g", {}, [] { return 1.0; });
  reg.gauge_fn("g", {}, [] { return 2.0; });
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_DOUBLE_EQ(reg.find("g")->value, 2.0);
}

TEST(RegistryTest, DisabledHandlesAreNoops) {
  metrics::Counter c;
  metrics::Gauge g;
  metrics::HistogramHandle h;
  c.inc();
  g.set(5.0);
  h.observe(1.0);
  EXPECT_FALSE(c.enabled());
  EXPECT_FALSE(g.enabled());
  EXPECT_FALSE(h.enabled());
  EXPECT_DOUBLE_EQ(c.value(), 0.0);
}

// --- histogram additions -----------------------------------------------------

TEST(HistogramTest, P999AndBucketExport) {
  metrics::Histogram h;
  for (int i = 1; i <= 1000; ++i) h.add(static_cast<double>(i));
  EXPECT_GE(h.p999(), h.p99());
  EXPECT_GT(h.p999(), 900.0);
  EXPECT_DOUBLE_EQ(h.sum(), 500500.0);
  const auto buckets = h.nonzero_buckets();
  ASSERT_FALSE(buckets.empty());
  std::uint64_t total = 0;
  double prev_upper = -1.0;
  for (const auto& b : buckets) {
    EXPECT_GT(b.count, 0u);
    EXPECT_GT(b.upper, prev_upper);  // ascending, disjoint
    prev_upper = b.upper;
    total += b.count;
  }
  EXPECT_EQ(total, h.count());
}

// --- flight recorder ---------------------------------------------------------

TEST(FlightRecorderTest, SamplesOnCadenceAndStops) {
  Registry reg;
  auto c = reg.counter("events_total");
  FlightRecorder rec{reg, {.period = sim::milliseconds(10), .capacity = 128}};
  sim::Simulator sim;
  for (int i = 1; i <= 5; ++i) {
    sim.schedule_at(sim::milliseconds(10 * i - 5), [&c] { c.inc(); });
  }
  rec.start(sim);
  sim.run_until(sim::milliseconds(45));
  rec.stop();
  sim.run();  // drain must terminate with the recorder stopped

  const auto series = rec.series();
  ASSERT_EQ(series.size(), 1u);
  EXPECT_EQ(series[0].name, "events_total");
  // Ticks at t=0,10,...,40 -> counter values 0,1,2,3,4.
  ASSERT_EQ(series[0].samples.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(series[0].samples[i], static_cast<double>(i));
  }
}

TEST(FlightRecorderTest, RingWraparoundKeepsNewestSamples) {
  Registry reg;
  auto g = reg.gauge("value");
  FlightRecorder rec{reg, {.period = sim::milliseconds(1), .capacity = 4}};
  sim::Simulator sim;
  // Value tracks the tick index: sample k observes k.
  int k = 0;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(sim::milliseconds(i), [&g, &k] { g.set(static_cast<double>(k++)); });
  }
  rec.start(sim);
  sim.run_until(sim::milliseconds(9));
  rec.stop();

  const auto series = rec.series();
  ASSERT_EQ(series.size(), 1u);
  EXPECT_EQ(series[0].total_samples, 10u);
  EXPECT_EQ(series[0].start_tick, 6u);  // 10 samples, capacity 4 -> ticks 6..9
  ASSERT_EQ(series[0].samples.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(series[0].samples[i], static_cast<double>(6 + i));
  }
}

TEST(FlightRecorderTest, LateRegisteredInstrumentJoinsMidFlight) {
  Registry reg;
  (void)reg.counter("early");
  FlightRecorder rec{reg, {.period = sim::milliseconds(1), .capacity = 16}};
  sim::Simulator sim;
  sim.schedule_at(sim::milliseconds(2), [&reg] { (void)reg.gauge("late"); });
  rec.start(sim);
  sim.run_until(sim::milliseconds(5));
  rec.stop();

  const auto series = rec.series();
  ASSERT_EQ(series.size(), 2u);
  EXPECT_EQ(series[0].samples.size(), 6u);  // ticks 0..5
  EXPECT_EQ(series[1].name, "late");
  EXPECT_GE(series[1].start_tick, 2u);  // joined once its registration ran
  EXPECT_EQ(series[1].start_tick + series[1].samples.size(), 6u);
}

TEST(FlightRecorderTest, WallClockInstrumentsExcludedFromSeries) {
  Registry reg;
  auto w = reg.wall_clock_counter("self_seconds_total");
  (void)reg.counter("real_total");
  w.inc(0.5);
  FlightRecorder rec{reg};
  sim::Simulator sim;
  rec.start(sim);
  rec.stop();
  const auto series = rec.series();
  ASSERT_EQ(series.size(), 1u);
  EXPECT_EQ(series[0].name, "real_total");
}

// --- end-to-end determinism --------------------------------------------------

core::ExperimentSpec small_spec() {
  core::ExperimentSpec spec;
  spec.server.model = models::resnet50();
  spec.server.preproc = serving::PreprocDevice::kGpu;
  spec.concurrency = 64;
  spec.warmup = sim::seconds(0.5);
  spec.measure = sim::seconds(1.0);
  return spec;
}

std::string recorded_json(int concurrency) {
  const core::Session session{core::Session::kRecorder,
                              {.recorder = {.period = sim::milliseconds(50), .capacity = 64}}};
  auto spec = small_spec();
  spec.concurrency = concurrency;
  session.attach(spec);
  (void)core::run_experiment(spec);
  TelemetryExport exp;
  exp.set_context("figure", "determinism-test");
  session.capture(exp);
  std::ostringstream json, csv;
  exp.write_json(json);
  exp.write_csv(csv);
  return json.str() + "\n---\n" + csv.str();
}

TEST(TelemetryDeterminismTest, RepeatedRunsProduceBitIdenticalExports) {
  const std::string a = recorded_json(64);
  const std::string b = recorded_json(64);
  EXPECT_EQ(a, b);  // byte-for-byte, JSON and CSV
}

TEST(TelemetryDeterminismTest, DifferentRunsDiverge) {
  EXPECT_NE(recorded_json(64), recorded_json(32));
}

TEST(TelemetryDeterminismTest, InstrumentsAgreeWithExperimentResult) {
  Registry reg;
  auto spec = small_spec();
  spec.registry = &reg;
  const auto r = core::run_experiment(spec);
  // Registry counters are whole-run (submit..drain); the window-scoped
  // result can only be <= the cumulative completion counter.
  const auto completed = reg.find("serving_requests_completed_total");
  ASSERT_TRUE(completed.has_value());
  EXPECT_GE(completed->value, static_cast<double>(r.completed));
  const auto latency = reg.find("serving_request_latency_seconds");
  ASSERT_TRUE(latency.has_value());
  EXPECT_EQ(latency->count, static_cast<std::uint64_t>(completed->value));
  EXPECT_FALSE(latency->buckets.empty());
}

// --- exporter golden output --------------------------------------------------

TelemetryExport tiny_export() {
  // Deterministic fixture: fixed, binary-exact values; the export snapshots
  // the registry, so a local one is fine.
  Registry reg;
  auto c = reg.counter("requests_total", {{"stage", "queue"}});
  c.inc(41.0);
  c.inc();
  auto g = reg.gauge("depth");
  g.set(3.5);
  auto h = reg.histogram("latency_seconds");
  h.observe(0.5);
  h.observe(0.5);
  h.observe(2.0);
  TelemetryExport exp;
  exp.set_context("figure", "golden");
  exp.add_benchmark({"bench/a", 12.5, "ms", {{"tput", 80.0}}});
  exp.add_check({"claim holds", true, "42 == 42"});
  exp.capture_instruments(reg);
  return exp;
}

TEST(ExporterGoldenTest, Json) {
  std::ostringstream out;
  tiny_export().write_json(out);
  // Exact prefix up to the histogram's bucket edges (which depend on the
  // geometric bucket layout — asserted structurally instead).
  const std::string expected_prefix = R"({
  "schema": "servescope-telemetry-v1",
  "context": {"figure": "golden"},
  "benchmarks": [
    {"name": "bench/a", "real_time": 12.5, "time_unit": "ms", "tput": 80}
  ],
  "checks": [
    {"claim": "claim holds", "pass": true, "detail": "42 == 42"}
  ],
  "tables": [],
  "instruments": [
    {"name": "requests_total", "labels": {"stage":"queue"}, "type": "counter", "value": 42},
    {"name": "depth", "labels": {}, "type": "gauge", "value": 3.5},
    {"name": "latency_seconds", "labels": {}, "type": "histogram", "count": 3, "sum": 3, "min": 0.5, "max": 2, "buckets": [)";
  EXPECT_EQ(out.str().substr(0, expected_prefix.size()), expected_prefix);
  EXPECT_NE(out.str().find("\"buckets\": [{\"le\": "), std::string::npos);
  EXPECT_NE(out.str().find(", \"count\": 3}]}"), std::string::npos);  // cumulative tail bucket
  EXPECT_EQ(out.str().substr(out.str().size() - 3), "\n}\n");
}

TEST(ExporterGoldenTest, Csv) {
  std::ostringstream out;
  tiny_export().write_csv(out);
  const std::string text = out.str();
  EXPECT_EQ(text.substr(0, text.find('\n')), "record,name,labels,x,value");
  EXPECT_NE(text.find("counter,requests_total,stage=queue,,42\n"), std::string::npos);
  EXPECT_NE(text.find("gauge,depth,,,3.5\n"), std::string::npos);
  EXPECT_NE(text.find("histogram,latency_seconds,,count,3\n"), std::string::npos);
  EXPECT_NE(text.find("histogram,latency_seconds,,sum,3\n"), std::string::npos);
  EXPECT_NE(text.find("bucket,latency_seconds,"), std::string::npos);
}

TEST(ExporterGoldenTest, Prometheus) {
  std::ostringstream out;
  tiny_export().write_prometheus(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("# TYPE requests_total counter\n"
                      "requests_total{stage=\"queue\"} 42\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE depth gauge\ndepth 3.5\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE latency_seconds histogram\n"), std::string::npos);
  EXPECT_NE(text.find("latency_seconds_bucket{le=\"+Inf\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("latency_seconds_sum 3\n"), std::string::npos);
  EXPECT_NE(text.find("latency_seconds_count 3\n"), std::string::npos);
}

TEST(ExporterCsvQuotingTest, HostileLabelValuesStayOneFieldPerColumn) {
  Registry reg;
  // RFC-4180 hazards: embedded comma, double quote, and CR/LF in a label
  // value. A reader splitting on commas must still see exactly 5 columns.
  auto c = reg.counter("requests_total", {{"route", "a,b"}});
  c.inc(7.0);
  auto g = reg.gauge("depth", {{"note", "say \"hi\""}});
  g.set(1.0);
  auto g2 = reg.gauge("depth2", {{"raw", "line1\r\nline2"}});
  g2.set(2.0);
  TelemetryExport exp;
  exp.capture_instruments(reg);
  std::ostringstream out;
  exp.write_csv(out);
  const std::string text = out.str();
  // Comma-bearing value is quoted whole; embedded quotes are doubled.
  EXPECT_NE(text.find("counter,requests_total,\"route=a,b\",,7\n"), std::string::npos);
  EXPECT_NE(text.find("gauge,depth,\"note=say \"\"hi\"\"\",,1\n"), std::string::npos);
  EXPECT_NE(text.find("\"raw=line1\r\nline2\""), std::string::npos);
  // The unquoted form must NOT appear (it would split the row).
  EXPECT_EQ(text.find("counter,requests_total,route=a,b,,7"), std::string::npos);
}

TEST(ExporterExemplarTest, JsonCarriesBucketExemplarsWhenTracked) {
  Registry reg;
  auto h = reg.histogram("latency_seconds", {}, {.track_exemplars = true});
  h.observe(0.010, /*trace_id=*/7);
  h.observe(5.0, /*trace_id=*/42);
  h.observe(5.0, /*trace_id=*/43);  // last-write-wins in the same bucket
  TelemetryExport exp;
  exp.capture_instruments(reg);
  std::ostringstream out;
  exp.write_json(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("\"exemplar\": {\"trace_id\": 7, \"value\": 0.01}"), std::string::npos);
  EXPECT_NE(text.find("\"exemplar\": {\"trace_id\": 43, \"value\": 5}"), std::string::npos);
  EXPECT_EQ(text.find("\"trace_id\": 42"), std::string::npos);

  // Without tracking (the default), no exemplar keys appear at all.
  Registry plain;
  auto hp = plain.histogram("latency_seconds");
  hp.observe(5.0, /*trace_id=*/42);
  TelemetryExport exp2;
  exp2.capture_instruments(plain);
  std::ostringstream out2;
  exp2.write_json(out2);
  EXPECT_EQ(out2.str().find("exemplar"), std::string::npos);
}

// --- trace instants ----------------------------------------------------------

TEST(TraceInstantTest, FaultWindowsAnnotateTrace) {
  sim::FaultPlan plan;
  plan.add({.kind = sim::FaultKind::kBrokerOutage,
            .begin = sim::seconds(1.0),
            .end = sim::seconds(2.0)});
  sim::TraceRecorder trace;
  core::ObserverWiring{{.trace = &trace}}.bind({}, &plan);
  EXPECT_EQ(trace.instant_count(), 2u);
  EXPECT_EQ(trace.span_count(), 0u);  // the window span comes with auditing
  std::ostringstream out;
  trace.write_chrome_json(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(text.find("broker-outage open"), std::string::npos);
  EXPECT_NE(text.find("broker-outage close"), std::string::npos);
}

}  // namespace
}  // namespace serve
