// Tests for the core orchestration layer: experiment runner variants,
// auto-tuner, arrival processes, and trace recording.
#include <gtest/gtest.h>

#include <sstream>

#include "core/autotuner.h"
#include "core/fleet.h"
#include "core/experiment.h"
#include "hw/tracing.h"
#include "models/model_zoo.h"
#include "sim/trace.h"
#include "workload/arrivals.h"

namespace serve::core {
namespace {

ExperimentSpec small_spec() {
  ExperimentSpec spec;
  spec.server.model = models::vit_base();
  spec.concurrency = 64;
  spec.warmup = sim::seconds(0.5);
  spec.measure = sim::seconds(2.0);
  return spec;
}

TEST(Experiment, DeterministicAcrossRuns) {
  const auto a = run_experiment(small_spec());
  const auto b = run_experiment(small_spec());
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_DOUBLE_EQ(a.throughput_rps, b.throughput_rps);
  EXPECT_DOUBLE_EQ(a.mean_latency_s, b.mean_latency_s);
}

TEST(Experiment, OpenLoopTracksOfferedRateBelowSaturation) {
  auto spec = small_spec();
  spec.measure = sim::seconds(8.0);
  const double rate = 500.0;  // well under the ~1800/s capacity
  const auto r = run_open_loop(spec, workload::poisson_arrivals(rate));
  EXPECT_NEAR(r.throughput_rps, rate, rate * 0.1);
  // Latency must be far below the closed-loop queueing regime.
  EXPECT_LT(r.mean_latency_s, 0.05);
}

TEST(Experiment, BurstyArrivalsInflateTailLatency) {
  auto spec = small_spec();
  spec.measure = sim::seconds(12.0);
  const double rate = 1200.0;
  const auto poisson = run_open_loop(spec, workload::poisson_arrivals(rate));
  const auto bursty = run_open_loop(spec, workload::mmpp2_arrivals(rate, 4.0, 0.4));
  EXPECT_GT(bursty.p99_latency_s, poisson.p99_latency_s * 1.5);
}

TEST(Experiment, DeterministicArrivalsAreSmoothest) {
  auto spec = small_spec();
  spec.measure = sim::seconds(6.0);
  const double rate = 1200.0;
  const auto det = run_open_loop(spec, workload::deterministic_arrivals(rate));
  const auto poisson = run_open_loop(spec, workload::poisson_arrivals(rate));
  EXPECT_LE(det.p99_latency_s, poisson.p99_latency_s * 1.05);
}

TEST(Arrivals, Validation) {
  EXPECT_THROW(workload::poisson_arrivals(0.0), std::invalid_argument);
  EXPECT_THROW(workload::deterministic_arrivals(-1.0), std::invalid_argument);
  EXPECT_THROW(workload::mmpp2_arrivals(100.0, 0.5), std::invalid_argument);
  EXPECT_THROW(workload::mmpp2_arrivals(100.0, 4.0, 0.0), std::invalid_argument);
}

TEST(Arrivals, MmppMeanRateMatches) {
  auto gen = workload::mmpp2_arrivals(1000.0, 4.0, 0.3);
  sim::Rng rng{17};
  sim::Time total = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) total += gen(rng);
  const double measured_rate = n / sim::to_seconds(total);
  EXPECT_NEAR(measured_rate, 1000.0, 60.0);
}

TEST(Autotuner, FindsBetterConfigThanBaseline) {
  auto base = small_spec();
  base.server.max_batch = 8;
  base.concurrency = 32;
  base.measure = sim::seconds(2.0);
  const auto baseline = run_experiment(base);

  TuneSpace space;
  space.max_batches = {8, 64};
  space.concurrencies = {32, 256};
  space.preproc_devices = {serving::PreprocDevice::kGpu};
  const auto report = tune_server(base, space);
  ASSERT_TRUE(report.found_feasible());
  EXPECT_EQ(report.trace.size(), 4u);
  EXPECT_GE(report.best.result.throughput_rps, baseline.throughput_rps);
  EXPECT_EQ(report.best.spec.server.max_batch, 64);
}

TEST(Autotuner, SloConstraintFiltersConfigs) {
  auto base = small_spec();
  base.measure = sim::seconds(2.0);
  TuneSpace space;
  space.max_batches = {64};
  space.concurrencies = {16, 2048};
  space.preproc_devices = {serving::PreprocDevice::kGpu};
  TuneObjective slo;
  slo.p99_slo_s = 0.100;  // 100 ms: 2048-way concurrency cannot meet this
  const auto report = tune_server(base, space, slo);
  ASSERT_TRUE(report.found_feasible());
  EXPECT_EQ(report.best.spec.concurrency, 16);
  // The infeasible point is still in the trace, marked infeasible.
  int infeasible = 0;
  for (const auto& p : report.trace) infeasible += p.feasible ? 0 : 1;
  EXPECT_EQ(infeasible, 1);
}

TEST(Fleet, AggregatesNodeThroughput) {
  FleetSpec spec;
  spec.server.model = models::vit_base();
  spec.gpus_per_node = {1, 1};
  spec.concurrency = 256;
  spec.warmup = sim::seconds(1.0);
  spec.measure = sim::seconds(4.0);
  const auto r = run_fleet(spec);
  ASSERT_EQ(r.node_throughput_rps.size(), 2u);
  // Logical goodput at the balancer matches the sum of node-side completions
  // (modulo requests straddling the window edges).
  EXPECT_NEAR(r.throughput_rps, r.node_throughput_rps[0] + r.node_throughput_rps[1], 50.0);
  EXPECT_NEAR(r.imbalance(), 1.0, 0.05);  // round-robin over equal nodes
  EXPECT_GT(r.throughput_rps, 3000.0);
}

TEST(Fleet, LeastOutstandingAdaptsToHeterogeneity) {
  FleetSpec spec;
  spec.server.model = models::vit_base();
  spec.gpus_per_node = {2, 1};
  spec.concurrency = 384;
  spec.warmup = sim::seconds(1.0);
  spec.measure = sim::seconds(4.0);
  spec.server.balancer.policy = BalancerPolicy::kRoundRobin;
  const auto rr = run_fleet(spec);
  spec.server.balancer.policy = BalancerPolicy::kLeastOutstanding;
  const auto jsq = run_fleet(spec);
  EXPECT_GT(jsq.throughput_rps, rr.throughput_rps);
  // JSQ routes proportionally more work to the 2-GPU node.
  EXPECT_GT(jsq.node_throughput_rps[0], 1.5 * jsq.node_throughput_rps[1]);
}

TEST(Fleet, RejectsEmptyFleet) {
  FleetSpec spec;
  spec.server.model = models::vit_base();
  spec.gpus_per_node = {};
  EXPECT_THROW((void)run_fleet(spec), std::invalid_argument);
}

TEST(Trace, RecordsAndExportsChromeJson) {
  sim::TraceRecorder trace;
  trace.span("gpu0.compute", "batch x32", sim::milliseconds(1), sim::milliseconds(3));
  trace.counter(trace.intern("cpu.cores"), 7.0, sim::milliseconds(2));
  std::ostringstream os;
  trace.write_chrome_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("batch x32"), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":2000"), std::string::npos);  // 2 ms in us
}

TEST(Trace, RejectsNegativeSpans) {
  sim::TraceRecorder trace;
  EXPECT_THROW(trace.span("t", "n", 10, 5), std::invalid_argument);
}

TEST(Trace, ExperimentEmitsUtilizationCounters) {
  auto spec = small_spec();
  spec.measure = sim::seconds(1.0);
  sim::TraceRecorder trace;
  spec.trace = &trace;
  (void)run_experiment(spec);
  EXPECT_GT(trace.counter_count(), 1000u);  // busy server: many transitions
  std::ostringstream os;
  trace.write_chrome_json(os);
  EXPECT_NE(os.str().find("gpu0.compute"), std::string::npos);
  EXPECT_NE(os.str().find("cpu.cores"), std::string::npos);
}

TEST(Trace, ClearResets) {
  sim::TraceRecorder trace;
  trace.counter(trace.intern("x"), 1.0, 0);
  EXPECT_FALSE(trace.empty());
  trace.clear();
  EXPECT_TRUE(trace.empty());
}

}  // namespace
}  // namespace serve::core
