// Tests for the capacity plane: gauge-aliasing regression (point samples vs
// time-weighted interval means), sim::Resource monotone interval counters
// across reset_stats(), CapacityPlane interval differencing / bottleneck
// attribution / headroom math, snapshot determinism + export wiring, and the
// Little's-law audit under fault-plan scenarios (GPU failure, PCIe degrade,
// fleet node crash/gray) where deviations must land only in fault windows.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/fleet.h"
#include "metrics/export.h"
#include "metrics/flight_recorder.h"
#include "metrics/registry.h"
#include "models/model_zoo.h"
#include "obs/alert_engine.h"
#include "obs/capacity_plane.h"
#include "sim/fault_plan.h"
#include "sim/resource.h"
#include "sim/simulator.h"
#include "workload/arrivals.h"

namespace serve::obs {
namespace {

// ---------------------------------------------------------------------------
// Satellite: gauge-aliasing regression. A square wave synchronized against
// the sampling cadence is invisible to a point-sampled gauge but exact under
// interval differencing of the monotone busy integral.

TEST(GaugeAliasing, PointSamplesMissSquareWaveIntervalMeansAreExact) {
  sim::Simulator sim;
  metrics::Registry reg;
  sim::Resource dev{sim, 1, "dev"};
  reg.gauge_fn("dev_in_use", {}, [&dev] { return static_cast<double>(dev.in_use()); });

  metrics::FlightRecorder rec{reg, {.period = sim::milliseconds(10), .capacity = 64}};
  // Interval busy fractions from the monotone integral, differenced on the
  // same cadence the gauge is sampled on.
  std::vector<double> interval_means;
  double prev_busy = 0.0;
  sim::Time prev_t = 0;
  bool have_prev = false;
  rec.add_tick_listener([&](sim::Time now, std::uint64_t) {
    const double busy = dev.busy_seconds_total();
    if (have_prev && now > prev_t) {
      interval_means.push_back((busy - prev_busy) / sim::to_seconds(now - prev_t));
    }
    prev_busy = busy;
    prev_t = now;
    have_prev = true;
  });

  // Busy during [2, 7) ms of every 10 ms cycle: 50% duty, yet every sampling
  // instant t = k*10ms lands in the idle phase.
  auto wave = [&](sim::Simulator& s) -> sim::Process {
    for (int i = 0; i < 10; ++i) {
      co_await s.wait(sim::milliseconds(2));
      {
        auto tok = co_await dev.acquire();
        co_await s.wait(sim::milliseconds(5));
      }
      co_await s.wait(sim::milliseconds(3));
    }
  };
  sim.spawn(wave(sim));
  rec.start(sim);
  sim.run_until(sim::milliseconds(100));
  rec.stop();
  sim.run();

  const auto series = rec.series();
  ASSERT_EQ(series.size(), 1u);
  EXPECT_EQ(series[0].name, "dev_in_use");
  ASSERT_GE(series[0].samples.size(), 10u);
  for (const double s : series[0].samples) {
    EXPECT_DOUBLE_EQ(s, 0.0);  // the point-sampled gauge reads a dead device
  }
  ASSERT_EQ(interval_means.size(), 10u);
  for (const double m : interval_means) {
    EXPECT_NEAR(m, 0.5, 1e-9);  // the integral knows it ran half the time
  }
}

// ---------------------------------------------------------------------------
// Satellite: sim::Resource interval-delta reads survive reset_stats().

TEST(ResourceIntervals, WindowDeltasSumToCumulativeAcrossResetStats) {
  sim::Simulator sim;
  sim::Resource pool{sim, 2, "pool"};

  auto job = [&](sim::Simulator& s, sim::Time start, sim::Time hold) -> sim::Process {
    co_await s.wait(start);
    auto tok = co_await pool.acquire();
    co_await s.wait(hold);
  };
  // In-use curve: 1 on [0, 0.5), 2 on [0.5, 2.5), 1 on [2.5, 3.5).
  // Queue curve: C waits [0.6, 1.5) -> 0.9 waiter-seconds total.
  sim.spawn(job(sim, sim::seconds(0.0), sim::seconds(1.5)));  // A: [0, 1.5)
  sim.spawn(job(sim, sim::seconds(0.5), sim::seconds(2.0)));  // B: [0.5, 2.5)
  sim.spawn(job(sim, sim::seconds(0.6), sim::seconds(2.0)));  // C: waits, [1.5, 3.5)

  double w1_busy = 0.0, w1_queue = 0.0;
  sim.schedule_at(sim::seconds(1.0), [&] {
    w1_busy = pool.busy_seconds_total();
    w1_queue = pool.queue_seconds_total();
    // Mid-run window reset (the experiment harness does this at warmup end)
    // must not disturb the monotone interval counters.
    pool.reset_stats();
  });
  sim.run_until(sim::seconds(4.0));

  const double total_busy = pool.busy_seconds_total();
  const double total_queue = pool.queue_seconds_total();
  const double w2_busy = total_busy - w1_busy;
  const double w2_queue = total_queue - w1_queue;

  // Window 1 = [0, 1): busy 0.5*1 + 0.5*2 = 1.5, queue [0.6, 1) = 0.4.
  EXPECT_NEAR(w1_busy, 1.5, 1e-9);
  EXPECT_NEAR(w1_queue, 0.4, 1e-9);
  // Window 2 = [1, 4): busy 0.5*2 + 1.0*2 + 1.0*1 = 4.0, queue [1, 1.5) = 0.5.
  EXPECT_NEAR(w2_busy, 4.0, 1e-9);
  EXPECT_NEAR(w2_queue, 0.5, 1e-9);
  // Back-to-back windows sum to the cumulative total exactly.
  EXPECT_NEAR(w1_busy + w2_busy, total_busy, 1e-12);
  EXPECT_NEAR(w1_queue + w2_queue, total_queue, 1e-12);
  EXPECT_NEAR(total_busy, 5.5, 1e-9);
  EXPECT_NEAR(total_queue, 0.9, 1e-9);

  // The windowed view DID reset: utilization covers [1, 4) only
  // (4.0 unit-seconds / (3 s * capacity 2)).
  EXPECT_NEAR(pool.utilization(), 4.0 / 6.0, 1e-9);
}

// ---------------------------------------------------------------------------
// CapacityPlane unit tests (ticks driven directly, synthetic counters).

struct SynthResource {
  metrics::Counter busy;
  metrics::Counter queue;
  metrics::Gauge capacity;

  SynthResource(metrics::Registry& reg, const std::string& device, const std::string& engine,
                double cap) {
    const metrics::Labels labels{{"device", device}, {"engine", engine}};
    busy = reg.counter("hw_resource_busy_seconds_total", labels);
    queue = reg.counter("hw_resource_queue_seconds_total", labels);
    capacity = reg.gauge("hw_resource_capacity", labels);
    capacity.set(cap);
  }
};

constexpr sim::Time kTick = sim::milliseconds(100);

TEST(CapacityPlaneTest, DifferencesIntegralsIntoExactIntervalMeans) {
  metrics::Registry reg;
  SynthResource gpu{reg, "gpu0", "compute", 2.0};
  CapacityPlane plane{reg};

  plane.observe(0, 0);  // baseline tick: no interval yet
  EXPECT_EQ(plane.intervals(), 0u);

  gpu.busy.inc(0.15);   // 0.15 unit-seconds over 0.1 s at capacity 2 -> 75%
  gpu.queue.inc(0.05);  // 0.05 waiter-seconds over 0.1 s -> mean depth 0.5
  plane.observe(kTick, 1);
  ASSERT_EQ(plane.intervals(), 1u);
  ASSERT_EQ(plane.resources().size(), 1u);
  const auto& tl = plane.resources()[0];
  EXPECT_EQ(tl.label(), "gpu0.compute");
  EXPECT_DOUBLE_EQ(tl.capacity, 2.0);
  EXPECT_NEAR(tl.busy_frac[0], 0.75, 1e-12);
  EXPECT_NEAR(tl.queue_mean[0], 0.5, 1e-12);

  // An impossible delta (> dt * capacity) clamps to 1 instead of leaking.
  gpu.busy.inc(5.0);
  plane.observe(2 * kTick, 2);
  EXPECT_DOUBLE_EQ(plane.resources()[0].busy_frac[1], 1.0);
}

TEST(CapacityPlaneTest, LateResourceBackfillsIdleIntervals) {
  metrics::Registry reg;
  SynthResource cpu{reg, "cpu", "preproc_workers", 8.0};
  CapacityPlane plane{reg};

  plane.observe(0, 0);
  cpu.busy.inc(0.4);
  plane.observe(kTick, 1);
  cpu.busy.inc(0.4);
  plane.observe(2 * kTick, 2);
  ASSERT_EQ(plane.intervals(), 2u);

  // A resource whose instruments appear mid-flight back-fills its earlier
  // intervals with zeros (absent == not yet modeled == idle) and needs one
  // tick to establish its own baseline.
  SynthResource gpu{reg, "gpu0", "compute", 1.0};
  gpu.busy.inc(123.0);  // pre-baseline total must not leak into an interval
  cpu.busy.inc(0.4);
  plane.observe(3 * kTick, 3);
  gpu.busy.inc(0.09);
  cpu.busy.inc(0.4);
  plane.observe(4 * kTick, 4);

  ASSERT_EQ(plane.resources().size(), 2u);
  const auto& late = plane.resources()[1];
  EXPECT_EQ(late.label(), "gpu0.compute");
  ASSERT_EQ(late.busy_frac.size(), 4u);
  EXPECT_DOUBLE_EQ(late.busy_frac[0], 0.0);
  EXPECT_DOUBLE_EQ(late.busy_frac[1], 0.0);
  EXPECT_DOUBLE_EQ(late.busy_frac[2], 0.0);  // baseline interval
  EXPECT_NEAR(late.busy_frac[3], 0.9, 1e-12);
  // The early resource's timeline stays aligned.
  ASSERT_EQ(plane.resources()[0].busy_frac.size(), 4u);
  EXPECT_NEAR(plane.resources()[0].busy_frac[3], 0.5, 1e-12);
}

TEST(CapacityPlaneTest, BindingArgmaxSegmentsAndDominantResource) {
  metrics::Registry reg;
  SynthResource cpu{reg, "cpu", "preproc_workers", 1.0};
  SynthResource gpu{reg, "gpu0", "compute", 1.0};
  CapacityPlane plane{reg};
  plane.observe(0, 0);

  auto tick = [&](double cpu_frac, double gpu_frac, std::uint64_t k) {
    cpu.busy.inc(cpu_frac * 0.1);
    gpu.busy.inc(gpu_frac * 0.1);
    plane.observe(static_cast<sim::Time>(k) * kTick, k);
  };
  tick(0.9, 0.3, 1);   // cpu binds
  tick(0.8, 0.2, 2);   // cpu binds
  tick(0.2, 0.7, 3);   // gpu binds
  tick(0.01, 0.02, 4); // everything under the idle floor -> idle
  tick(0.5, 0.5, 5);   // exact tie -> earlier registration (cpu) wins

  const auto& binding = plane.binding();
  ASSERT_EQ(binding.size(), 5u);
  EXPECT_EQ(binding[0], 0u);
  EXPECT_EQ(binding[1], 0u);
  EXPECT_EQ(binding[2], 1u);
  EXPECT_EQ(binding[3], CapacityPlane::kIdle);
  EXPECT_EQ(binding[4], 0u);

  const auto segs = plane.segments();
  ASSERT_EQ(segs.size(), 4u);
  EXPECT_EQ(segs[0].begin, 0u);
  EXPECT_EQ(segs[0].end, 2u);
  EXPECT_EQ(segs[0].resource, 0u);
  EXPECT_EQ(segs[1].resource, 1u);
  EXPECT_EQ(segs[2].resource, CapacityPlane::kIdle);
  EXPECT_EQ(segs[3].resource, 0u);

  EXPECT_EQ(plane.dominant_resource(), 0u);  // 3 intervals vs 1
  EXPECT_EQ(plane.dominant_stage(), metrics::Stage::kPreprocess);
}

TEST(CapacityPlaneTest, StageTaxonomyMapsEnginesToPaperStages) {
  using metrics::Stage;
  EXPECT_EQ(stage_for_resource("cpu", "preproc_workers"), Stage::kPreprocess);
  EXPECT_EQ(stage_for_resource("gpu0", "preproc"), Stage::kPreprocess);
  EXPECT_EQ(stage_for_resource("gpu1", "compute"), Stage::kInference);
  EXPECT_EQ(stage_for_resource("host", "pcie"), Stage::kTransfer);
  EXPECT_EQ(stage_for_resource("gpu0", "copy_h2d"), Stage::kTransfer);
  EXPECT_EQ(stage_for_resource("broker", "io"), Stage::kBroker);
  EXPECT_EQ(stage_for_resource("cpu", "cores"), Stage::kIngest);
}

TEST(CapacityPlaneTest, LittleAuditFlagsOnlyMeaningfulDeviations) {
  metrics::Registry reg;
  auto occ = reg.counter("serving_in_flight_seconds_total");
  auto lat = reg.counter("serving_latency_seconds_total");
  CapacityPlane plane{reg};
  plane.observe(0, 0);

  // Steady state: L == lambda*W == 10 -> clean.
  occ.inc(1.0);
  lat.inc(1.0);
  plane.observe(kTick, 1);
  // Backlog growth: L = 20 vs lambda*W = 10 (deviation 0.5 > 0.15) -> flagged.
  occ.inc(2.0);
  lat.inc(1.0);
  plane.observe(2 * kTick, 2);
  // Same relative deviation near idle (L = 0.04): under the occupancy floor,
  // noise-vs-noise never flags.
  occ.inc(0.004);
  lat.inc(0.002);
  plane.observe(3 * kTick, 3);

  ASSERT_EQ(plane.little().size(), 3u);
  EXPECT_FALSE(plane.little()[0].violated);
  EXPECT_NEAR(plane.little()[0].l, 10.0, 1e-9);
  EXPECT_NEAR(plane.little()[0].lambda_w, 10.0, 1e-9);
  EXPECT_TRUE(plane.little()[1].violated);
  EXPECT_NEAR(plane.little()[1].deviation, 0.5, 1e-9);
  EXPECT_FALSE(plane.little()[2].violated);
  EXPECT_EQ(plane.violations(), 1u);
  EXPECT_EQ(plane.violation_intervals(), (std::vector<std::size_t>{1}));

  const auto counter = reg.find("obs_capacity_little_violations_total", {});
  ASSERT_TRUE(counter.has_value());
  EXPECT_DOUBLE_EQ(counter->value, 1.0);
}

TEST(CapacityPlaneTest, SustainableRpsIsMedianOverUsableIntervals) {
  metrics::Registry reg;
  auto demand = reg.counter("serving_requests_submitted_total");
  SynthResource gpu{reg, "gpu0", "compute", 1.0};
  CapacityPlane plane{reg};
  plane.observe(0, 0);

  auto tick = [&](double util, double rate, std::uint64_t k) {
    gpu.busy.inc(util * 0.1);
    demand.inc(rate * 0.1);
    plane.observe(static_cast<sim::Time>(k) * kTick, k);
  };
  tick(0.50, 100.0, 1);  // est 200
  tick(0.10, 100.0, 2);  // under headroom_min_util (and idle floor): skipped
  tick(0.99, 500.0, 3);  // over headroom_max_util (clipped lambda): skipped
  tick(0.80, 100.0, 4);  // est 125
  tick(0.40, 80.0, 5);   // est 200

  // Sorted estimates {125, 200, 200}: deterministic lower-median -> 200.
  EXPECT_NEAR(plane.sustainable_rps(), 200.0, 1e-9);
}

TEST(CapacityPlaneTest, SnapshotIsDeterministicAndExportsCapacitySection) {
  auto drive = [](CapacityPlane& plane, metrics::Registry& reg) {
    auto demand = reg.counter("serving_requests_submitted_total");
    auto occ = reg.counter("serving_in_flight_seconds_total");
    auto lat = reg.counter("serving_latency_seconds_total");
    SynthResource cpu{reg, "cpu", "preproc_workers", 4.0};
    SynthResource gpu{reg, "gpu0", "compute", 1.0};
    plane.observe(0, 0);
    for (std::uint64_t k = 1; k <= 6; ++k) {
      cpu.busy.inc(k <= 3 ? 0.36 : 0.08);
      gpu.busy.inc(k <= 3 ? 0.03 : 0.095);
      cpu.queue.inc(0.02);
      demand.inc(40.0);
      occ.inc(k == 4 ? 2.0 : 1.0);
      lat.inc(1.0);
      plane.observe(static_cast<sim::Time>(k) * kTick, k);
    }
  };

  std::string out[2];
  for (auto& text : out) {
    metrics::Registry reg;
    CapacityPlane plane{reg};
    drive(plane, reg);
    metrics::TelemetryExport exp;
    exp.set_capacity(plane.snapshot());
    std::ostringstream ss;
    exp.write_json(ss);
    text = ss.str();
  }
  EXPECT_EQ(out[0], out[1]);  // byte-identical across identical drives

  // The exported section carries the attribution verdict and audit series.
  EXPECT_NE(out[0].find("\"capacity\""), std::string::npos);
  EXPECT_NE(out[0].find("\"binding\": \"cpu.preproc_workers\""), std::string::npos);
  EXPECT_NE(out[0].find("\"binding_stage\": \"preprocess\""), std::string::npos);
  EXPECT_NE(out[0].find("\"segments\""), std::string::npos);
  EXPECT_NE(out[0].find("\"violation_intervals\""), std::string::npos);
  EXPECT_NE(out[0].find("\"sustainable_rps\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Satellite: Little's-law audit under fault-plan scenarios. Deviations (and
// only deviations) must land inside the fault windows (+ a short drain tail);
// the first second of rampup is excluded like the bench does.

constexpr double kPeriodS = 0.2;
constexpr double kStartupGraceS = 1.0;
constexpr metrics::FlightRecorder::Options kAuditRecorder{.period = sim::milliseconds(200),
                                                          .capacity = 256};

struct AuditRun {
  // Batch-quantized completions make per-interval lambda*W jumpy; 200 ms
  // intervals + this tolerance keep the steady state clean while backlog
  // transients (deviation ~0.5+) still flag (same tuning as the bench).
  core::Session session{core::Session::kCapacity,
                        {.recorder = kAuditRecorder,
                         .capacity = {.little_tolerance = 0.35, .little_min_occupancy = 5.0}}};
  CapacityPlane& plane = session.capacity();
  core::ExperimentResult result;
};

std::unique_ptr<AuditRun> run_audited(core::ExperimentSpec spec, double rate,
                                      const sim::FaultPlan* faults) {
  auto b = std::make_unique<AuditRun>();
  b->session.attach(spec);
  spec.faults = faults;
  b->result = core::run_open_loop(spec, workload::poisson_arrivals(rate));
  return b;
}

/// Interval i covers ((i)*period, (i+1)*period]; the recorder's tick 0 lands
/// at client start (sim t ~= 0), so the interval's end time is (i+1)*period.
std::vector<double> violation_times(const CapacityPlane& plane) {
  std::vector<double> out;
  for (const std::size_t i : plane.violation_intervals()) {
    const double t = static_cast<double>(i + 1) * kPeriodS;
    if (t >= kStartupGraceS) out.push_back(t);
  }
  return out;
}

TEST(LittleAuditFaults, GpuFailureDeviatesOnlyInsideWindow) {
  core::ExperimentSpec spec;
  spec.server.model = models::vit_base();
  spec.gpu_count = 2;
  // Hold-until-recovery resilience: batches on the failed GPU park instead
  // of failing, so their occupancy area accrues through the window while the
  // completion charges land only after recovery — the L >> lambda*W shape
  // the audit exists to catch.
  spec.server.retry.enabled = true;
  spec.warmup = sim::seconds(1.0);
  spec.measure = sim::seconds(8.0);

  sim::FaultPlan faults;
  faults.gpu_failure(1, sim::seconds(3.5), sim::seconds(5.5));

  const auto faulty = run_audited(spec, 1200.0, &faults);
  const auto clean = run_audited(spec, 1200.0, nullptr);

  EXPECT_GT(faulty->result.completed, 0u);
  EXPECT_TRUE(violation_times(clean->plane).empty())
      << "fault-free steady state must satisfy L == lambda*W every interval";

  const auto times = violation_times(faulty->plane);
  ASSERT_FALSE(times.empty()) << "losing a GPU must show up as a backlog transient";
  for (const double t : times) {
    EXPECT_GE(t, 3.5) << "deviation before the fault window opened";
    EXPECT_LE(t, 7.0) << "deviation after the post-fault drain";
  }
}

TEST(LittleAuditFaults, PcieDegradationDeviatesOnlyInsideWindowAndRebinds) {
  // Raw-tensor ingress on a GPU-preproc deployment: the fp32 input crosses
  // host.pcie + gpu0.copy_h2d per request, so kPcieDegradation actually
  // bites (the CPU-preproc compressed-image path charges its flat staging
  // cost instead and would be immune).
  core::ExperimentSpec spec;
  spec.server.model = models::vit_base();
  spec.server.preproc = serving::PreprocDevice::kGpu;
  spec.server.ingress = serving::IngressFormat::kRawTensor;
  spec.warmup = sim::seconds(1.0);
  spec.measure = sim::seconds(8.0);

  sim::FaultPlan faults;
  faults.pcie_degradation(sim::seconds(3.5), sim::seconds(5.0), 24.0);

  const auto faulty = run_audited(spec, 1200.0, &faults);
  const auto clean = run_audited(spec, 1200.0, nullptr);

  EXPECT_TRUE(violation_times(clean->plane).empty());
  const auto times = violation_times(faulty->plane);
  ASSERT_FALSE(times.empty()) << "a 24x slower link must show up as a backlog transient";
  for (const double t : times) {
    EXPECT_GE(t, 3.5);
    EXPECT_LE(t, 7.0);
  }

  // Attribution cross-check: some interval inside the window binds on a
  // transfer resource (host link or the device-side copy engine).
  bool transfer_bound = false;
  const auto& binding = faulty->plane.binding();
  for (std::size_t i = 0; i < binding.size(); ++i) {
    const double t = static_cast<double>(i + 1) * kPeriodS;
    if (t < 3.5 || t > 5.2 || binding[i] == CapacityPlane::kIdle) continue;
    const auto& r = faulty->plane.resources()[binding[i]];
    if (stage_for_resource(r.device, r.engine) == metrics::Stage::kTransfer) {
      transfer_bound = true;
    }
  }
  EXPECT_TRUE(transfer_bound)
      << "the degraded link should become the binding resource inside the window";
}

// Fleet-level audit: L from the per-node outstanding integrals (summed by
// the rule across node labels) vs lambda*W from the completion-charged
// fleet_latency_seconds_total.
struct FleetAudit {
  core::Session session{core::Session::kAlerts, {.recorder = kAuditRecorder}};
  metrics::Registry& reg = session.registry();
  metrics::FlightRecorder& rec = session.recorder();
  AlertEngine& eng = session.alerts();
  core::FleetResult result;
  std::vector<double> sample_t, sample_l, sample_lw;  ///< per-interval diagnostics

  [[nodiscard]] std::string samples_text() const {
    std::ostringstream ss;
    for (std::size_t i = 0; i < sample_t.size(); ++i) {
      ss << "t=" << sample_t[i] << " L=" << sample_l[i] << " lambdaW=" << sample_lw[i] << "\n";
    }
    return ss.str();
  }
};

std::unique_ptr<FleetAudit> run_fleet_audited(const sim::FaultPlan* faults) {
  auto b = std::make_unique<FleetAudit>();
  core::FleetSpec spec;
  spec.server.model = models::vit_base();
  spec.server.preproc = serving::PreprocDevice::kGpu;
  spec.gpus_per_node = {1, 1};
  // Open-loop offered load: a closed loop pins L at the client count, so a
  // node loss barely moves the ratio. Constant offered load above a single
  // node's ~1800 rps capacity lets the surviving node's backlog grow — the
  // transient the audit is supposed to localize.
  spec.rate_rps = 2400.0;
  spec.warmup = sim::seconds(0.5);
  spec.measure = sim::seconds(5.5);
  spec.server.balancer.policy = core::BalancerPolicy::kPowerOfTwo;
  spec.server.balancer.health.enabled = true;

  LittleLawRule r;
  r.occupancy_integral = "fleet_node_outstanding_seconds_total";
  r.latency_sum = "fleet_latency_seconds_total";
  r.tolerance = 0.35;
  r.min_occupancy = 5.0;
  r.for_ticks = 1;
  r.clear_for_ticks = 2;
  b->eng.add_littles_law(r);

  // Diagnostic mirror of the rule's differencing (sum of node occupancy
  // integrals vs the completion-charged latency sum) for failure messages.
  auto raw = std::make_shared<std::array<double, 2>>();
  auto have = std::make_shared<bool>(false);
  auto prev_t = std::make_shared<sim::Time>(0);
  FleetAudit* fb = b.get();
  b->rec.add_tick_listener([fb, raw, have, prev_t](sim::Time now, std::uint64_t) {
    double occ = 0.0, lat = 0.0;
    for (std::size_t i = 0; i < fb->reg.instrument_count(); ++i) {
      const auto info = fb->reg.info(i);
      if (info.name == "fleet_node_outstanding_seconds_total") occ += fb->reg.current_value(i);
      if (info.name == "fleet_latency_seconds_total") lat += fb->reg.current_value(i);
    }
    if (*have && now > *prev_t) {
      const double dt = sim::to_seconds(now - *prev_t);
      fb->sample_t.push_back(sim::to_seconds(now));
      fb->sample_l.push_back((occ - (*raw)[0]) / dt);
      fb->sample_lw.push_back((lat - (*raw)[1]) / dt);
    }
    (*raw)[0] = occ;
    (*raw)[1] = lat;
    *prev_t = now;
    *have = true;
  });

  b->session.attach(spec);
  spec.faults = faults;
  b->result = core::run_fleet(spec);
  return b;
}

std::vector<double> firing_times(const AlertEngine& eng) {
  std::vector<double> out;
  for (const auto& ev : eng.events()) {
    if (ev.firing && ev.alert == "littles-law") out.push_back(sim::to_seconds(ev.t));
  }
  return out;
}

TEST(LittleAuditFleet, NodeCrashDeviatesOnlyInsideWindow) {
  sim::FaultPlan faults;
  faults.node_crash(1, sim::seconds(2.0), sim::seconds(3.5));
  const auto faulty = run_fleet_audited(&faults);
  const auto clean = run_fleet_audited(nullptr);

  EXPECT_GT(faulty->result.completed, 0u);
  EXPECT_TRUE(firing_times(clean->eng).empty())
      << "fault-free fleet must never breach the Little's-law audit:\n"
      << clean->eng.log_text() << clean->samples_text();

  const auto times = firing_times(faulty->eng);
  ASSERT_FALSE(times.empty()) << "a node crash must breach the fleet audit:\n"
                              << faulty->samples_text();
  for (const double t : times) {
    EXPECT_GE(t, 2.0);
    EXPECT_LE(t, 5.5);  // crash window + ejected-node drain/rejoin transient
  }
}

TEST(LittleAuditFleet, NodeGrayFailureDeviatesOnlyInsideWindow) {
  sim::FaultPlan faults;
  faults.node_gray_failure(1, sim::seconds(2.0), sim::seconds(3.5), 0.05);
  const auto faulty = run_fleet_audited(&faults);

  const auto times = firing_times(faulty->eng);
  ASSERT_FALSE(times.empty())
      << "a gray node (95% fast-fail) must breach the fleet audit:\n"
      << faulty->eng.log_text() << faulty->samples_text();
  for (const double t : times) {
    EXPECT_GE(t, 2.0);
    EXPECT_LE(t, 5.5);
  }
}

}  // namespace
}  // namespace serve::obs
