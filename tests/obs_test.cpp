// Tests for the obs::AlertEngine SLO watch plane: threshold/rate/burn/stall
// rules, hysteresis, deterministic logs, triggered capture, flight-recorder
// integration across ring wraps, and per-node fleet alert labels.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/fleet.h"
#include "metrics/flight_recorder.h"
#include "metrics/registry.h"
#include "models/model_zoo.h"
#include "obs/alert_engine.h"
#include "sim/simulator.h"
#include "sim/trace.h"
#include "trace/span_context.h"

namespace serve::obs {
namespace {

constexpr sim::Time kTick = sim::milliseconds(100);

/// Drives evaluate() directly at the recorder cadence without a recorder.
struct Clock {
  std::uint64_t tick = 0;
  sim::Time now = 0;
  void step(AlertEngine& eng) {
    eng.evaluate(now, tick);
    ++tick;
    now += kTick;
  }
};

// ---------------------------------------------------------------------------
// Threshold rules.

TEST(AlertThreshold, GaugeFiresAfterForTicksAndClearsWithHysteresis) {
  metrics::Registry reg;
  auto depth = reg.gauge("queue_depth");
  AlertEngine eng{reg};
  ThresholdRule r;
  r.name = "depth-high";
  r.instrument = "queue_depth";
  r.fire_above = 10.0;
  r.clear_below = 5.0;
  r.for_ticks = 2;
  r.clear_for_ticks = 2;
  eng.add_threshold(r);

  Clock c;
  depth.set(3.0);
  c.step(eng);
  EXPECT_TRUE(eng.events().empty());

  depth.set(50.0);
  c.step(eng);  // first breaching tick: debounced, not yet firing
  EXPECT_TRUE(eng.events().empty());
  c.step(eng);  // second consecutive breach fires
  ASSERT_EQ(eng.events().size(), 1u);
  EXPECT_TRUE(eng.events()[0].firing);
  EXPECT_EQ(eng.events()[0].alert, "depth-high");
  EXPECT_DOUBLE_EQ(eng.events()[0].value, 50.0);
  EXPECT_EQ(eng.active_alerts(), 1u);

  // 7 is below the fire level but above the clear level: hysteresis holds.
  depth.set(7.0);
  c.step(eng);
  c.step(eng);
  c.step(eng);
  EXPECT_EQ(eng.events().size(), 1u);
  EXPECT_EQ(eng.active_alerts(), 1u);

  depth.set(2.0);
  c.step(eng);  // first clear tick
  EXPECT_EQ(eng.events().size(), 1u);
  c.step(eng);  // second clear tick resolves
  ASSERT_EQ(eng.events().size(), 2u);
  EXPECT_FALSE(eng.events()[1].firing);
  EXPECT_EQ(eng.active_alerts(), 0u);

  // Per-alert counters landed in the registry.
  const auto fired = reg.find("obs_alerts_fired_total", {{"alert", "depth-high"}});
  const auto resolved = reg.find("obs_alerts_resolved_total", {{"alert", "depth-high"}});
  ASSERT_TRUE(fired.has_value());
  ASSERT_TRUE(resolved.has_value());
  EXPECT_DOUBLE_EQ(fired->value, 1.0);
  EXPECT_DOUBLE_EQ(resolved->value, 1.0);
}

TEST(AlertThreshold, FireBelowDirection) {
  metrics::Registry reg;
  auto health = reg.gauge("health_score");
  AlertEngine eng{reg};
  ThresholdRule r;
  r.name = "health-low";
  r.instrument = "health_score";
  r.fire_below = 0.5;
  r.clear_above = 0.8;
  eng.add_threshold(r);

  Clock c;
  health.set(1.0);
  c.step(eng);
  EXPECT_TRUE(eng.events().empty());
  health.set(0.2);
  c.step(eng);
  ASSERT_EQ(eng.events().size(), 1u);
  EXPECT_TRUE(eng.events()[0].firing);
  health.set(0.6);  // above fire level but below clear level: still firing
  c.step(eng);
  EXPECT_EQ(eng.events().size(), 1u);
  health.set(0.9);
  c.step(eng);
  ASSERT_EQ(eng.events().size(), 2u);
  EXPECT_FALSE(eng.events()[1].firing);
}

TEST(AlertThreshold, RejectsZeroOrTwoFireDirections) {
  metrics::Registry reg;
  AlertEngine eng{reg};
  ThresholdRule none;
  none.name = "no-direction";
  none.instrument = "x";
  EXPECT_THROW(eng.add_threshold(none), std::invalid_argument);
  ThresholdRule both;
  both.name = "both-directions";
  both.instrument = "x";
  both.fire_above = 1.0;
  both.fire_below = 0.0;
  EXPECT_THROW(eng.add_threshold(both), std::invalid_argument);
}

TEST(AlertThreshold, RateRuleBaselinesFirstTickThenDetectsSpike) {
  metrics::Registry reg;
  auto evictions = reg.counter("evictions_total");
  AlertEngine eng{reg};
  ThresholdRule r;
  r.name = "eviction-storm";
  r.instrument = "evictions_total";
  r.signal = ThresholdRule::Signal::kRate;
  r.fire_above = 100.0;  // per second
  r.clear_below = 10.0;
  eng.add_threshold(r);

  Clock c;
  evictions.inc(1e6);  // huge pre-existing cumulative value
  c.step(eng);         // baseline tick: a counter's absolute value never breaches
  EXPECT_TRUE(eng.events().empty());

  evictions.inc(5.0);  // 50/s over a 100 ms tick: below threshold
  c.step(eng);
  EXPECT_TRUE(eng.events().empty());

  evictions.inc(50.0);  // 500/s: breach
  c.step(eng);
  ASSERT_EQ(eng.events().size(), 1u);
  EXPECT_TRUE(eng.events()[0].firing);
  EXPECT_DOUBLE_EQ(eng.events()[0].value, 500.0);

  c.step(eng);  // no increment: rate 0 resolves
  ASSERT_EQ(eng.events().size(), 2u);
  EXPECT_FALSE(eng.events()[1].firing);
}

TEST(AlertThreshold, PerInstrumentCreatesIndependentLabeledInstances) {
  metrics::Registry reg;
  auto g0 = reg.gauge("node_score", {{"node", "0"}});
  auto g1 = reg.gauge("node_score", {{"node", "1"}});
  AlertEngine eng{reg};
  ThresholdRule r;
  r.name = "node-unhealthy";
  r.instrument = "node_score";
  r.agg = ThresholdRule::Agg::kPerInstrument;
  r.fire_below = 0.5;
  eng.add_threshold(r);

  Clock c;
  g0.set(1.0);
  g1.set(1.0);
  c.step(eng);
  EXPECT_TRUE(eng.events().empty());

  g1.set(0.1);  // only node 1 degrades
  c.step(eng);
  ASSERT_EQ(eng.events().size(), 1u);
  EXPECT_EQ(eng.events()[0].alert, "node-unhealthy{node=1}");
  EXPECT_TRUE(eng.ever_fired("node-unhealthy{node=1}"));
  EXPECT_FALSE(eng.ever_fired("node-unhealthy{node=0}"));
}

TEST(AlertThreshold, SumAggregationCombinesInstances) {
  metrics::Registry reg;
  auto g0 = reg.gauge("queue_depth", {{"queue", "a"}});
  auto g1 = reg.gauge("queue_depth", {{"queue", "b"}});
  AlertEngine eng{reg};
  ThresholdRule r;
  r.name = "total-depth";
  r.instrument = "queue_depth";
  r.fire_above = 100.0;
  eng.add_threshold(r);

  Clock c;
  g0.set(60.0);
  g1.set(30.0);
  c.step(eng);
  EXPECT_TRUE(eng.events().empty());  // 90 total: under
  g1.set(70.0);
  c.step(eng);
  ASSERT_EQ(eng.events().size(), 1u);
  EXPECT_DOUBLE_EQ(eng.events()[0].value, 130.0);
  // The log line names the top contributors with their labels.
  EXPECT_NE(eng.events()[0].detail.find("queue_depth{queue=b}=70"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Burn-rate rule.

TEST(AlertBurnRate, RequiresBothWindowsAndClearsOnShortRecovery) {
  metrics::Registry reg;
  auto lat = reg.histogram("latency_s");
  AlertEngine eng{reg};
  BurnRateRule r;
  r.name = "slo-burn";
  r.histogram = "latency_s";
  r.slo_s = 0.25;
  r.target = 0.9;  // 10% error budget
  r.burn_threshold = 5.0;  // error rate >= 0.5
  r.short_window_ticks = 2;
  r.long_window_ticks = 4;
  r.clear_for_ticks = 2;
  eng.add_burn_rate(r);

  Clock c;
  const auto good = [&](int n) { for (int i = 0; i < n; ++i) lat.observe(0.001); };
  const auto bad = [&](int n) { for (int i = 0; i < n; ++i) lat.observe(10.0); };

  for (int t = 0; t < 5; ++t) {
    good(10);
    c.step(eng);
  }
  EXPECT_TRUE(eng.events().empty());

  // One bad tick: the short window breaches (10 bad / 20 -> burn 5) but the
  // long window is still diluted (10 / 40 -> burn 2.5) — no page for a blip.
  bad(10);
  c.step(eng);
  EXPECT_TRUE(eng.events().empty());

  // A second bad tick pushes the long window over too: fires.
  bad(10);
  c.step(eng);
  ASSERT_EQ(eng.events().size(), 1u);
  EXPECT_TRUE(eng.events()[0].firing);
  EXPECT_EQ(eng.events()[0].alert, "slo-burn");
  EXPECT_NE(eng.events()[0].detail.find("burn_short="), std::string::npos);
  EXPECT_NE(eng.events()[0].detail.find("burn_long="), std::string::npos);

  // Recovery: the short window must stay clean for clear_for_ticks.
  good(10);
  c.step(eng);  // short window still includes a bad tick: not clear
  EXPECT_EQ(eng.events().size(), 1u);
  good(10);
  c.step(eng);  // clear tick 1 (short window now all-good)
  EXPECT_EQ(eng.events().size(), 1u);
  good(10);
  c.step(eng);  // clear tick 2 resolves
  ASSERT_EQ(eng.events().size(), 2u);
  EXPECT_FALSE(eng.events()[1].firing);
}

TEST(AlertBurnRate, SilentWithNoTrafficAndValidatesConfig) {
  metrics::Registry reg;
  reg.histogram("latency_s");
  AlertEngine eng{reg};
  BurnRateRule r;
  r.name = "slo-burn";
  r.histogram = "latency_s";
  eng.add_burn_rate(r);
  Clock c;
  for (int t = 0; t < 40; ++t) c.step(eng);  // empty histogram: burn is 0, never fires
  EXPECT_TRUE(eng.events().empty());

  BurnRateRule bad_target;
  bad_target.name = "x";
  bad_target.target = 1.0;
  EXPECT_THROW(eng.add_burn_rate(bad_target), std::invalid_argument);
  BurnRateRule bad_windows;
  bad_windows.name = "y";
  bad_windows.short_window_ticks = 10;
  bad_windows.long_window_ticks = 5;
  EXPECT_THROW(eng.add_burn_rate(bad_windows), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Stall watchdog.

TEST(AlertStall, FiresOnlyWhenArmedAndProgressStops) {
  metrics::Registry reg;
  auto completed = reg.counter("completed_total");
  auto in_flight = reg.gauge("in_flight");
  AlertEngine eng{reg};
  StallRule r;
  r.name = "progress-stall";
  r.progress = "completed_total";
  r.armed_gauge = "in_flight";
  r.armed_above = 0.0;
  r.for_ticks = 3;
  eng.add_stall(r);

  Clock c;
  // Idle (nothing outstanding): a flat counter is not a stall.
  in_flight.set(0.0);
  for (int t = 0; t < 6; ++t) c.step(eng);
  EXPECT_TRUE(eng.events().empty());

  // Progressing while loaded: fine.
  in_flight.set(8.0);
  for (int t = 0; t < 4; ++t) {
    completed.inc(5.0);
    c.step(eng);
  }
  EXPECT_TRUE(eng.events().empty());

  // Wedged: outstanding work, counter frozen.
  c.step(eng);
  c.step(eng);
  EXPECT_TRUE(eng.events().empty());  // 2 stalled ticks: still debouncing
  c.step(eng);
  ASSERT_EQ(eng.events().size(), 1u);
  EXPECT_TRUE(eng.events()[0].firing);
  EXPECT_NE(eng.events()[0].detail.find("stalled_ticks="), std::string::npos);

  completed.inc(1.0);  // progress resumes
  c.step(eng);
  ASSERT_EQ(eng.events().size(), 2u);
  EXPECT_FALSE(eng.events()[1].firing);
}

// ---------------------------------------------------------------------------
// Determinism, log format, trace and capture side effects.

std::string run_scripted_scenario() {
  metrics::Registry reg;
  auto depth = reg.gauge("queue_depth");
  auto lat = reg.histogram("latency_s");
  AlertEngine eng{reg};
  ThresholdRule r;
  r.name = "depth-high";
  r.instrument = "queue_depth";
  r.fire_above = 100.0;
  eng.add_threshold(r);
  BurnRateRule b;
  b.name = "slo-burn";
  b.histogram = "latency_s";
  b.target = 0.9;
  b.burn_threshold = 5.0;
  b.short_window_ticks = 2;
  b.long_window_ticks = 3;
  b.clear_for_ticks = 1;
  eng.add_burn_rate(b);

  Clock c;
  for (int t = 0; t < 12; ++t) {
    depth.set(t >= 4 && t < 8 ? 500.0 + t : 10.0);
    for (int i = 0; i < 5; ++i) lat.observe(t >= 5 && t < 7 ? 3.0 : 0.002);
    c.step(eng);
  }
  return eng.log_text();
}

TEST(AlertEngineLog, SameScenarioProducesByteIdenticalLog) {
  const std::string a = run_scripted_scenario();
  const std::string b = run_scripted_scenario();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  // Spot-check the line grammar: "t=<s> FIRING <name> value=<v> threshold=<t> ..."
  EXPECT_EQ(a.rfind("t=0.4 FIRING depth-high value=504 threshold=100", 0), 0u);
}

TEST(AlertEngine, TransitionsEmitTraceInstantEvents) {
  metrics::Registry reg;
  auto depth = reg.gauge("queue_depth");
  sim::TraceRecorder trace;
  AlertEngine eng{reg};
  eng.set_trace(&trace);
  ThresholdRule r;
  r.name = "depth-high";
  r.instrument = "queue_depth";
  r.fire_above = 10.0;
  eng.add_threshold(r);

  Clock c;
  const std::size_t before = trace.event_count();
  depth.set(99.0);
  c.step(eng);
  depth.set(0.0);
  c.step(eng);
  EXPECT_EQ(trace.event_count(), before + 2);  // one instant per transition
}

TEST(AlertEngine, TriggeredCaptureForcesSamplerWithHoldOff) {
  metrics::Registry reg;
  auto depth = reg.gauge("queue_depth");
  trace::TraceSampler sampler{{.rate = 0.0}};  // head sampling takes nothing
  AlertEngine eng{reg};
  eng.set_triggered_sampler(&sampler, /*hold_ticks=*/2);
  ThresholdRule r;
  r.name = "depth-high";
  r.instrument = "queue_depth";
  r.fire_above = 10.0;
  eng.add_threshold(r);

  Clock c;
  depth.set(0.0);
  c.step(eng);
  EXPECT_FALSE(sampler.forced());
  EXPECT_FALSE(sampler.sample(1));

  depth.set(99.0);
  c.step(eng);  // fires: full capture from this tick on
  EXPECT_TRUE(sampler.forced());
  EXPECT_TRUE(sampler.sample(2));

  depth.set(0.0);
  c.step(eng);  // resolves, but capture holds for hold_ticks more ticks
  EXPECT_TRUE(sampler.forced());
  c.step(eng);  // last tick inside the hold-off
  EXPECT_TRUE(sampler.forced());
  c.step(eng);  // past the hold-off
  EXPECT_FALSE(sampler.forced());
  EXPECT_GT(eng.capture_ticks(), 0u);

  // Forced samples bypass the head-sampling cap but are counted.
  EXPECT_GT(sampler.forced_count(), 0u);
  eng.release_triggered_sampler();
  c.step(eng);  // no sampler bound: must not crash
}

// ---------------------------------------------------------------------------
// Flight-recorder integration: cadence, ring wrap, late-joining instruments.

TEST(AlertEngineRecorder, RingWrapAndLateJoinCannotMisfire) {
  sim::Simulator sim;
  metrics::Registry reg;
  // Tiny ring: 4 retained samples, 10 ms cadence — wraps after 40 ms.
  metrics::FlightRecorder rec{reg, {.period = sim::milliseconds(10), .capacity = 4}};
  auto lat = reg.histogram("latency_s");
  AlertEngine eng{reg};
  ThresholdRule r;
  r.name = "depth-high";
  r.instrument = "late_gauge";
  r.fire_above = 100.0;
  r.for_ticks = 2;
  eng.add_threshold(r);
  BurnRateRule b;
  b.name = "slo-burn";
  b.histogram = "latency_s";
  b.target = 0.9;
  b.burn_threshold = 5.0;
  b.short_window_ticks = 2;
  b.long_window_ticks = 6;  // longer than the whole ring capacity
  b.clear_for_ticks = 2;
  eng.add_burn_rate(b);
  eng.attach(rec);

  rec.start(sim);
  // 50 ticks of healthy traffic: the ring wraps many times over; the burn
  // window must difference its own cumulative samples, not the wrapped ring.
  for (int t = 0; t < 50; ++t) {
    for (int i = 0; i < 4; ++i) lat.observe(0.001);
    sim.run_until(sim.now() + sim::milliseconds(10));
  }
  EXPECT_TRUE(eng.events().empty());
  EXPECT_GT(rec.ticks(), 40u);

  // Late join, well after the wrap: the rule's instrument appears now.
  auto late = reg.gauge("late_gauge");
  late.set(5.0);
  sim.run_until(sim.now() + sim::milliseconds(30));
  EXPECT_TRUE(eng.events().empty());

  late.set(500.0);
  sim.run_until(sim.now() + sim::milliseconds(30));
  ASSERT_EQ(eng.events().size(), 1u);
  EXPECT_TRUE(eng.events()[0].firing);
  EXPECT_EQ(eng.events()[0].alert, "depth-high");

  // The burn rule still works across the wrap: two all-bad ticks fire it.
  for (int t = 0; t < 3; ++t) {
    for (int i = 0; i < 8; ++i) lat.observe(10.0);
    sim.run_until(sim.now() + sim::milliseconds(10));
  }
  EXPECT_TRUE(eng.ever_fired("slo-burn"));

  // Sanity: the ring really did wrap (first retained tick is far from 0).
  rec.stop();
  bool wrapped = false;
  for (const auto& s : rec.series()) wrapped = wrapped || s.start_tick > 0;
  EXPECT_TRUE(wrapped);
}

// ---------------------------------------------------------------------------
// Fleet integration: per-node labels from the balancer's health instruments.

TEST(AlertEngineFleet, NodeCrashFiresPerNodeLabeledAlert) {
  core::FleetSpec spec;
  spec.server.model = models::vit_base();
  spec.server.preproc = serving::PreprocDevice::kGpu;
  spec.gpus_per_node = {1, 1};
  spec.concurrency = 64;
  spec.warmup = sim::seconds(0.5);
  spec.measure = sim::seconds(3.5);
  spec.audit = true;
  // Ejection needs the health-checked balancer: probes catch the crash and
  // move the node to kEjected, which is what drops fleet_node_state below the
  // rule's fire level.
  spec.server.balancer.policy = core::BalancerPolicy::kPowerOfTwo;
  spec.server.balancer.health.enabled = true;

  const core::Session session{core::Session::kAlerts};
  AlertEngine& eng = session.alerts();
  ThresholdRule r;
  r.name = "node-down";
  r.instrument = "fleet_node_state";  // 1 healthy, 0.5 half-open, 0 ejected
  r.agg = ThresholdRule::Agg::kPerInstrument;
  r.fire_below = 0.75;
  r.clear_above = 0.9;
  eng.add_threshold(r);
  session.attach(spec);

  sim::FaultPlan faults;
  faults.node_crash(1, sim::seconds(1.0), sim::seconds(2.5));
  spec.faults = &faults;

  const auto res = core::run_fleet(spec);
  EXPECT_GT(res.completed, 0u);
  EXPECT_TRUE(eng.ever_fired("node-down{node=1}"));
  EXPECT_FALSE(eng.ever_fired("node-down{node=0}"));
}

}  // namespace
}  // namespace serve::obs
