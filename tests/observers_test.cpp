// Tests for the observability wiring both runners share: the attachment
// rules between the observer pointers (checked before anything runs), the
// Session that owns and wires a run's observers, the single fault-window
// annotation, and the fleet's exported run-wide counters against the
// FleetResult fields they report.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/experiment.h"
#include "core/fleet.h"
#include "metrics/export.h"
#include "models/model_zoo.h"
#include "obs/capacity_plane.h"
#include "workload/arrivals.h"

namespace serve::core {
namespace {

ExperimentSpec small_experiment() {
  ExperimentSpec spec;
  spec.server.model = models::vit_base();
  spec.concurrency = 16;
  spec.warmup = sim::seconds(0.2);
  spec.measure = sim::seconds(0.5);
  return spec;
}

FleetSpec small_fleet() {
  FleetSpec spec;
  spec.server.model = models::vit_base();
  spec.server.preproc = serving::PreprocDevice::kGpu;
  spec.gpus_per_node = {1, 1};
  spec.concurrency = 16;
  spec.warmup = sim::seconds(0.2);
  spec.measure = sim::seconds(0.5);
  spec.audit = true;
  return spec;
}

/// Observers a mis-wiring can point at; `registry` is the one the specs use.
struct Parts {
  metrics::Registry registry;
  metrics::Registry other_registry;
  metrics::FlightRecorder recorder{registry};
  metrics::FlightRecorder other_recorder{other_registry};
  obs::AlertEngine alerts{registry};
  obs::AlertEngine other_alerts{other_registry};
  sim::TraceRecorder trace;
  sim::TraceRecorder other_trace;
  trace::CausalTracer tracer{&trace};
  trace::CausalTracer other_tracer{&other_trace};
};

struct Miswiring {
  const char* name;
  const char* rule;  ///< text the runner's exception must contain
  std::function<void(Observers&, Parts&)> wire;
};

const Miswiring kMiswirings[] = {
    {"tracer without trace", "tracer requires trace",
     [](Observers& o, Parts& p) { o.tracer = &p.tracer; }},
    {"tracer bound to another recorder", "tracer must record into trace",
     [](Observers& o, Parts& p) {
       o.trace = &p.trace;
       o.tracer = &p.other_tracer;
     }},
    {"unbound tracer", "tracer must record into trace",
     [](Observers& o, Parts& p) {
       p.tracer.set_recorder(nullptr);
       o.trace = &p.trace;
       o.tracer = &p.tracer;
     }},
    {"recorder without registry", "recorder must sample registry",
     [](Observers& o, Parts& p) { o.recorder = &p.recorder; }},
    {"recorder over another registry", "recorder must sample registry",
     [](Observers& o, Parts& p) {
       o.registry = &p.registry;
       o.recorder = &p.other_recorder;
     }},
};

void expect_rule(const std::function<void()>& run, const std::string& rule,
                 const metrics::Registry& registry) {
  const std::size_t before = registry.size();
  try {
    run();
    ADD_FAILURE() << "no exception; expected '" << rule << "'";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(rule), std::string::npos) << e.what();
  }
  // Thrown before anything was built: nothing registered an instrument.
  EXPECT_EQ(registry.size(), before);
}

TEST(ObserverRules, BothRunnersRejectEachMiswiring) {
  for (const Miswiring& m : kMiswirings) {
    SCOPED_TRACE(m.name);
    {
      Parts p;
      ExperimentSpec spec = small_experiment();
      m.wire(spec, p);
      expect_rule([&] { (void)run_experiment(spec); }, m.rule, p.registry);
      expect_rule([&] { (void)run_open_loop(spec, workload::poisson_arrivals(100.0)); }, m.rule,
                  p.registry);
    }
    {
      Parts p;
      FleetSpec spec = small_fleet();
      m.wire(spec, p);
      expect_rule([&] { (void)run_fleet(spec); }, m.rule, p.registry);
    }
  }
}

TEST(ObserverRules, ExperimentRejectsMiswiredAlerts) {
  {
    Parts p;
    ExperimentSpec spec = small_experiment();
    spec.registry = &p.registry;
    spec.alerts = &p.alerts;
    expect_rule([&] { (void)run_experiment(spec); }, "alerts requires recorder", p.registry);
  }
  {
    Parts p;
    ExperimentSpec spec = small_experiment();
    spec.registry = &p.registry;
    spec.recorder = &p.recorder;
    spec.alerts = &p.other_alerts;
    expect_rule([&] { (void)run_experiment(spec); }, "alerts must watch registry", p.registry);
  }
  {
    // Watches the right registry but was never attached: it would never run.
    Parts p;
    ExperimentSpec spec = small_experiment();
    spec.registry = &p.registry;
    spec.recorder = &p.recorder;
    spec.alerts = &p.alerts;
    expect_rule([&] { (void)run_experiment(spec); }, "alerts must ride recorder", p.registry);
  }
  {
    Parts p;
    metrics::FlightRecorder second{p.registry};
    p.alerts.attach(second);
    ExperimentSpec spec = small_experiment();
    spec.registry = &p.registry;
    spec.recorder = &p.recorder;
    spec.alerts = &p.alerts;
    expect_rule([&] { (void)run_experiment(spec); }, "alerts must ride recorder", p.registry);
  }
}

TEST(ObserverRules, PlanesRejectARecorderOverAnotherRegistry) {
  Parts p;
  obs::CapacityPlane plane{p.registry};
  EXPECT_THROW(plane.attach(p.other_recorder), std::invalid_argument);
  EXPECT_THROW(p.alerts.attach(p.other_recorder), std::invalid_argument);
  EXPECT_EQ(p.alerts.recorder(), nullptr);
  EXPECT_EQ(p.other_recorder.ticks(), 0u);
  p.alerts.attach(p.recorder);
  EXPECT_EQ(p.alerts.recorder(), &p.recorder);
}

TEST(ObserverRules, CorrectlyWiredRunsAttachEverything) {
  Parts p;
  ExperimentSpec spec = small_experiment();
  spec.server.audit = true;
  spec.trace = &p.trace;
  spec.tracer = &p.tracer;
  spec.registry = &p.registry;
  spec.recorder = &p.recorder;
  p.alerts.attach(p.recorder);
  spec.alerts = &p.alerts;
  const auto r = run_experiment(spec);
  EXPECT_GT(r.completed, 0u);
  EXPECT_EQ(r.audit_violations, 0u);
  EXPECT_GT(p.trace.span_count(), 0u);
  EXPECT_GT(p.recorder.ticks(), 0u);
  EXPECT_FALSE(p.recorder.running());  // stopped at the window edge

  Parts q;
  FleetSpec fleet = small_fleet();
  fleet.trace = &q.trace;
  fleet.tracer = &q.tracer;
  fleet.registry = &q.registry;
  fleet.recorder = &q.recorder;
  const auto f = run_fleet(fleet);
  EXPECT_TRUE(f.conserved());
  EXPECT_EQ(f.audit_violations, 0u);
  EXPECT_GT(q.trace.span_count(), 0u);
  EXPECT_GT(q.recorder.ticks(), 0u);
  EXPECT_FALSE(q.recorder.running());
}

// ---------------------------------------------------------------------------
// Session: one owner that builds and wires a run's observers.

TEST(Session, EachLayerBringsInTheLayersItNeeds) {
  using L = Session::Layer;
  const struct {
    unsigned mask;
    unsigned implied;
  } cases[] = {
      {L::kRegistry, L::kRegistry},
      {L::kRecorder, L::kRecorder | L::kRegistry},
      {L::kAlerts, L::kAlerts | L::kRecorder | L::kRegistry},
      {L::kCapacity, L::kCapacity | L::kRecorder | L::kRegistry},
      {L::kCapacity | L::kAlerts, L::kCapacity | L::kAlerts | L::kRecorder | L::kRegistry},
      {L::kAlerts | L::kTracer, L::kAlerts | L::kRecorder | L::kRegistry | L::kTracer | L::kTrace},
      {L::kTracer, L::kTracer | L::kTrace},
  };
  const unsigned all = L::kRegistry | L::kRecorder | L::kAlerts | L::kCapacity | L::kTrace |
                       L::kTracer;
  for (const auto& c : cases) {
    SCOPED_TRACE(c.mask);
    const Session s{c.mask, {.trace_max_events = 9}};
    EXPECT_TRUE(s.has(c.implied));
    for (unsigned bit = 1; bit <= all; bit <<= 1) {
      EXPECT_EQ(s.has(bit), (c.implied & bit) != 0) << "layer bit " << bit;
    }
    // The wiring the runners' rules ask for holds by construction.
    if (s.has(L::kRecorder)) {
      EXPECT_EQ(&s.recorder().registry(), &s.registry());
    }
    if (s.has(L::kAlerts)) {
      EXPECT_EQ(&s.alerts().registry(), &s.registry());
      EXPECT_EQ(s.alerts().recorder(), &s.recorder());
    }
    if (s.has(L::kTrace)) {
      EXPECT_EQ(s.trace().max_events(), 9u);
    } else {
      EXPECT_THROW((void)s.trace(), std::logic_error);
    }
    if (s.has(L::kTracer)) {
      EXPECT_EQ(s.tracer().recorder(), &s.trace());
    }
    if (!s.has(L::kRegistry)) {
      EXPECT_THROW((void)s.registry(), std::logic_error);
    }
  }
}

TEST(Session, EveryRunnerAcceptsAnAttachedSpec) {
  const unsigned all = Session::kCapacity | Session::kAlerts | Session::kTracer;
  {
    const Session s{all};
    ExperimentSpec spec = small_experiment();
    spec.server.audit = true;
    s.attach(spec);
    EXPECT_EQ(spec.alerts, &s.alerts());
    const auto r = run_experiment(spec);
    EXPECT_GT(r.completed, 0u);
    EXPECT_EQ(r.audit_violations, 0u);
    EXPECT_GT(s.recorder().ticks(), 0u);
    EXPECT_GT(s.capacity().intervals(), 0u);
    EXPECT_GT(s.trace().span_count(), 0u);
  }
  {
    const Session s{all};
    ExperimentSpec spec = small_experiment();
    spec.server.audit = true;
    s.attach(spec);
    const auto r = run_open_loop(spec, workload::poisson_arrivals(500.0));
    EXPECT_GT(r.completed, 0u);
    EXPECT_EQ(r.audit_violations, 0u);
    EXPECT_GT(s.capacity().intervals(), 0u);
  }
  {
    const Session s{all};
    FleetSpec spec = small_fleet();
    s.attach(spec);  // a fleet has no `alerts` field: the engine rides the recorder
    const auto f = run_fleet(spec);
    EXPECT_TRUE(f.conserved());
    EXPECT_EQ(f.audit_violations, 0u);
    EXPECT_GT(s.recorder().ticks(), 0u);
    EXPECT_GT(s.trace().span_count(), 0u);
  }
}

TEST(Session, AttachLeavesAbsentLayersAlone) {
  Parts p;
  ExperimentSpec spec = small_experiment();
  spec.trace = &p.trace;
  spec.tracer = &p.tracer;
  const Session registry_only{Session::kRegistry};
  registry_only.attach(spec);
  EXPECT_EQ(spec.registry, &registry_only.registry());
  EXPECT_EQ(spec.recorder, nullptr);
  EXPECT_EQ(spec.alerts, nullptr);
  EXPECT_EQ(spec.trace, &p.trace);
  EXPECT_EQ(spec.tracer, &p.tracer);

  // And the other way round: a traced session over a spec that already
  // carries a registry, recorder and alert engine.
  ExperimentSpec other = small_experiment();
  other.registry = &p.registry;
  other.recorder = &p.recorder;
  other.alerts = &p.alerts;
  const Session traced{Session::kTracer};
  traced.attach(other);
  EXPECT_EQ(other.trace, &traced.trace());
  EXPECT_EQ(other.tracer, &traced.tracer());
  EXPECT_EQ(other.registry, &p.registry);
  EXPECT_EQ(other.recorder, &p.recorder);
  EXPECT_EQ(other.alerts, &p.alerts);
}

/// One audited, traced run with recorder, alerts and capacity plane: its
/// telemetry export and Chrome trace, as bytes.
std::pair<std::string, std::string> exported(ExperimentSpec spec, obs::AlertEngine& alerts,
                                             const std::function<void(metrics::TelemetryExport&)>&
                                                 capture,
                                             const sim::TraceRecorder& trace) {
  obs::ThresholdRule depth;
  depth.name = "queue-depth";
  depth.instrument = "serving_queue_depth";
  depth.fire_above = 4.0;
  alerts.add_threshold(depth);
  spec.server.audit = true;
  spec.server.trace_sampler.rate = 0.25;
  (void)run_experiment(spec);
  metrics::TelemetryExport ex;
  capture(ex);
  std::ostringstream json, chrome;
  ex.write_json(json);
  trace.write_chrome_json(chrome);
  return {json.str(), chrome.str()};
}

TEST(Session, WiresExactlyLikeHandWiring) {
  const metrics::FlightRecorder::Options rec_opts{.period = sim::milliseconds(50)};
  const obs::CapacityPlane::Options cap_opts{.little_tolerance = 0.3};

  const Session s{Session::kCapacity | Session::kAlerts | Session::kTracer,
                  {.recorder = rec_opts, .capacity = cap_opts, .trace_max_events = 5000}};
  ExperimentSpec by_session = small_experiment();
  s.attach(by_session);
  const auto a = exported(by_session, s.alerts(),
                          [&](metrics::TelemetryExport& ex) { s.capture(ex); }, s.trace());

  metrics::Registry registry;
  metrics::FlightRecorder recorder{registry, rec_opts};
  obs::CapacityPlane plane{registry, cap_opts};
  obs::AlertEngine alerts{registry};
  plane.attach(recorder);
  alerts.attach(recorder);
  sim::TraceRecorder trace;
  trace.set_max_events(5000);
  trace::CausalTracer tracer{&trace};
  ExperimentSpec by_hand = small_experiment();
  by_hand.registry = &registry;
  by_hand.recorder = &recorder;
  by_hand.alerts = &alerts;
  by_hand.trace = &trace;
  by_hand.tracer = &tracer;
  const auto b = exported(by_hand, alerts,
                          [&](metrics::TelemetryExport& ex) {
                            ex.capture_instruments(registry);
                            ex.capture_series(recorder);
                            ex.set_capacity(plane.snapshot());
                          },
                          trace);

  EXPECT_GT(s.alerts().fired_total(), 0u);
  EXPECT_GT(trace.dropped_events(), 0u);  // the cap reached both traces
  EXPECT_NE(a.first.find("\"capacity\""), std::string::npos);
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

// ---------------------------------------------------------------------------
// Fault windows reach the trace once per run, not once per node.

std::size_t count(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (auto at = text.find(needle); at != std::string::npos; at = text.find(needle, at + 1)) ++n;
  return n;
}

TEST(ObserverFaults, FleetWritesEachWindowOnce) {
  sim::TraceRecorder trace;
  FleetSpec spec = small_fleet();
  spec.gpus_per_node = {1, 1, 1};
  sim::FaultPlan faults;
  faults.node_crash(1, sim::seconds(0.3), sim::seconds(0.5));
  spec.faults = &faults;
  spec.trace = &trace;
  const auto r = run_fleet(spec);
  EXPECT_TRUE(r.conserved());
  std::ostringstream json;
  trace.write_chrome_json(json);
  EXPECT_EQ(count(json.str(), R"("name":"node-crash",)"), 1u);  // the window's span
  EXPECT_EQ(count(json.str(), R"("name":"node-crash[1] open")"), 1u);
  EXPECT_EQ(count(json.str(), R"("name":"node-crash[1] close")"), 1u);
}

// ---------------------------------------------------------------------------
// The fleet's exported fleet_*_total counters are the FleetResult fields.

TEST(FleetCounters, EveryExportedTotalEqualsItsResultField) {
  FleetSpec spec = small_fleet();
  spec.concurrency = 32;
  spec.measure = sim::seconds(3.5);
  spec.server.balancer.policy = BalancerPolicy::kPowerOfTwo;
  spec.server.balancer.health.enabled = true;
  spec.server.balancer.hedge.enabled = true;
  spec.server.balancer.hedge.deadline = sim::milliseconds(20);
  spec.server.balancer.hedge.budget = 8.0;
  spec.server.balancer.hedge.budget_refill_per_success = 0.05;
  sim::FaultPlan faults;
  faults.node_partition(1, sim::seconds(0.5), sim::seconds(1.0), 0.2);
  faults.node_crash(1, sim::seconds(1.5), sim::seconds(2.5));
  spec.faults = &faults;
  metrics::Registry registry;
  spec.registry = &registry;
  const FleetResult r = run_fleet(spec);

  const std::map<std::string, std::uint64_t> reported = {
      {"fleet_requests_total{outcome=ok}", r.completed},
      {"fleet_requests_total{outcome=fail}", r.failed},
      {"fleet_probes_total", r.probes},
      {"fleet_probe_failures_total", r.probe_failures},
      {"fleet_hedges_total", r.hedges},
      {"fleet_hedge_wins_total", r.hedge_wins},
      {"fleet_hedge_losses_total", r.hedge_losses},
      {"fleet_hedges_denied_total", r.hedges_denied},
      {"fleet_cancelled_total", r.cancelled},
      {"fleet_node_ejections_total", r.ejections},  // summed over nodes
      {"fleet_node_rejoins_total", r.rejoins},
  };
  // Totals with no FleetResult field.
  const std::set<std::string> unreported = {"fleet_latency_seconds_total",
                                            "fleet_node_dispatches_total",
                                            "fleet_node_outstanding_seconds_total"};

  std::map<std::string, double> exported;
  for (const auto& s : registry.snapshot()) {
    if (s.name.rfind("fleet_", 0) != 0 || !s.name.ends_with("_total")) continue;
    if (unreported.count(s.name) != 0) continue;
    std::string key = s.name;
    if (s.name == "fleet_requests_total") key += "{outcome=" + s.labels.at(0).second + "}";
    exported[key] += s.value;
  }
  for (const auto& [key, value] : exported) {
    EXPECT_EQ(reported.count(key), 1u) << key << " is exported but reports no FleetResult field";
  }
  for (const auto& [key, field] : reported) {
    SCOPED_TRACE(key);
    ASSERT_EQ(exported.count(key), 1u);
    EXPECT_EQ(exported.at(key), static_cast<double>(field));
  }

  // The run exercised every path the counters report.
  EXPECT_TRUE(r.conserved());
  EXPECT_EQ(r.audit_violations, 0u);
  EXPECT_GT(r.failed, 0u);
  EXPECT_GT(r.probe_failures, 0u);
  EXPECT_GT(r.hedge_wins, 0u);
  EXPECT_GT(r.hedges_denied, 0u);
  EXPECT_GT(r.cancelled, 0u);
  EXPECT_GE(r.ejections, 1u);
  EXPECT_GE(r.rejoins, 1u);
}

}  // namespace
}  // namespace serve::core
