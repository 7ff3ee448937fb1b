// Simulator workloads: sim-bare, sim-observed and fleet-chaos.
//
// Every repetition builds its observers, times exactly one
// core::run_experiment / core::run_fleet call, and checks the result: no
// audit violation, fleet conservation, and a bitwise-identical digest to the
// first repetition of the same configuration. The layer ladders add one
// layer per step, running steps round-robin so machine drift spreads evenly
// over them; a layer's cost is the difference between the median wall time
// per request of its step and the step before.
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "alloc_counter.h"
#include "core/experiment.h"
#include "core/fleet.h"
#include "metrics/flight_recorder.h"
#include "metrics/registry.h"
#include "models/model_zoo.h"
#include "obs/alert_engine.h"
#include "obs/capacity_plane.h"
#include "sim/channel.h"
#include "sim/fault_plan.h"
#include "sim/pool.h"
#include "sim/simulator.h"
#include "trace/causal.h"
#include "workloads.h"

namespace serve::perf {

namespace {

/// Enough repetitions that the tail percentile keeps ten samples beyond it.
constexpr int kMinReps = 11;

/// Counts checked operations and remembers each configuration's first digest.
class Checker {
 public:
  void check(const std::string& config, const std::string& digest,
             std::uint64_t audit_violations, bool conserved) {
    ++attempted_;
    const auto [it, first] = reference_.emplace(config, digest);
    std::string why;
    if (audit_violations != 0) why = std::to_string(audit_violations) + " audit violation(s)";
    if (!conserved) why = "issued != completed + failed";
    if (!first && it->second != digest) why = "digest differs from the first repetition";
    if (!why.empty()) {
      ++failed_;
      std::fprintf(stderr, "FAILED [%s]: %s\n", config.c_str(), why.c_str());
    }
  }
  void merge_into(RunResult& out) const {
    out.attempted += attempted_;
    out.failed += failed_;
  }

 private:
  std::map<std::string, std::string> reference_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// One timed call plus the probes taken around it.
struct Rep {
  double wall_s = 0.0;
  double requests = 0.0;       ///< completed, as the result struct reports it
  double allocs = 0.0;         ///< operator new calls during the call
  double peak_extra_b = 0.0;   ///< heap high-water mark above the pre-call live bytes
  double recorder_self_s = 0.0;
  double alerts_self_s = 0.0;
  double capacity_self_s = 0.0;
  sim::AllocStats sim_allocs{};  ///< sim frame-pool deltas over the call

  [[nodiscard]] double us_per_req() const { return 1e6 * wall_s / requests; }
};

/// Runs `call` under the heap and frame-pool probes.
template <typename Call>
Rep probe(Call&& call) {
  Rep rep;
  const sim::AllocStats sim_before = sim::alloc_stats();
  heap::reset_peak();
  const heap::Snapshot before = heap::snapshot();
  const auto t0 = Clock::now();
  rep.requests = static_cast<double>(call());
  rep.wall_s = seconds_since(t0);
  const heap::Snapshot after = heap::snapshot();
  const sim::AllocStats& sim_after = sim::alloc_stats();
  rep.allocs = static_cast<double>(after.allocs - before.allocs);
  rep.peak_extra_b = static_cast<double>(after.peak_bytes - before.live_bytes);
  rep.sim_allocs.frame_allocs = sim_after.frame_allocs - sim_before.frame_allocs;
  rep.sim_allocs.frame_pool_hits = sim_after.frame_pool_hits - sim_before.frame_pool_hits;
  rep.sim_allocs.frame_heap_allocs = sim_after.frame_heap_allocs - sim_before.frame_heap_allocs;
  rep.sim_allocs.action_heap_allocs =
      sim_after.action_heap_allocs - sim_before.action_heap_allocs;
  return rep;
}

std::string digest_of(const core::ExperimentResult& r) {
  Digest d;
  d.add(r.completed);
  d.add(r.throughput_rps);
  d.add(r.mean_latency_s);
  d.add(r.p50_latency_s);
  d.add(r.p99_latency_s);
  d.add(r.mean_batch);
  d.add(r.gpu_evictions);
  d.add(r.dropped);
  d.add(r.failed);
  return d.str();
}

/// The observability planes, in the order the ladder adds them; each needs
/// the ones before it (the recorder samples the registry, alerts and the
/// capacity plane ride the recorder, the tracer's spans come from the
/// auditor).
enum class Layer : int { kBare, kAudit, kRegistry, kRecorder, kAlerts, kCapacity, kTracer };

/// Burn-rate, queue-depth and Little's-law rules: the production rule set.
/// None fires on these workloads' steady state, so the cost measured is
/// evaluation, not alert handling.
void arm_alert_rules(obs::AlertEngine& alerts) {
  obs::BurnRateRule burn;
  burn.name = "slo-burn-rate";
  burn.slo_s = 0.5;
  alerts.add_burn_rate(burn);
  obs::ThresholdRule depth;
  depth.name = "queue-depth-high";
  depth.instrument = "serving_queue_depth";
  depth.fire_above = 1024.0;
  depth.clear_below = 256.0;
  depth.for_ticks = 2;
  alerts.add_threshold(depth);
  alerts.add_littles_law(obs::LittleLawRule{});
}

trace::SamplerOptions hash_sampler(double rate) {
  trace::SamplerOptions s;
  s.mode = trace::SampleMode::kHash;
  s.rate = rate;
  s.max_sampled = UINT64_MAX;  // sample across the whole run, not the first few
  return s;
}

/// Observers for one repetition; heap-allocated because the planes hold
/// references to the registry and recorder.
struct Observers {
  metrics::Registry registry;
  metrics::FlightRecorder recorder{registry};
  obs::AlertEngine alerts{registry};
  obs::CapacityPlane capacity{registry};
  sim::TraceRecorder trace;
  trace::CausalTracer tracer{&trace};
};

// --- single server -----------------------------------------------------------

core::ExperimentSpec sim_spec(const RunOptions& o) {
  core::ExperimentSpec s;
  s.server.model = models::vit_base();
  s.server.preproc = serving::PreprocDevice::kGpu;
  s.gpu_count = 1;
  s.concurrency = 256;
  s.warmup = sim::seconds(0.5 * o.scale);
  s.measure = sim::seconds(20.0 * o.scale);
  s.seed = o.seed;
  return s;
}

struct SimStep {
  const char* name;
  Layer top;
  double tracer_rate;
};

constexpr SimStep kSimBare{"bare", Layer::kBare, 0.0};
constexpr SimStep kSimObserved{"observed", Layer::kTracer, 0.01};

/// One run_experiment call with the step's layers attached.
Rep sim_rep(const RunOptions& o, const SimStep& step, Checker& checker,
            core::ExperimentResult* result = nullptr) {
  auto ob = std::make_unique<Observers>();
  core::ExperimentSpec spec = sim_spec(o);
  const Layer top = step.top;
  spec.server.audit = top >= Layer::kAudit;
  if (top >= Layer::kRegistry) spec.registry = &ob->registry;
  if (top >= Layer::kRecorder) spec.recorder = &ob->recorder;
  if (top >= Layer::kAlerts) {
    arm_alert_rules(ob->alerts);
    ob->alerts.attach(ob->recorder);
    spec.alerts = &ob->alerts;
  }
  if (top >= Layer::kCapacity) ob->capacity.attach(ob->recorder);
  if (top >= Layer::kTracer) {
    spec.server.trace_sampler = hash_sampler(step.tracer_rate);
    spec.trace = &ob->trace;
    spec.tracer = &ob->tracer;
  }
  core::ExperimentResult r;
  Rep rep = probe([&] {
    r = core::run_experiment(spec);
    return r.completed;
  });
  rep.recorder_self_s = ob->recorder.self_seconds();
  rep.alerts_self_s = ob->alerts.self_seconds();
  rep.capacity_self_s = ob->capacity.self_seconds();
  checker.check(std::string("sim/") + step.name, digest_of(r), r.audit_violations, true);
  if (result != nullptr) *result = r;
  return rep;
}

/// The modelled outputs: a change that only speeds up ServeScope leaves
/// them bit-identical, so they print as diagnostics, not as gated metrics.
void note_model_outputs(const core::ExperimentResult& r, const core::ExperimentSpec& spec,
                        RunResult& out) {
  const double window_s = sim::to_seconds(spec.measure);
  out.note("model.tput_rps", r.throughput_rps, "sim_req/s");
  out.note("model.p99_ms", r.p99_latency_s * 1e3, "sim_ms");
  out.note("model.mean_batch", r.mean_batch, "req");
  out.note("model.goodput_rps", r.throughput_rps - static_cast<double>(r.failed) / window_s,
           "sim_req/s");
}

/// Runs `body()` until `budget_s` has passed and at least `min_reps` times;
/// returns how many times it ran.
template <typename Body>
int repeat_for(double budget_s, int min_reps, Body&& body) {
  const auto t0 = Clock::now();
  int i = 0;
  for (; i < min_reps || seconds_since(t0) < budget_s; ++i) body();
  return i;
}

/// Runs `body()` until `budget_s` has passed and at least kMinReps times,
/// and times kSetupRepeats calls of `set_up()`: the first before the
/// repetitions, the rest spread evenly among them. A shared host slows down
/// for a second or two at a time, most often just after a process starts;
/// set-ups taken back to back measured that stretch rather than the set-up,
/// while spread out their median is as steady as the repetitions'.
template <typename SetUp, typename Body>
std::vector<double> repeat_with_setups(double budget_s, SetUp&& set_up, Body&& body) {
  constexpr auto kSetups = static_cast<std::size_t>(kSetupRepeats);
  std::vector<double> setup_s;
  const auto timed_set_up = [&] {
    const auto t0 = Clock::now();
    set_up();
    setup_s.push_back(seconds_since(t0));
  };
  timed_set_up();
  const auto start = Clock::now();
  for (int reps = 0; reps < kMinReps || seconds_since(start) < budget_s;) {
    const double due = budget_s * static_cast<double>(setup_s.size()) / kSetups;
    if (setup_s.size() < kSetups && seconds_since(start) >= due) {
      timed_set_up();
    } else {
      body();
      ++reps;
    }
  }
  while (setup_s.size() < kSetups) timed_set_up();
  return setup_s;
}

/// Timed repetitions of one configuration -> the end-to-end metrics.
void report_repetitions(const std::vector<Rep>& reps, const std::vector<double>& setup_s,
                        RunResult& out) {
  std::vector<double> rates, walls;
  for (const auto& r : reps) {
    rates.push_back(r.requests / r.wall_s);
    walls.push_back(r.wall_s);
  }
  const TailPercentile tail = tail_percentile(walls);
  out.add("req_per_s", median(rates), "req/s");
  out.add("p50_ms", 1e3 * median(walls), "ms");
  out.note("tail_ms", 1e3 * tail.value, "ms");
  out.add("setup_s", median(setup_s), "s");
  out.note("reps", static_cast<double>(reps.size()), "count");
  out.note("tail_pct", tail.percentile, "%");
}

// --- fleet -------------------------------------------------------------------

/// Crash, partition and gray failure on three of the four nodes, in turn.
sim::FaultPlan fleet_faults(double scale) {
  sim::FaultPlan plan;
  plan.node_crash(0, sim::seconds(3.0 * scale), sim::seconds(6.0 * scale));
  plan.node_partition(1, sim::seconds(7.0 * scale), sim::seconds(9.0 * scale), 0.4);
  plan.node_gray_failure(2, sim::seconds(10.0 * scale), sim::seconds(12.0 * scale), 0.3);
  return plan;
}

/// Fleet ladder: each step adds one balancer or observability feature.
enum class FleetLevel : int { kRoundRobin, kAudit, kHealth, kHedge, kObs, kTracer };
constexpr const char* kFleetLevelNames[] = {"rr", "audit", "health", "hedge", "obs", "tracer"};

struct FleetObservers {
  metrics::Registry registry;
  metrics::FlightRecorder recorder{registry};
  obs::AlertEngine alerts{registry};
  sim::TraceRecorder trace;
  trace::CausalTracer tracer{&trace};
};

Rep fleet_rep(const RunOptions& o, const sim::FaultPlan& plan, FleetLevel level,
              Checker& checker, core::FleetResult* result = nullptr) {
  auto ob = std::make_unique<FleetObservers>();
  core::FleetSpec f;
  f.server.model = models::vit_base();
  f.server.preproc = serving::PreprocDevice::kGpu;
  f.gpus_per_node = {1, 1, 1, 1};
  f.rate_rps = 4000.0;
  f.warmup = sim::seconds(2.0 * o.scale);
  f.measure = sim::seconds(12.0 * o.scale);
  f.seed = o.seed;
  f.faults = &plan;
  f.audit = level >= FleetLevel::kAudit;
  if (level >= FleetLevel::kHealth) {
    f.server.balancer.policy = serving::BalancerPolicy::kPowerOfTwo;
    f.server.balancer.health.enabled = true;
  }
  f.server.balancer.hedge.enabled = level >= FleetLevel::kHedge;
  if (level >= FleetLevel::kObs) {
    arm_alert_rules(ob->alerts);
    ob->alerts.attach(ob->recorder);
    f.registry = &ob->registry;
    f.recorder = &ob->recorder;
  }
  if (level >= FleetLevel::kTracer) {
    f.server.trace_sampler = hash_sampler(0.01);
    f.trace = &ob->trace;
    f.tracer = &ob->tracer;
  }
  core::FleetResult r;
  Rep rep = probe([&] {
    r = core::run_fleet(f);
    return r.completed;
  });
  checker.check(std::string("fleet/") + kFleetLevelNames[static_cast<int>(level)], r.digest(),
                r.audit_violations, r.conserved());
  if (result != nullptr) *result = std::move(r);
  return rep;
}

double per_k(std::uint64_t n, std::uint64_t base) {
  return base == 0 ? 0.0 : 1e3 * static_cast<double>(n) / static_cast<double>(base);
}

// --- kernel probes -----------------------------------------------------------

/// ns per event for Simulator::schedule_at + run over 10k events.
double event_ns() {
  constexpr int kEvents = 10'000;
  std::vector<double> ns;
  for (int k = 0; k < 21; ++k) {
    sim::Simulator s;
    const auto t0 = Clock::now();
    for (int i = 0; i < kEvents; ++i) s.schedule_at(i, [] {});
    s.run();
    ns.push_back(1e9 * seconds_since(t0) / kEvents);
  }
  return median(std::move(ns));
}

sim::Process producer(sim::Simulator&, sim::Channel<int>& ch, int n) {
  for (int i = 0; i < n; ++i) co_await ch.put(i);
  ch.close();
}

sim::Process consumer(sim::Simulator&, sim::Channel<int>& ch, int& got) {
  // Not `while (co_await ch.get())`: GCC 12 miscompiles a co_await in a
  // while-condition (the coroutine silently never runs).
  while (true) {
    auto v = co_await ch.get();
    if (!v) break;
    ++got;
  }
}

/// ns per item handed through a capacity-8 channel (put + get), or a
/// negative value when the hand-off lost items.
double channel_op_ns() {
  constexpr int kItems = 10'000;
  std::vector<double> ns;
  for (int k = 0; k < 21; ++k) {
    sim::Simulator s;
    sim::Channel<int> ch{s, 8};
    int got = 0;
    const auto t0 = Clock::now();
    s.spawn(producer(s, ch, kItems));
    s.spawn(consumer(s, ch, got));
    s.run();
    if (got != kItems) return -1.0;
    ns.push_back(1e9 * seconds_since(t0) / kItems);
  }
  return median(std::move(ns));
}

/// Per-step medians of the ladder repetitions.
struct StepStats {
  double us_per_req = 0.0;
  double allocs_per_req = 0.0;
  double peak_extra_b = 0.0;
};

StepStats step_stats(const std::vector<Rep>& reps) {
  std::vector<double> us, allocs, peak;
  for (const auto& r : reps) {
    us.push_back(r.us_per_req());
    allocs.push_back(r.allocs / r.requests);
    peak.push_back(r.peak_extra_b);
  }
  return {median(us), median(allocs), median(peak)};
}

double median_of(const std::vector<Rep>& reps, double Rep::*field) {
  std::vector<double> v;
  for (const auto& r : reps) v.push_back(r.*field / r.requests);
  return median(std::move(v));
}

}  // namespace

void sim_end_to_end(const RunOptions& opts, bool observed, RunResult& out) {
  const SimStep& step = observed ? kSimObserved : kSimBare;
  Checker checker;
  // Set-up: build the spec and run the untimed reference repetition (the
  // first one warms the frame pools and fixes the digest every timed
  // repetition must match).
  core::ExperimentResult reference;
  std::vector<Rep> reps;
  const std::vector<double> setup_s = repeat_with_setups(
      opts.seconds, [&] { (void)sim_rep(opts, step, checker, &reference); },
      [&] { reps.push_back(sim_rep(opts, step, checker)); });
  report_repetitions(reps, setup_s, out);
  note_model_outputs(reference, sim_spec(opts), out);
  checker.merge_into(out);
}

void sim_layers(const RunOptions& opts, double budget_s, RunResult& out) {
  // Each step adds one plane; the last swaps the tracer's 1% sampling for
  // 100% and is compared against the capacity step.
  const SimStep steps[] = {
      {"bare", Layer::kBare, 0.0},          {"audit", Layer::kAudit, 0.0},
      {"registry", Layer::kRegistry, 0.0},  {"recorder", Layer::kRecorder, 0.0},
      {"alerts", Layer::kAlerts, 0.0},      {"capacity", Layer::kCapacity, 0.0},
      {"tracer", Layer::kTracer, 0.01},     {"tracer_full", Layer::kTracer, 1.0},
  };
  constexpr std::size_t kSteps = std::size(steps);
  Checker checker;
  core::ExperimentResult bare;
  for (const auto& s : steps) {
    (void)sim_rep(opts, s, checker, s.top == Layer::kBare ? &bare : nullptr);
  }

  std::vector<std::vector<Rep>> reps(kSteps);
  const int rounds = repeat_for(budget_s, 3, [&] {
    for (std::size_t k = 0; k < kSteps; ++k) reps[k].push_back(sim_rep(opts, steps[k], checker));
  });

  std::vector<StepStats> st;
  for (const auto& r : reps) st.push_back(step_stats(r));
  const auto marginal_us = [&](std::size_t k, std::size_t base) {
    return st[k].us_per_req - st[base].us_per_req;
  };
  const auto marginal_allocs = [&](std::size_t k) {
    return st[k].allocs_per_req - st[k - 1].allocs_per_req;
  };
  const auto marginal_kib = [&](std::size_t k) {
    return (st[k].peak_extra_b - st[k - 1].peak_extra_b) / 1024.0;
  };
  out.add("sim.us_per_req", st[0].us_per_req, "us/req");
  out.add("serving.audit.us_per_req", marginal_us(1, 0), "us/req");
  out.add("serving.audit.allocs_per_req", marginal_allocs(1), "allocs/req");
  out.add("serving.audit.retained_kb", marginal_kib(1), "KiB");
  out.add("metrics.registry.us_per_req", marginal_us(2, 1), "us/req");
  out.add("metrics.registry.allocs_per_req", marginal_allocs(2), "allocs/req");
  out.add("metrics.recorder.us_per_req", marginal_us(3, 2), "us/req");
  out.add("metrics.recorder.self_us_per_req", 1e6 * median_of(reps[3], &Rep::recorder_self_s),
          "us/req");
  out.add("obs.alerts.us_per_req", marginal_us(4, 3), "us/req");
  out.add("obs.alerts.self_us_per_req", 1e6 * median_of(reps[4], &Rep::alerts_self_s), "us/req");
  out.add("obs.capacity.us_per_req", marginal_us(5, 4), "us/req");
  out.add("obs.capacity.self_us_per_req", 1e6 * median_of(reps[5], &Rep::capacity_self_s),
          "us/req");
  out.add("trace.tracer.us_per_req", marginal_us(6, 5), "us/req");
  out.add("trace.tracer.retained_mb", marginal_kib(6) / 1024.0, "MiB");
  out.add("trace.tracer_full.us_per_req", marginal_us(7, 5), "us/req");

  // Kernel-level costs of the bare step (the hot path every workload runs).
  const Rep& b = reps[0].back();
  const auto per_req = [&](double n) { return n / b.requests; };
  out.add("sim.frame_allocs_per_req", per_req(static_cast<double>(b.sim_allocs.frame_allocs)),
          "allocs/req");
  out.add("sim.heap_allocs_per_req",
          per_req(static_cast<double>(b.sim_allocs.frame_heap_allocs +
                                      b.sim_allocs.action_heap_allocs)),
          "allocs/req");
  out.add("sim.pool_hit_rate",
          b.sim_allocs.frame_allocs == 0
              ? 0.0
              : static_cast<double>(b.sim_allocs.frame_pool_hits) /
                    static_cast<double>(b.sim_allocs.frame_allocs),
          "ratio");
  out.add("alloc.heap_allocs_per_req", st[0].allocs_per_req, "allocs/req");
  out.add("sim.event_ns", event_ns(), "ns");
  const double chan_ns = channel_op_ns();
  if (chan_ns < 0.0) {
    ++out.failed;
    std::fprintf(stderr, "FAILED [sim/channel]: hand-off lost items\n");
  }
  ++out.attempted;
  out.add("sim.channel_op_ns", chan_ns, "ns");
  note_model_outputs(bare, sim_spec(opts), out);

  for (std::size_t k = 0; k < kSteps; ++k) {
    out.note(std::string("ladder.sim.") + steps[k].name + ".us_per_req", st[k].us_per_req,
             "us/req");
  }
  out.note("ladder.sim.rounds", rounds, "count");
  checker.merge_into(out);
}

void fleet_end_to_end(const RunOptions& opts, RunResult& out) {
  const sim::FaultPlan plan = fleet_faults(opts.scale);
  Checker checker;
  std::vector<Rep> reps;
  const std::vector<double> setup_s = repeat_with_setups(
      opts.seconds, [&] { (void)fleet_rep(opts, plan, FleetLevel::kTracer, checker); },
      [&] { reps.push_back(fleet_rep(opts, plan, FleetLevel::kTracer, checker)); });
  report_repetitions(reps, setup_s, out);
  checker.merge_into(out);
}

void fleet_layers(const RunOptions& opts, double budget_s, RunResult& out) {
  const sim::FaultPlan plan = fleet_faults(opts.scale);
  constexpr std::size_t kLevels = std::size(kFleetLevelNames);
  Checker checker;
  core::FleetResult full;
  for (std::size_t k = 0; k < kLevels; ++k) {
    (void)fleet_rep(opts, plan, static_cast<FleetLevel>(k), checker,
                    k + 1 == kLevels ? &full : nullptr);
  }
  std::vector<std::vector<Rep>> reps(kLevels);
  const int rounds = repeat_for(budget_s, 3, [&] {
    for (std::size_t k = 0; k < kLevels; ++k) {
      reps[k].push_back(fleet_rep(opts, plan, static_cast<FleetLevel>(k), checker));
    }
  });
  std::vector<double> us;
  for (const auto& r : reps) us.push_back(step_stats(r).us_per_req);
  out.add("core.fleet.us_per_req", us[0], "us/req");
  for (std::size_t k = 1; k < kLevels; ++k) {
    out.add(std::string("core.fleet.") + kFleetLevelNames[k] + ".us_per_req", us[k] - us[k - 1],
            "us/req");
  }
  out.add("core.fleet.hedge_win_ratio",
          full.hedges == 0 ? 0.0
                           : static_cast<double>(full.hedge_wins) /
                                 static_cast<double>(full.hedges),
          "ratio");
  out.add("core.fleet.hedges_per_kreq", per_k(full.hedges, full.issued), "1/kreq");
  out.add("core.fleet.cancelled_per_kreq", per_k(full.cancelled, full.issued), "1/kreq");
  out.add("core.fleet.probes_per_kreq", per_k(full.probes, full.issued), "1/kreq");
  out.add("core.fleet.ejections", static_cast<double>(full.ejections), "count");
  out.note("model.fleet.goodput_rps", full.throughput_rps, "sim_req/s");
  out.note("model.fleet.p99_ms", full.p99_latency_s * 1e3, "sim_ms");
  out.note("ladder.fleet.rounds", rounds, "count");
  checker.merge_into(out);
}

}  // namespace serve::perf
