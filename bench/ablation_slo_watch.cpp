// Ablation: the SLO watch plane end to end.
//
// One tuned ViT server (GPU preprocessing, open-loop Poisson arrivals) runs
// three times with the full observability stack armed — registry + flight
// recorder + obs::AlertEngine + causal tracer:
//
//   1. fault-free baseline: every alert rule stays silent;
//   2. faulted run: a PCIe-degradation window plus a staging-memory shrink
//      open mid-run, the SLO burn-rate / queue-depth / eviction-storm alerts
//      fire at deterministic sim-times inside the window and resolve after
//      it, the alert engine flips the trace sampler into full capture for
//      the anomalous interval, and the latency histogram's tail buckets
//      carry trace exemplars;
//   3. faulted repeat: the same seed must reproduce a byte-identical alert
//      log — alerting is part of the determinism contract, not best-effort.
//
// The run also exercises `servescope diff`'s attribution story: the
// fault-free export (--baseline-json-out) vs the faulted export (--json-out)
// must attribute the p99 shift to the faulted transfer stage. CI diffs the
// two and greps the attribution line.
//
// Extra flags (before the common harness flags):
//   --alert-log <path>           write the faulted run's alert log
//   --baseline-json-out <path>   write the fault-free telemetry export
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bench_util.h"
#include "core/experiment.h"
#include "models/model_zoo.h"
#include "workload/arrivals.h"

using namespace serve;
using core::ExperimentSpec;

namespace {

constexpr double kRate = 1000.0;      // ~55% of single-GPU capacity: headroom to drain the backlog
constexpr double kSloSeconds = 0.25;  // latency objective the burn rule watches

/// Everything one run owns; heap-allocated so results can outlive the run
/// helper and feed the exports/checks.
struct RunBundle {
  explicit RunBundle(std::size_t trace_max_events)
      : session{core::Session::kAlerts | core::Session::kTracer,
                {.trace_max_events = trace_max_events}} {}

  core::Session session;
  obs::AlertEngine& alerts = session.alerts();
  core::ExperimentResult r;

  double p99_ms() const { return r.p99_latency_s * 1e3; }
};

/// The production rule set: SLO burn, queue depth, eviction storm, stall
/// watchdog. The stall rule is armed in every run and must never fire here —
/// the server is loaded, not wedged.
void arm_rules(obs::AlertEngine& eng) {
  obs::BurnRateRule burn;
  burn.name = "slo-burn-rate";
  burn.slo_s = kSloSeconds;
  burn.target = 0.99;
  burn.burn_threshold = 10.0;  // ~10x error budget: a real incident, not noise
  burn.short_window_ticks = 5;
  burn.long_window_ticks = 30;
  burn.clear_for_ticks = 3;
  eng.add_burn_rate(burn);

  obs::ThresholdRule depth;
  depth.name = "queue-depth-high";
  depth.instrument = "serving_queue_depth";
  depth.fire_above = 256.0;
  depth.clear_below = 64.0;
  depth.for_ticks = 2;
  depth.clear_for_ticks = 2;
  eng.add_threshold(depth);

  obs::ThresholdRule storm;
  storm.name = "eviction-storm";
  storm.instrument = "gpu_staging_evictions_total";
  storm.signal = obs::ThresholdRule::Signal::kRate;
  storm.fire_above = 200.0;  // evictions/s
  storm.clear_below = 50.0;
  storm.for_ticks = 2;
  storm.clear_for_ticks = 2;
  eng.add_threshold(storm);

  obs::StallRule stall;
  stall.name = "progress-stall";
  stall.progress = "serving_requests_completed_total";
  stall.armed_gauge = "serving_in_flight";
  stall.armed_above = 0.5;
  stall.for_ticks = 5;
  eng.add_stall(stall);
}

std::unique_ptr<RunBundle> run(bench::Reporter& rep, const std::string& label,
                               const sim::FaultPlan* faults) {
  auto b = std::make_unique<RunBundle>(rep.trace_max_events());
  arm_rules(b->alerts);

  ExperimentSpec spec;
  spec.server.model = models::vit_base();
  spec.server.preproc = serving::PreprocDevice::kGpu;
  spec.gpu_count = 1;
  spec.warmup = sim::seconds(2.0);
  spec.measure = sim::seconds(16.0);  // leaves room for the post-fault drain + alert resolution
  spec.seed = 31;
  spec.server.audit = true;
  // Thin steady-state head sampling; the alert engine forces full capture
  // while an alert is firing, so the anomalous interval is traced wholesale.
  spec.server.trace_sampler.rate = 1.0 / 64.0;
  spec.faults = faults;
  b->session.attach(spec);

  b->r = core::run_open_loop(spec, workload::poisson_arrivals(kRate));
  rep.audit(b->r, label);
  return b;
}

/// Fault schedule: a PCIe-degradation window (transfer inflates 16x — the
/// attributable stage) plus a near-total staging shrink (eviction storm,
/// whose re-uploads amplify the degraded transfers) over the same interval.
sim::FaultPlan fault_plan() {
  sim::FaultPlan plan;
  plan.pcie_degradation(sim::seconds(6.0), sim::seconds(9.0), 16.0);
  plan.gpu_memory_shrink(0, sim::seconds(6.0), sim::seconds(9.0), 0.001);
  return plan;
}

/// First FIRING time for `alert` in the event list, or -1.
double first_firing_s(const RunBundle& b, const std::string& alert) {
  for (const auto& ev : b.alerts.events()) {
    if (ev.firing && ev.alert == alert) return sim::to_seconds(ev.t);
  }
  return -1.0;
}

bool resolved_after(const RunBundle& b, const std::string& alert, double t_s) {
  for (const auto& ev : b.alerts.events()) {
    if (!ev.firing && ev.alert == alert && sim::to_seconds(ev.t) > t_s) return true;
  }
  return false;
}

/// Any latency-histogram bucket at/above the SLO carrying a trace exemplar.
bool tail_has_exemplar(const metrics::Registry& reg) {
  const auto snap = reg.find("serving_request_latency_seconds");
  if (!snap) return false;
  for (const auto& bkt : snap->buckets) {
    if (bkt.upper >= kSloSeconds && bkt.exemplar_trace_id != 0) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Reporter rep("Ablation", "SLO watch plane: alerts, triggered capture, diff attribution");

  std::string alert_log_path;
  std::string baseline_json_path;
  std::vector<const char*> rest;
  rest.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--alert-log" || arg == "--baseline-json-out") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s requires a file path\n", argv[i]);
        return 2;
      }
      (arg == "--alert-log" ? alert_log_path : baseline_json_path) = argv[++i];
    } else {
      rest.push_back(argv[i]);
    }
  }
  if (!rep.parse_cli(static_cast<int>(rest.size()), rest.data(), true)) return 2;

  const sim::FaultPlan faults = fault_plan();
  const auto base = run(rep, "slo-watch/base", nullptr);
  const auto fault = run(rep, "slo-watch/fault", &faults);
  const auto repeat = run(rep, "slo-watch/fault-repeat", &faults);

  metrics::Table table({"scenario", "tput_img_s", "p99_ms", "completed", "evictions",
                        "alerts_fired", "capture_ticks"});
  const auto add = [&table](const std::string& name, const RunBundle& b) {
    table.add_row({name, b.r.throughput_rps, b.p99_ms(), static_cast<double>(b.r.completed),
                   static_cast<double>(b.r.gpu_evictions),
                   static_cast<double>(b.alerts.fired_total()),
                   static_cast<double>(b.alerts.capture_ticks())});
  };
  add("fault-free", *base);
  add("pcie-degrade + staging-shrink", *fault);
  add("faulted repeat (determinism)", *repeat);
  rep.table("table", table);

  if (!fault->alerts.events().empty()) {
    std::printf("\nAlert log (faulted run):\n");
    fault->alerts.write_log(std::cout);
  }

  // The faulted run is the Reporter's export (--json-out); the fault-free
  // run goes to --baseline-json-out so `servescope diff` can attribute the delta.
  rep.context("rate_rps", std::to_string(kRate));
  rep.context("slo_s", std::to_string(kSloSeconds));
  rep.benchmark("slo_watch/run", fault->r.mean_latency_s * 1e3,
                {{"tput_img_s", fault->r.throughput_rps}, {"p99_ms", fault->p99_ms()}});
  fault->session.capture(rep.exporter());

  if (!baseline_json_path.empty()) {
    metrics::TelemetryExport ex;
    ex.set_context("figure", "Ablation");
    ex.set_context("title", "SLO watch plane: fault-free baseline");
    ex.add_benchmark({"slo_watch/run", base->r.mean_latency_s * 1e3, "ms",
                      {{"tput_img_s", base->r.throughput_rps}, {"p99_ms", base->p99_ms()}}});
    base->session.capture(ex);
    if (rep.write_file(baseline_json_path, "telemetry",
                       [&](std::ostream& o) { ex.write_json(o); })) {
      std::fprintf(stderr, "# telemetry: wrote %s\n", baseline_json_path.c_str());
    }
  }
  if (!alert_log_path.empty() &&
      rep.write_file(alert_log_path, "alert",
                     [&](std::ostream& o) { fault->alerts.write_log(o); })) {
    std::fprintf(stderr, "# alerts: wrote %s\n", alert_log_path.c_str());
  }

  const double burn_t = first_firing_s(*fault, "slo-burn-rate");
  const double depth_t = first_firing_s(*fault, "queue-depth-high");
  const double storm_t = first_firing_s(*fault, "eviction-storm");

  // Attribution inside the run: the PCIe fault inflates the transfer stage;
  // its per-request seconds must grow by more than any other *service* stage
  // (queue time explodes too, but queueing is the symptom, not the cause).
  const auto per_req = [](const RunBundle& b, metrics::Stage s) {
    return b.r.breakdown.mean(s);
  };
  const double d_transfer = per_req(*fault, metrics::Stage::kTransfer) -
                            per_req(*base, metrics::Stage::kTransfer);
  double d_other_max = 0.0;
  for (const auto s : {metrics::Stage::kPreprocess, metrics::Stage::kInference,
                       metrics::Stage::kPostprocess}) {
    d_other_max = std::max(d_other_max, per_req(*fault, s) - per_req(*base, s));
  }

  std::vector<bench::ShapeCheck> checks;
  checks.push_back({"fault-free run raises no alerts",
                    base->alerts.events().empty() && base->alerts.fired_total() == 0,
                    std::to_string(base->alerts.events().size()) + " event(s)"});
  checks.push_back({"SLO burn-rate alert fires during the [6s,9s] fault window (+detection lag)",
                    burn_t >= 6.0 && burn_t <= 10.0, "first firing t=" + std::to_string(burn_t)});
  checks.push_back({"queue-depth alert fires during the fault window",
                    depth_t >= 6.0 && depth_t <= 10.0,
                    "first firing t=" + std::to_string(depth_t)});
  checks.push_back({"eviction-storm (counter-rate) alert fires during the fault window",
                    storm_t >= 6.0 && storm_t <= 10.0,
                    "first firing t=" + std::to_string(storm_t)});
  checks.push_back({"alerts resolve after the fault window closes and the backlog drains",
                    resolved_after(*fault, "slo-burn-rate", 9.0) &&
                        resolved_after(*fault, "queue-depth-high", 9.0),
                    "resolution events past t=9s present"});
  checks.push_back({"the stall watchdog stays silent in every run (loaded, not wedged)",
                    first_firing_s(*base, "progress-stall") < 0.0 &&
                        first_firing_s(*fault, "progress-stall") < 0.0,
                    "no progress-stall firings"});
  checks.push_back({"same-seed repeat reproduces a byte-identical alert log",
                    !fault->alerts.log_text().empty() &&
                        fault->alerts.log_text() == repeat->alerts.log_text(),
                    std::to_string(fault->alerts.events().size()) + " event(s), " +
                        std::to_string(fault->alerts.log_text().size()) + " bytes"});
  checks.push_back({"an alert firing flips the sampler into full capture (triggered ticks)",
                    fault->alerts.capture_ticks() > 0 && base->alerts.capture_ticks() == 0,
                    std::to_string(fault->alerts.capture_ticks()) + " captured tick(s)"});
  checks.push_back({"triggered capture records far more request spans than steady-state",
                    fault->session.trace().span_count() > 2 * base->session.trace().span_count(),
                    std::to_string(fault->session.trace().span_count()) + " vs " +
                        std::to_string(base->session.trace().span_count()) + " spans"});
  checks.push_back({"SLO tail buckets carry trace exemplars in the faulted run",
                    tail_has_exemplar(fault->session.registry()),
                    "exemplar trace ids present at/above the SLO bucket"});
  checks.push_back({"per-request transfer time shifts more than any other service stage "
                    "(diff attribution target)",
                    d_transfer > 2.0 * d_other_max && d_transfer > 0.0,
                    "transfer +" + std::to_string(1e3 * d_transfer) + " ms/req vs other max +" +
                        std::to_string(1e3 * d_other_max) + " ms/req"});
  checks.push_back({"faulted p99 blows through the SLO while fault-free stays under it",
                    base->r.p99_latency_s < kSloSeconds && fault->r.p99_latency_s > kSloSeconds,
                    std::to_string(base->p99_ms()) + " ms vs " + std::to_string(fault->p99_ms()) +
                        " ms (slo " + std::to_string(1e3 * kSloSeconds) + " ms)"});
  checks.push_back({"conservation holds in every scenario (auditor)", rep.violations() == 0,
                    std::to_string(rep.violations()) + " violation(s)"});
  rep.checks(std::move(checks));

  return rep.finish(&fault->session.trace());
}
