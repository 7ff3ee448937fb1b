// Ablation: the capacity plane end to end.
//
// One deployment (CPU preprocessing, dynamic batching, open-loop Poisson
// arrivals) serves two models with the full capacity plane armed — registry +
// flight recorder + obs::CapacityPlane + obs::AlertEngine Little's-law rule:
//
//   1. TinyViT (1.3 GF) near its knee: the 24-worker CPU preprocessing pool
//      saturates long before the GPU engine — the bottleneck attributor must
//      name the CPU-side path (preprocess workers / PCIe), reproducing the
//      paper's small-model verdict;
//   2. ViT-Base (17.6 GF) near its knee: the same deployment binds on the
//      GPU engine — the attribution crossover;
//   3. overload runs for both models: the measured saturation throughput is
//      the ground-truth knee the headroom estimator (max sustainable rps =
//      median lambda / u_binding from the *moderate-load* run) must land
//      within 15% of;
//   4. a ViT run with a mid-run CPU-preprocess-slowdown window (the CPU path
//      is the one this deployment exercises; a PCIe fault cannot bite its
//      double-buffered staging): the bottleneck attribution must flip from
//      the GPU engine onto the preprocess pool for the window, and the
//      Little's-law audit must deviate only while the backlog grows and
//      drains around it (the littles-law alert rule fires inside it),
//      staying clean in steady state;
//   5. a same-seed repeat of the ViT run: the exported capacity section must
//      be byte-identical — attribution is part of the determinism contract.
//
// The faulted ViT run is the Reporter's export (--json-out): its "capacity"
// section carries the binding-segment flip (compute -> preproc -> compute)
// that `servescope capacity` and `servescope report` render in CI.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/experiment.h"
#include "models/model_zoo.h"
#include "workload/arrivals.h"

using namespace serve;
using core::ExperimentSpec;

namespace {

// Offered rates: ~80-85% of each model's estimated knee for the attribution
// runs (loaded enough to bind, enough headroom for the audit to stay in
// steady state), ~1.5x for the overload runs that measure the true knee.
constexpr double kTinyRate = 5500.0;
constexpr double kTinyOverloadRate = 10000.0;
constexpr double kVitRate = 1550.0;
constexpr double kVitOverloadRate = 3000.0;
constexpr double kVitFaultRate = 1200.0;  // headroom to drain the fault backlog

constexpr double kFaultStartS = 6.0;
constexpr double kFaultEndS = 9.0;
// Backlog drains at (capacity - offered) after the window closes; violations
// past this bound would mean the audit is flagging steady state.
constexpr double kDrainDeadlineS = 13.0;
// The open-loop ramp from an empty system is a genuine backlog-growth
// transient; the audit is allowed to flag it (first few recorder intervals).
constexpr double kStartupGraceS = 1.0;

/// Everything one run owns; heap-allocated so results can outlive the run
/// helper and feed the exports/checks.
struct RunBundle {
  core::Session session{
      core::Session::kCapacity | core::Session::kAlerts,
      // 200 ms intervals: long enough that batch-quantized completions (a
      // 64-image batch lands its whole latency charge at one instant) average
      // out, short enough to localize a 3 s fault window to ~15 intervals.
      // Audit tolerance sized for batchy service: per-interval lambda*W jumps
      // by a whole batch's latency charge depending on whether 2 or 3 batches
      // complete inside the interval, so steady state wobbles ~20-30%;
      // genuine backlog transients deviate by 2x and more.
      {.recorder = {.period = sim::milliseconds(200)},
       .capacity = {.little_tolerance = 0.35, .little_min_occupancy = 5.0}}};
  obs::CapacityPlane& plane = session.capacity();
  obs::AlertEngine& alerts = session.alerts();
  core::ExperimentResult r;

  /// End time (seconds since recorder start) of capacity interval `i`.
  double interval_end_s(std::size_t i) const {
    return static_cast<double>(i + 1) * sim::to_seconds(session.recorder().period());
  }
};

std::unique_ptr<RunBundle> run(bench::Reporter& rep, const std::string& label,
                               const models::ModelDesc& model, double rate, double measure_s,
                               const sim::FaultPlan* faults) {
  auto b = std::make_unique<RunBundle>();

  // The alert-engine view of the same audit: fires when L and lambda*W split
  // for consecutive ticks. Looser than the plane's per-interval samples —
  // an *alert* should page on sustained backlog growth, not one noisy tick.
  obs::LittleLawRule little;
  little.name = "littles-law";
  little.tolerance = 0.35;
  little.min_occupancy = 5.0;
  little.for_ticks = 2;
  little.clear_for_ticks = 3;
  b->alerts.add_littles_law(little);

  ExperimentSpec spec;
  spec.server.model = model;
  spec.server.preproc = serving::PreprocDevice::kCpu;  // one deployment, two verdicts
  // Two execution instances overlap the host-side staging hop with the
  // previous batch's compute: the binding resource can then actually reach
  // ~100% busy at the knee, which is what makes lambda/u a knee estimator.
  spec.server.instance_count = 2;
  spec.gpu_count = 1;
  spec.warmup = sim::seconds(2.0);
  spec.measure = sim::seconds(measure_s);
  spec.seed = 47;
  spec.server.trace_run_label = label;
  spec.faults = faults;
  b->session.attach(spec);
  if (rep.auditing()) spec.server.audit = true;
  // Only the faulted run's trace is written out, so only it records one.
  if (faults != nullptr) rep.observe(spec.server, spec);

  b->r = core::run_open_loop(spec, workload::poisson_arrivals(rate));
  rep.audit(b->r, label);
  return b;
}

/// The capacity section serialized on its own: the byte-identity check must
/// compare attribution, not the (identical anyway) instrument dump.
std::string capacity_bytes(const RunBundle& b) {
  metrics::TelemetryExport ex;
  ex.set_context("figure", "Ablation");
  ex.set_context("title", "capacity determinism probe");
  ex.set_capacity(b.plane.snapshot());
  std::ostringstream out;
  ex.write_json(out);
  return out.str();
}

std::string binding_line(const std::string& scenario, const RunBundle& b) {
  const std::size_t dom = b.plane.dominant_resource();
  const std::string res =
      dom == obs::CapacityPlane::kIdle ? "idle" : b.plane.resources()[dom].label();
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "attribution[%s]: binding=%s stage=%s sustainable=%.0f rps (measured %.0f rps)",
                scenario.c_str(), res.c_str(),
                std::string(metrics::stage_name(b.plane.dominant_stage())).c_str(),
                b.plane.sustainable_rps(), b.r.throughput_rps);
  return buf;
}

/// True when every flagged interval ends inside [lo, hi] (seconds since
/// recorder start), ignoring the startup grace period.
bool violations_within(const RunBundle& b, double lo, double hi) {
  for (const std::size_t i : b.plane.violation_intervals()) {
    const double t = b.interval_end_s(i);
    if (t <= kStartupGraceS) continue;
    if (t < lo || t > hi) return false;
  }
  return true;
}

std::size_t violations_after_grace(const RunBundle& b) {
  std::size_t n = 0;
  for (const std::size_t i : b.plane.violation_intervals()) {
    if (b.interval_end_s(i) > kStartupGraceS) ++n;
  }
  return n;
}

double first_firing_s(const RunBundle& b, const std::string& alert) {
  for (const auto& ev : b.alerts.events()) {
    if (ev.firing && ev.alert == alert) return sim::to_seconds(ev.t);
  }
  return -1.0;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Reporter rep("Ablation",
                      "Capacity plane: utilization timelines, Little audit, attribution");
  if (!rep.parse_cli(argc, argv, true)) return 2;

  const auto wall0 = std::chrono::steady_clock::now();

  // An 8x preprocess slowdown drops the pool's capacity to ~800 rps, well
  // under the 1200 rps offered: backlog grows for the window, drains after.
  sim::FaultPlan faults;
  faults.preproc_slowdown(sim::seconds(kFaultStartS), sim::seconds(kFaultEndS), 8.0);

  const auto tiny = run(rep, "capacity/tiny", models::tiny_vit(), kTinyRate, 10.0, nullptr);
  const auto tiny_over =
      run(rep, "capacity/tiny-overload", models::tiny_vit(), kTinyOverloadRate, 8.0, nullptr);
  const auto vit = run(rep, "capacity/vit", models::vit_base(), kVitRate, 10.0, nullptr);
  const auto vit_repeat =
      run(rep, "capacity/vit-repeat", models::vit_base(), kVitRate, 10.0, nullptr);
  const auto vit_over =
      run(rep, "capacity/vit-overload", models::vit_base(), kVitOverloadRate, 8.0, nullptr);
  const auto vit_fault =
      run(rep, "capacity/vit-fault", models::vit_base(), kVitFaultRate, 16.0, &faults);

  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - wall0;

  metrics::Table table({"scenario", "rate_rps", "tput_img_s", "p99_ms", "binding", "stage",
                        "sustainable_rps", "little_violations"});
  const auto add = [&table](const std::string& name, double rate, const RunBundle& b) {
    const std::size_t dom = b.plane.dominant_resource();
    table.add_row({name, rate, b.r.throughput_rps, b.r.p99_latency_s * 1e3,
                   dom == obs::CapacityPlane::kIdle ? std::string("idle")
                                                    : b.plane.resources()[dom].label(),
                   std::string(metrics::stage_name(b.plane.dominant_stage())),
                   b.plane.sustainable_rps(), static_cast<double>(b.plane.violations())});
  };
  add("tiny_vit @83%", kTinyRate, *tiny);
  add("tiny_vit overload", kTinyOverloadRate, *tiny_over);
  add("vit_base @82%", kVitRate, *vit);
  add("vit_base repeat", kVitRate, *vit_repeat);
  add("vit_base overload", kVitOverloadRate, *vit_over);
  add("vit_base + preproc fault", kVitFaultRate, *vit_fault);
  rep.table("table", table);

  // Greppable attribution verdicts (CI pins the crossover on these lines).
  std::printf("\n%s\n", binding_line("tiny", *tiny).c_str());
  std::printf("%s\n", binding_line("vit_base", *vit).c_str());
  std::printf("%s\n", binding_line("vit_fault", *vit_fault).c_str());

  // The faulted run is the Reporter's export: instruments, series, and the
  // capacity section with the compute -> preproc -> compute binding segments.
  rep.context("deployment", "cpu-preproc, dynamic batching, 1 gpu");
  rep.benchmark("capacity/tiny", tiny->r.mean_latency_s * 1e3,
                {{"tput_img_s", tiny->r.throughput_rps},
                 {"sustainable_rps", tiny->plane.sustainable_rps()}});
  rep.benchmark("capacity/vit_base", vit->r.mean_latency_s * 1e3,
                {{"tput_img_s", vit->r.throughput_rps},
                 {"sustainable_rps", vit->plane.sustainable_rps()}});
  rep.benchmark("capacity/vit_fault", vit_fault->r.mean_latency_s * 1e3,
                {{"tput_img_s", vit_fault->r.throughput_rps},
                 {"p99_ms", vit_fault->r.p99_latency_s * 1e3}});
  vit_fault->session.capture(rep.exporter());

  // Attribution verdicts + cross-check against the full-population stage
  // breakdown (the auditor-independent view of where request time went).
  const std::size_t tiny_dom = tiny->plane.dominant_resource();
  const std::size_t vit_dom = vit->plane.dominant_resource();
  const std::string tiny_binding =
      tiny_dom == obs::CapacityPlane::kIdle ? "idle" : tiny->plane.resources()[tiny_dom].label();
  const std::string vit_binding =
      vit_dom == obs::CapacityPlane::kIdle ? "idle" : vit->plane.resources()[vit_dom].label();
  const metrics::Stage tiny_stage = tiny->plane.dominant_stage();
  const metrics::Stage vit_stage = vit->plane.dominant_stage();

  const double knee_tiny = tiny_over->r.throughput_rps;
  const double knee_vit = vit_over->r.throughput_rps;
  const double est_tiny = tiny->plane.sustainable_rps();
  const double est_vit = vit->plane.sustainable_rps();
  const double err_tiny = knee_tiny > 0 ? std::abs(est_tiny - knee_tiny) / knee_tiny : 1.0;
  const double err_vit = knee_vit > 0 ? std::abs(est_vit - knee_vit) / knee_vit : 1.0;

  const double little_t = first_firing_s(*vit_fault, "littles-law");
  const double self_s = tiny->plane.self_seconds() + tiny_over->plane.self_seconds() +
                        vit->plane.self_seconds() + vit_repeat->plane.self_seconds() +
                        vit_over->plane.self_seconds() + vit_fault->plane.self_seconds();

  std::vector<bench::ShapeCheck> checks;
  checks.push_back({"small model binds on the CPU preprocess/transfer path",
                    tiny_binding.rfind("cpu.preproc", 0) == 0 || tiny_binding == "host.pcie",
                    "binding " + tiny_binding});
  checks.push_back({"large model binds on the GPU engine (attribution crossover)",
                    vit_binding == "gpu0.compute", "binding " + vit_binding});
  checks.push_back(
      {"attribution agrees with the stage breakdown: tiny is preprocess/transfer-heavy",
       (tiny_stage == metrics::Stage::kPreprocess || tiny_stage == metrics::Stage::kTransfer) &&
           tiny->r.breakdown.mean(metrics::Stage::kPreprocess) >
               tiny->r.breakdown.mean(metrics::Stage::kInference),
       "preproc " + std::to_string(1e3 * tiny->r.breakdown.mean(metrics::Stage::kPreprocess)) +
           " ms/req vs infer " +
           std::to_string(1e3 * tiny->r.breakdown.mean(metrics::Stage::kInference)) + " ms/req"});
  checks.push_back(
      {"attribution agrees with the stage breakdown: vit is inference-heavy",
       vit_stage == metrics::Stage::kInference &&
           vit->r.breakdown.mean(metrics::Stage::kInference) >
               vit->r.breakdown.mean(metrics::Stage::kPreprocess),
       "infer " + std::to_string(1e3 * vit->r.breakdown.mean(metrics::Stage::kInference)) +
           " ms/req vs preproc " +
           std::to_string(1e3 * vit->r.breakdown.mean(metrics::Stage::kPreprocess)) + " ms/req"});
  checks.push_back({"headroom estimate lands within 15% of the measured tiny knee",
                    err_tiny <= 0.15,
                    "est " + std::to_string(est_tiny) + " vs measured " +
                        std::to_string(knee_tiny) + " (" + std::to_string(100.0 * err_tiny) +
                        "%)"});
  checks.push_back({"headroom estimate lands within 15% of the measured vit knee",
                    err_vit <= 0.15,
                    "est " + std::to_string(est_vit) + " vs measured " + std::to_string(knee_vit) +
                        " (" + std::to_string(100.0 * err_vit) + "%)"});
  checks.push_back({"Little's-law audit is clean in steady state (fault-free runs)",
                    violations_after_grace(*tiny) == 0 && violations_after_grace(*vit) == 0,
                    std::to_string(violations_after_grace(*tiny)) + " + " +
                        std::to_string(violations_after_grace(*vit)) +
                        " flagged interval(s) after startup"});
  checks.push_back(
      {"Little's-law audit deviates only around the injected fault window",
       violations_after_grace(*vit_fault) > 0 &&
           violations_within(*vit_fault, kFaultStartS, kDrainDeadlineS),
       std::to_string(violations_after_grace(*vit_fault)) + " flagged interval(s), window [" +
           std::to_string(kFaultStartS) + ", " + std::to_string(kDrainDeadlineS) + "]s"});
  checks.push_back({"littles-law alert fires inside the fault window, never fault-free",
                    little_t >= kFaultStartS && little_t <= kFaultEndS + 1.0 &&
                        first_firing_s(*vit, "littles-law") < 0.0 &&
                        first_firing_s(*tiny, "littles-law") < 0.0,
                    "first firing t=" + std::to_string(little_t)});
  checks.push_back({"fault window re-binds the GPU-bound run onto the slowed preprocess pool",
                    [&] {
                      for (const auto& seg : vit_fault->plane.segments()) {
                        if (seg.resource == obs::CapacityPlane::kIdle) continue;
                        if (vit_fault->plane.resources()[seg.resource].label() ==
                            "cpu.preproc_workers") {
                          return true;
                        }
                      }
                      return false;
                    }(),
                    "cpu.preproc_workers binding segment present"});
  checks.push_back({"same-seed repeat exports a byte-identical capacity section",
                    capacity_bytes(*vit) == capacity_bytes(*vit_repeat),
                    std::to_string(capacity_bytes(*vit).size()) + " bytes"});
  checks.push_back({"capacity plane self-overhead stays under 1% of run wall-clock",
                    self_s < 0.01 * wall.count(),
                    std::to_string(self_s) + " s of " + std::to_string(wall.count()) + " s"});
  checks.push_back({"conservation holds in every scenario (auditor)", rep.violations() == 0,
                    std::to_string(rep.violations()) + " violation(s)"});
  rep.checks(std::move(checks));

  return rep.finish();
}
