// Ablation: deadline-based load shedding under overload.
//
// The paper's serving model caps concurrency at the load balancer; an
// alternative (or complement) is dropping requests that have already blown
// their deadline before spending GPU time on them. This ablation drives the
// tuned ViT server with an open-loop Poisson overload (~120% of capacity)
// and sweeps the shed deadline, trading goodput against bounded tails.
// Takes --audit / --trace-out like the other ablations.
#include "bench_util.h"
#include "core/experiment.h"
#include "models/model_zoo.h"
#include "workload/arrivals.h"

using namespace serve;
using core::ExperimentSpec;

namespace {

struct Point {
  double goodput;
  double p99_ms;
  double drop_pct;
};

core::HarnessOptions g_harness;
sim::TraceRecorder g_trace;
std::uint64_t g_violations = 0;

Point run(sim::Time deadline, double rate) {
  ExperimentSpec spec;
  spec.server.model = models::vit_base();
  spec.server.preproc = serving::PreprocDevice::kGpu;
  spec.server.shed_deadline = deadline;
  spec.warmup = sim::seconds(3.0);
  spec.measure = sim::seconds(12.0);
  spec.seed = 11;
  g_harness.apply(spec, g_trace);
  const core::ExperimentResult r = core::run_open_loop(spec, workload::poisson_arrivals(rate));
  g_violations += core::report_audit(r, "shed_deadline_ns=" + std::to_string(deadline));
  // Fraction of finished (completed or shed) requests that were shed.
  const std::uint64_t finished = r.completed + r.dropped;
  const double drop_rate =
      finished ? static_cast<double>(r.dropped) / static_cast<double>(finished) : 0.0;
  return {r.throughput_rps, r.p99_latency_s * 1e3, 100.0 * drop_rate};
}

}  // namespace

int main(int argc, char** argv) {
  bench::Reporter rep("Ablation", "Load shedding under overload (ViT @ ~120% offered load)");
  if (!rep.parse_cli(argc, argv, &g_harness)) return 2;

  const double overload_rate = 2200.0;  // capacity ~1840 img/s
  metrics::Table table({"shed_deadline_ms", "goodput_img_s", "p99_ms", "dropped_%"});
  Point none{}, tight{}, loose{};
  for (double d_ms : {0.0, 100.0, 250.0, 1000.0}) {
    const Point p = run(sim::milliseconds(d_ms), overload_rate);
    table.add_row({d_ms == 0.0 ? std::string("off") : std::to_string(d_ms), p.goodput, p.p99_ms,
                   p.drop_pct});
    if (d_ms == 0.0) none = p;
    if (d_ms == 100.0) tight = p;
    if (d_ms == 1000.0) loose = p;
  }
  rep.table("table", table);

  std::vector<bench::ShapeCheck> checks;
  checks.push_back({"without shedding, overload latency grows unbounded (seconds-scale p99)",
                    none.p99_ms > 1000.0, std::to_string(none.p99_ms) + " ms"});
  checks.push_back({"a tight deadline bounds p99 near the deadline",
                    tight.p99_ms < 250.0 && tight.drop_pct > 5.0,
                    "p99 " + std::to_string(tight.p99_ms) + " ms, drops " +
                        std::to_string(tight.drop_pct) + " %"});
  checks.push_back({"shedding preserves most of the goodput",
                    tight.goodput > 0.85 * none.goodput,
                    std::to_string(tight.goodput) + " vs " + std::to_string(none.goodput)});
  checks.push_back({"looser deadlines drop less but allow higher tails",
                    loose.drop_pct < tight.drop_pct && loose.p99_ms > tight.p99_ms,
                    "see table"});
  rep.checks(std::move(checks));
  return rep.finish(core::finish_harness(g_harness, g_trace, g_violations));
}
