// Ablation: fleet-level failure domains vs balancer resilience policies.
//
// Four-node ViT fleet under open-loop Poisson load, driven through
// node-scoped fault schedules (sim::FaultPlan). Each scenario compares a
// naive balancer against the matching fleet policy:
//
//   A. Node crash. A no-health round-robin balancer keeps dispatching a
//      quarter of the traffic into connection refusals for the whole window;
//      health-checked power-of-two-choices ejects the node within a few
//      probe intervals and holds goodput near the fault-free baseline, then
//      rejoins it after the crash clears.
//   B. Gray failure — the hard case for queue-length balancing. The gray
//      node fast-fails most requests, so its queue stays short and plain
//      join-shortest-queue *floods* it; latency-weighted routing feeds
//      failures into the latency signal and routes around it. Health checks
//      are off in both runs: probes succeed against a gray node by
//      definition, so the policy choice is what matters.
//   C. Partition. A 400 ms balancer<->node link delay stretches the tail to
//      ~0.8 s for 1-in-4 requests; hedged requests re-dispatch after 30 ms
//      and cut p99 by an order of magnitude. A second run with a tiny
//      non-refilling hedge-token budget shows the budget is a hard cap.
//   D. Determinism: scenario A's health run repeated must produce a
//      byte-identical FleetResult digest.
//
// Every run executes with per-node lifecycle auditors on, and every logical
// request must reach exactly one terminal state (issued == completed +
// failed) — hedged, cancelled, and dropped requests included.
#include <string>

#include "bench_util.h"
#include "core/fleet.h"
#include "models/model_zoo.h"

using namespace serve;
using core::BalancerPolicy;
using core::FleetSpec;

namespace {

FleetSpec base_spec() {
  FleetSpec spec;
  spec.server.model = models::vit_base();
  spec.server.preproc = serving::PreprocDevice::kGpu;
  spec.gpus_per_node = {1, 1, 1, 1};
  spec.rate_rps = 4000.0;  // ~55% of the ~7200/s four-node capacity
  spec.warmup = sim::seconds(2.0);
  spec.measure = sim::seconds(12.0);
  spec.seed = 23;
  spec.audit = true;  // conservation is checked in every scenario
  // Spread trace sampling across the whole run: the default cap would be
  // exhausted before the fault windows open at t=3s, so no hedged or
  // ejection-era request would ever appear in the trace.
  spec.server.trace_sampler.rate = 1.0 / 64.0;
  spec.server.trace_sampler.max_sampled = 2000;
  return spec;
}

core::FleetResult run(bench::Reporter& rep, const std::string& label, FleetSpec spec) {
  rep.observe(spec.server, spec, true);
  auto r = core::run_fleet(spec);
  core::AuditVerdict verdict = r;
  if (!r.conserved()) {
    ++verdict.audit_violations;
    verdict.audit_report.push_back("conservation: issued=" + std::to_string(r.issued) +
                                   " completed=" + std::to_string(r.completed) +
                                   " failed=" + std::to_string(r.failed));
  }
  rep.audit(verdict, label);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Reporter rep("Ablation", "Fleet failure domains: crash / gray / partition (audited)");
  if (!rep.parse_cli(argc, argv, true)) return 2;

  metrics::Table table({"scenario", "goodput_img_s", "p99_ms", "failed", "ejections", "hedges",
                        "node0_dispatch_share"});
  auto add = [&table](const std::string& name, const core::FleetResult& r) {
    std::uint64_t total = 0;
    for (auto d : r.node_dispatches) total += d;
    const double share =
        total > 0 ? static_cast<double>(r.node_dispatches[0]) / static_cast<double>(total) : 0.0;
    table.add_row({name, r.throughput_rps, r.p99_latency_s * 1e3,
                   static_cast<double>(r.failed), static_cast<double>(r.ejections),
                   static_cast<double>(r.hedges), share});
  };
  auto bench_row = [&rep](const std::string& name, const core::FleetResult& r) {
    rep.benchmark(name, r.p99_latency_s * 1e3,
                  {{"goodput_img_s", r.throughput_rps}, {"failed", static_cast<double>(r.failed)}});
  };

  // --- Baseline: fault-free fleet -------------------------------------------
  const auto base = run(rep, "base", base_spec());
  add("fault-free: round-robin", base);
  bench_row("fleet/base", base);

  // --- Scenario A: node crash, health-checked ejection ----------------------
  sim::FaultPlan crash;
  crash.node_crash(0, sim::seconds(3.0), sim::seconds(13.0));

  FleetSpec a_np = base_spec();
  a_np.faults = &crash;
  const auto a_nohealth = run(rep, "A/no-health", a_np);
  add("A crash: round-robin, no health", a_nohealth);
  bench_row("fleet/crash_nohealth", a_nohealth);

  FleetSpec a_h = base_spec();
  a_h.faults = &crash;
  a_h.server.balancer.policy = BalancerPolicy::kPowerOfTwo;
  a_h.server.balancer.health.enabled = true;
  // Export the fleet instruments (per-node health score/state, ejection and
  // hedge counters) so `servescope report` renders them from the JSON output.
  const core::Session health_obs{core::Session::kRegistry};
  health_obs.attach(a_h);
  const auto a_health = run(rep, "A/health", a_h);
  health_obs.capture(rep.exporter());
  add("A crash: p2c + health checks", a_health);
  bench_row("fleet/crash_health", a_health);

  // --- Scenario B: gray failure, queue-length vs latency-weighted -----------
  sim::FaultPlan gray;
  gray.node_gray_failure(0, sim::seconds(3.0), sim::seconds(13.0), 0.12);

  FleetSpec b_jsq = base_spec();
  b_jsq.faults = &gray;
  b_jsq.server.balancer.policy = BalancerPolicy::kLeastOutstanding;
  const auto b_jsq_r = run(rep, "B/jsq", b_jsq);
  add("B gray: join-shortest-queue", b_jsq_r);
  bench_row("fleet/gray_jsq", b_jsq_r);

  FleetSpec b_lw = base_spec();
  b_lw.faults = &gray;
  b_lw.server.balancer.policy = BalancerPolicy::kLatencyWeighted;
  const auto b_lw_r = run(rep, "B/latency-weighted", b_lw);
  add("B gray: latency-weighted", b_lw_r);
  bench_row("fleet/gray_lw", b_lw_r);

  // --- Scenario C: partition, hedged requests -------------------------------
  sim::FaultPlan partition;
  partition.node_partition(0, sim::seconds(3.0), sim::seconds(8.0), 0.4);

  FleetSpec c_np = base_spec();
  c_np.faults = &partition;
  const auto c_nohedge = run(rep, "C/no-hedge", c_np);
  add("C partition: no hedging", c_nohedge);
  bench_row("fleet/partition_nohedge", c_nohedge);

  FleetSpec c_h = base_spec();
  c_h.faults = &partition;
  c_h.server.balancer.hedge.enabled = true;
  c_h.server.balancer.hedge.deadline = sim::milliseconds(30);
  // Every success refills a full token: the budget never binds here (the
  // budget-32 run below shows the cap); what's measured is the hedge itself.
  c_h.server.balancer.hedge.budget_refill_per_success = 1.0;
  const auto c_hedge = run(rep, "C/hedge", c_h);
  add("C partition: hedge @30ms", c_hedge);
  bench_row("fleet/partition_hedge", c_hedge);

  FleetSpec c_b = c_h;
  c_b.server.balancer.hedge.budget = 32.0;
  c_b.server.balancer.hedge.budget_refill_per_success = 0.0;
  const auto c_budget = run(rep, "C/hedge-budget", c_b);
  add("C partition: hedge, budget 32", c_budget);

  // --- Scenario D: determinism ----------------------------------------------
  FleetSpec d_spec = a_h;
  d_spec.registry = nullptr;  // instruments don't influence the run's digest
  const auto a_repeat = run(rep, "D/health-repeat", d_spec);
  add("D repeat of A health run", a_repeat);

  rep.table("table", table);

  std::uint64_t gray_total = 0;
  for (auto d : b_jsq_r.node_dispatches) gray_total += d;
  const double jsq_share =
      static_cast<double>(b_jsq_r.node_dispatches[0]) / static_cast<double>(gray_total);

  std::vector<bench::ShapeCheck> checks;
  checks.push_back({"A: without health checks a crashed node keeps eating its traffic share",
                    a_nohealth.throughput_rps < 0.85 * base.throughput_rps &&
                        a_nohealth.crash_failed > 1000,
                    std::to_string(a_nohealth.throughput_rps) + " vs " +
                        std::to_string(base.throughput_rps) + " img/s, " +
                        std::to_string(a_nohealth.crash_failed) + " crash-failed"});
  checks.push_back({"A: health-checked p2c ejects the node and holds goodput near fault-free",
                    a_health.throughput_rps > 0.90 * base.throughput_rps &&
                        a_health.ejections >= 1 && a_health.rejoins >= 1,
                    std::to_string(a_health.throughput_rps) + " vs " +
                        std::to_string(base.throughput_rps) + " img/s, " +
                        std::to_string(a_health.ejections) + " ejection(s), " +
                        std::to_string(a_health.rejoins) + " rejoin(s)"});
  checks.push_back({"B: join-shortest-queue floods the gray node (short queue = fast failure)",
                    jsq_share > 0.375 &&
                        b_jsq_r.throughput_rps < 0.7 * base.throughput_rps,
                    "node0 dispatch share " + std::to_string(jsq_share) + " (fair 0.25), " +
                        std::to_string(b_jsq_r.throughput_rps) + " img/s"});
  checks.push_back({"B: latency-weighted routing penalizes failures and routes around gray",
                    b_lw_r.throughput_rps > 0.85 * base.throughput_rps &&
                        b_lw_r.throughput_rps > 1.5 * b_jsq_r.throughput_rps,
                    std::to_string(b_lw_r.throughput_rps) + " vs jsq " +
                        std::to_string(b_jsq_r.throughput_rps) + " img/s"});
  checks.push_back({"C: hedged requests cut the partition tail by >3x",
                    c_hedge.p99_latency_s < 0.3 * c_nohedge.p99_latency_s &&
                        c_hedge.hedge_wins > 100,
                    std::to_string(c_nohedge.p99_latency_s * 1e3) + " -> " +
                        std::to_string(c_hedge.p99_latency_s * 1e3) + " ms p99, " +
                        std::to_string(c_hedge.hedge_wins) + " hedge wins"});
  checks.push_back({"C: the hedge-token budget is a hard cap",
                    c_budget.hedges == 32 && c_budget.hedges_denied > 0,
                    std::to_string(c_budget.hedges) + " hedges (budget 32), " +
                        std::to_string(c_budget.hedges_denied) + " denied"});
  checks.push_back({"D: the same fault schedule reproduces a byte-identical digest",
                    a_health.digest() == a_repeat.digest(), a_health.digest()});
  checks.push_back({"every logical request reaches one terminal state (audited, all scenarios)",
                    rep.violations() == 0, std::to_string(rep.violations()) + " violation(s)"});
  rep.checks(std::move(checks));
  return rep.finish();
}
