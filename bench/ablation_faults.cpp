// Ablation: deterministic fault injection vs the resilience policies.
//
// Three scenarios drive the tuned ViT server through seeded fault schedules
// (sim::FaultPlan) and compare a no-policy baseline against the matching
// resilience policy:
//
//   A. GPU-failure window on one of two GPUs. Without a policy every request
//      routed to the failed GPU fails; with client retry + graceful
//      degradation traffic reroutes to the healthy GPU and goodput stays
//      within 30% of the fault-free baseline.
//   B. Result-broker outage with result publication on. The no-policy server
//      blindly re-polls, so completions pile up for the whole outage and p99
//      explodes; the circuit breaker fast-fails new arrivals once the backlog
//      trips the depth threshold, bounding p99; broker publish retry +
//      fused failover sidesteps the outage entirely.
//   C. Chaos soak: preprocessing slowdown, PCIe degradation, a staging-memory
//      shrink (eviction storm), a short GPU-failure blip, and seeded payload
//      corruption all at once, with every policy armed. The run must conserve
//      requests, fail only the corrupted payloads, and be bit-identical when
//      repeated.
//
// Every run executes with the lifecycle auditor on: request conservation
// (submitted == completed + dropped + failed) is checked in *every* scenario.
#include <stdexcept>

#include "bench_util.h"
#include "core/experiment.h"
#include "models/model_zoo.h"
#include "workload/arrivals.h"

using namespace serve;
using core::ExperimentSpec;

namespace {

struct Row {
  core::ExperimentResult r;
  double goodput() const { return r.throughput_rps; }
  double p99_ms() const { return r.p99_latency_s * 1e3; }
};

Row run(bench::Reporter& rep, const std::string& label, ExperimentSpec spec, double rate) {
  spec.server.audit = true;  // conservation is checked in every scenario
  rep.observe(spec.server, spec);
  Row row{core::run_open_loop(spec, workload::poisson_arrivals(rate))};
  rep.audit(row.r, label);
  return row;
}

ExperimentSpec base_spec(int gpus, sim::Time measure) {
  ExperimentSpec spec;
  spec.server.model = models::vit_base();
  spec.server.preproc = serving::PreprocDevice::kGpu;
  spec.gpu_count = gpus;
  spec.warmup = sim::seconds(2.0);
  spec.measure = measure;
  spec.seed = 17;
  return spec;
}

void arm_retry(serving::ServerConfig& cfg) {
  cfg.retry.enabled = true;
  cfg.retry.max_attempts = 4;
  cfg.retry.timeout = sim::milliseconds(500);
  cfg.retry.backoff_base = sim::milliseconds(5);
  cfg.retry.backoff_cap = sim::milliseconds(100);
}

}  // namespace

int main(int argc, char** argv) {
  bench::Reporter rep("Ablation", "Fault injection vs resilience policies (ViT, audited)");
  if (!rep.parse_cli(argc, argv, true)) return 2;

  metrics::Table table({"scenario", "goodput_img_s", "p99_ms", "failed", "rejected", "degraded",
                        "retries", "failovers", "evictions"});
  auto add = [&table](const std::string& name, const Row& row) {
    table.add_row({name, row.goodput(), row.p99_ms(), static_cast<double>(row.r.failed),
                   static_cast<double>(row.r.rejected), static_cast<double>(row.r.degraded),
                   static_cast<double>(row.r.client_retries),
                   static_cast<double>(row.r.broker_failovers),
                   static_cast<double>(row.r.gpu_evictions)});
  };

  // --- Scenario A: GPU-failure window, retry + degradation ------------------
  const double rate_a = 1500.0;  // ~41% of 2-GPU capacity: one GPU can absorb it
  sim::FaultPlan gpu_fault;
  gpu_fault.gpu_failure(0, sim::seconds(3.0), sim::seconds(14.0));

  const Row a_base = run(rep, "A/no-fault", base_spec(2, sim::seconds(12.0)), rate_a);
  add("A gpu-fail: no fault", a_base);

  ExperimentSpec a_np = base_spec(2, sim::seconds(12.0));
  a_np.faults = &gpu_fault;
  const Row a_nopol = run(rep, "A/no-policy", a_np, rate_a);
  add("A gpu-fail: no policy", a_nopol);

  ExperimentSpec a_pol = base_spec(2, sim::seconds(12.0));
  a_pol.faults = &gpu_fault;
  arm_retry(a_pol.server);
  a_pol.server.degrade.enabled = true;
  a_pol.server.degrade.hysteresis = sim::milliseconds(200);
  const Row a_resil = run(rep, "A/retry+degrade", a_pol, rate_a);
  add("A gpu-fail: retry+degrade", a_resil);

  // --- Scenario B: broker outage, circuit breaker / publish failover --------
  const double rate_b = 1500.0;
  sim::FaultPlan outage;
  outage.broker_outage(sim::seconds(8.0), sim::seconds(11.0));

  ExperimentSpec b_np = base_spec(2, sim::seconds(16.0));
  b_np.faults = &outage;
  b_np.server.broker_publish.publish_results = true;
  b_np.server.broker_publish.poll_interval = sim::milliseconds(10);
  const Row b_nopol = run(rep, "B/no-policy", b_np, rate_b);
  add("B broker-out: no policy", b_nopol);

  ExperimentSpec b_cb = b_np;
  b_cb.server.breaker.enabled = true;
  b_cb.server.breaker.queue_depth_open = 128;
  b_cb.server.breaker.error_rate_open = 1.0;  // depth-triggered only
  b_cb.server.breaker.open_duration = sim::seconds(1.0);
  b_cb.server.breaker.half_open_probes = 4;
  const Row b_breaker = run(rep, "B/breaker", b_cb, rate_b);
  add("B broker-out: breaker", b_breaker);

  ExperimentSpec b_fo = b_np;
  b_fo.server.broker_publish.retry_enabled = true;
  b_fo.server.broker_publish.max_attempts = 3;
  b_fo.server.broker_publish.backoff_base = sim::milliseconds(2);
  const Row b_failover = run(rep, "B/failover", b_fo, rate_b);
  add("B broker-out: publish failover", b_failover);

  // --- Scenario C: chaos soak with every policy armed -----------------------
  const double rate_c = 800.0;
  sim::FaultPlan chaos;
  chaos.preproc_slowdown(sim::seconds(3.0), sim::seconds(6.0), 3.0);
  chaos.pcie_degradation(sim::seconds(5.0), sim::seconds(8.0), 4.0);
  chaos.gpu_memory_shrink(0, sim::seconds(4.0), sim::seconds(9.0), 0.01);
  chaos.gpu_failure(0, sim::seconds(6.0), sim::seconds(6.4));
  chaos.set_payload_corruption(0.03, 99);

  ExperimentSpec c_spec = base_spec(1, sim::seconds(10.0));
  c_spec.faults = &chaos;
  c_spec.server.validate_payloads = true;
  arm_retry(c_spec.server);
  c_spec.server.retry.timeout = sim::milliseconds(600);
  c_spec.server.degrade.enabled = true;
  const Row c_first = run(rep, "C/chaos", c_spec, rate_c);
  add("C chaos: all policies", c_first);
  const Row c_second = run(rep, "C/chaos-repeat", c_spec, rate_c);
  add("C chaos: repeat (determinism)", c_second);

  rep.table("table", table);

  std::vector<bench::ShapeCheck> checks;
  checks.push_back({"A: without a policy, a failed GPU collapses goodput",
                    a_nopol.goodput() < 0.7 * a_base.goodput() && a_nopol.r.failed > 1000,
                    std::to_string(a_nopol.goodput()) + " vs " + std::to_string(a_base.goodput()) +
                        " img/s, " + std::to_string(a_nopol.r.failed) + " failed"});
  checks.push_back({"A: retry + degradation keeps goodput within 30% of no-fault",
                    a_resil.goodput() > 0.7 * a_base.goodput(),
                    std::to_string(a_resil.goodput()) + " vs " + std::to_string(a_base.goodput()) +
                        " img/s"});
  checks.push_back({"B: blind re-polling lets the outage blow up p99 (seconds-scale)",
                    b_nopol.p99_ms() > 1000.0, std::to_string(b_nopol.p99_ms()) + " ms"});
  checks.push_back({"B: the circuit breaker bounds p99 by fast-failing the backlog",
                    b_breaker.p99_ms() < 0.25 * b_nopol.p99_ms() && b_breaker.r.breaker_opens >= 1 &&
                        b_breaker.r.rejected > 1000,
                    std::to_string(b_breaker.p99_ms()) + " ms, " +
                        std::to_string(b_breaker.r.breaker_opens) + " opens, " +
                        std::to_string(b_breaker.r.rejected) + " rejected"});
  checks.push_back({"B: publish retry + fused failover sidesteps the outage",
                    b_failover.p99_ms() < 0.25 * b_nopol.p99_ms() &&
                        b_failover.r.broker_failovers > 1000,
                    std::to_string(b_failover.p99_ms()) + " ms, " +
                        std::to_string(b_failover.r.broker_failovers) + " failovers"});
  checks.push_back({"C: chaos soak completes work and fails only corrupted payloads",
                    c_first.r.completed > 1000 && c_first.r.failed > 50 &&
                        c_first.r.failed < c_first.r.completed / 10,
                    std::to_string(c_first.r.completed) + " completed, " +
                        std::to_string(c_first.r.failed) + " failed"});
  checks.push_back({"C: the staging shrink forces an eviction storm",
                    c_first.r.gpu_evictions > 0 && a_base.r.gpu_evictions == 0,
                    std::to_string(c_first.r.gpu_evictions) + " evictions"});
  checks.push_back({"C: the same fault schedule reproduces bit-identical results",
                    c_first.r.completed == c_second.r.completed &&
                        c_first.r.failed == c_second.r.failed &&
                        c_first.r.dropped == c_second.r.dropped &&
                        c_first.r.client_retries == c_second.r.client_retries &&
                        c_first.r.p99_latency_s == c_second.r.p99_latency_s,
                    std::to_string(c_first.r.completed) + "/" + std::to_string(c_first.r.failed) +
                        " == " + std::to_string(c_second.r.completed) + "/" +
                        std::to_string(c_second.r.failed)});
  checks.push_back({"conservation holds in every scenario (auditor)", rep.violations() == 0,
                    std::to_string(rep.violations()) + " violation(s)"});
  rep.checks(std::move(checks));
  return rep.finish();
}
