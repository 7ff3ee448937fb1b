// Tests for the fleet failure-domain layer: node-scoped faults,
// health-checked balancing (the gate itself is in health_gate_test.cpp),
// request hedging, and conservation/determinism of the whole assembly.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "core/fleet.h"
#include "metrics/export.h"
#include "models/model_zoo.h"

namespace serve::core {
namespace {

FleetSpec small_fleet() {
  FleetSpec spec;
  spec.server.model = models::vit_base();
  spec.server.preproc = serving::PreprocDevice::kGpu;
  spec.gpus_per_node = {1, 1};
  spec.concurrency = 64;
  spec.warmup = sim::seconds(0.5);
  spec.measure = sim::seconds(2.5);
  spec.audit = true;
  return spec;
}

// ---------------------------------------------------------------------------
// FleetResult accounting helpers.

TEST(FleetResult, ImbalanceReportsInfinityForDeadNode) {
  FleetResult r;
  r.node_throughput_rps = {1000.0, 0.0};
  // Regression: this used to return 0.0 — the "perfectly balanced" sentinel —
  // for a fleet with a dead node.
  EXPECT_TRUE(std::isinf(r.imbalance()));
  EXPECT_EQ(r.dead_nodes(), 1);
}

TEST(FleetResult, ImbalanceRatioAndEmptyFleet) {
  FleetResult r;
  r.node_throughput_rps = {1000.0, 500.0};
  EXPECT_DOUBLE_EQ(r.imbalance(), 2.0);
  EXPECT_EQ(r.dead_nodes(), 0);
  FleetResult empty;
  EXPECT_DOUBLE_EQ(empty.imbalance(), 0.0);
}

TEST(FleetResult, ConservedChecksTerminalStates) {
  FleetResult r;
  r.issued = 10;
  r.completed = 7;
  r.failed = 3;
  EXPECT_TRUE(r.conserved());
  r.failed = 2;
  EXPECT_FALSE(r.conserved());
}

// ---------------------------------------------------------------------------
// Conservation under every node-scoped fault kind (auditors armed).

TEST(FleetFaults, ConservesRequestsThroughNodeCrash) {
  auto spec = small_fleet();
  sim::FaultPlan faults;
  faults.node_crash(1, sim::seconds(1.0), sim::seconds(2.0));
  spec.faults = &faults;
  const auto r = run_fleet(spec);
  EXPECT_TRUE(r.conserved()) << r.issued << " != " << r.completed << " + " << r.failed;
  EXPECT_EQ(r.audit_violations, 0u);
  EXPECT_GT(r.crash_failed, 0u);   // round-robin keeps dispatching into the crash
  EXPECT_GT(r.completed, 0u);      // the healthy node keeps serving
}

TEST(FleetFaults, ConservesRequestsThroughGrayFailure) {
  auto spec = small_fleet();
  sim::FaultPlan faults;
  faults.node_gray_failure(1, sim::seconds(1.0), sim::seconds(2.0), 0.2);
  spec.faults = &faults;
  const auto r = run_fleet(spec);
  EXPECT_TRUE(r.conserved());
  EXPECT_EQ(r.audit_violations, 0u);
  EXPECT_GT(r.gray_failed, 0u);    // ~80% of the gray node's window traffic
  EXPECT_GT(r.completed, 0u);
}

TEST(FleetFaults, ConservesRequestsThroughPartition) {
  auto spec = small_fleet();
  sim::FaultPlan faults;
  faults.node_partition(1, sim::seconds(1.0), sim::seconds(2.0), 0.25);
  spec.faults = &faults;
  const auto r = run_fleet(spec);
  EXPECT_TRUE(r.conserved());
  EXPECT_EQ(r.audit_violations, 0u);
  // A partition delays but does not destroy: tail latency absorbs the link.
  EXPECT_GT(r.p99_latency_s, 0.25);
}

TEST(FleetFaults, HealthChecksEjectAndRejoinAroundCrash) {
  auto spec = small_fleet();
  spec.measure = sim::seconds(3.5);
  spec.server.balancer.policy = BalancerPolicy::kPowerOfTwo;
  spec.server.balancer.health.enabled = true;
  sim::FaultPlan faults;
  faults.node_crash(1, sim::seconds(1.0), sim::seconds(2.5));
  spec.faults = &faults;
  const auto r = run_fleet(spec);
  EXPECT_TRUE(r.conserved());
  EXPECT_EQ(r.audit_violations, 0u);
  EXPECT_GT(r.probes, 0u);
  EXPECT_GT(r.probe_failures, 0u);
  EXPECT_GE(r.ejections, 1u);  // probes catch the crash
  EXPECT_GE(r.rejoins, 1u);    // ... and readmit the node after it returns
}

// ---------------------------------------------------------------------------
// Hedging.

TEST(FleetHedge, BudgetBoundsHedgesAndDeniesWhenExhausted) {
  auto spec = small_fleet();
  spec.concurrency = 32;
  // One-way 200 ms partition on node 1 makes every round-robin dispatch to it
  // blow the 20 ms hedge deadline.
  sim::FaultPlan faults;
  faults.node_partition(1, sim::seconds(0.5), sim::seconds(3.0), 0.2);
  spec.faults = &faults;
  spec.server.balancer.hedge.enabled = true;
  spec.server.balancer.hedge.deadline = sim::milliseconds(20);
  spec.server.balancer.hedge.budget = 8.0;
  spec.server.balancer.hedge.budget_refill_per_success = 0.0;  // no refill: hard cap
  const auto r = run_fleet(spec);
  EXPECT_TRUE(r.conserved());
  EXPECT_EQ(r.audit_violations, 0u);
  EXPECT_EQ(r.hedges, 8u);         // exactly the budget, never more
  EXPECT_GT(r.hedges_denied, 0u);  // demand kept coming after exhaustion
  EXPECT_GT(r.hedge_wins, 0u);     // the second node answered first
  EXPECT_EQ(r.hedges, r.hedge_wins + r.hedge_losses);
}

TEST(FleetHedge, RefillSustainsHedgingAndCancelsLosers) {
  auto spec = small_fleet();
  spec.concurrency = 32;
  sim::FaultPlan faults;
  faults.node_partition(1, sim::seconds(0.5), sim::seconds(3.0), 0.2);
  spec.faults = &faults;
  spec.server.balancer.hedge.enabled = true;
  spec.server.balancer.hedge.deadline = sim::milliseconds(20);
  spec.server.balancer.hedge.budget = 64.0;
  spec.server.balancer.hedge.budget_refill_per_success = 1.0;
  const auto r = run_fleet(spec);
  EXPECT_TRUE(r.conserved());
  EXPECT_EQ(r.audit_violations, 0u);
  EXPECT_GT(r.hedges, 8u);
  // Every hedge loser is cancelled and drop-accounted, not leaked.
  EXPECT_GT(r.cancelled, 0u);
}

// ---------------------------------------------------------------------------
// Open-loop arrivals.

TEST(FleetOpenLoop, TracksOfferedRateBelowSaturation) {
  auto spec = small_fleet();
  spec.rate_rps = 800.0;  // well under the ~3600/s two-node capacity
  spec.measure = sim::seconds(4.0);
  const auto r = run_fleet(spec);
  EXPECT_TRUE(r.conserved());
  EXPECT_NEAR(r.throughput_rps, 800.0, 80.0);
}

TEST(FleetOpenLoop, DeterministicArrivalsAreExact) {
  auto spec = small_fleet();
  spec.rate_rps = 500.0;
  spec.arrivals = workload::ArrivalKind::kDeterministic;
  spec.measure = sim::seconds(4.0);
  const auto r = run_fleet(spec);
  EXPECT_NEAR(r.throughput_rps, 500.0, 5.0);
}

// ---------------------------------------------------------------------------
// Determinism: same seed, same spec -> byte-identical digest and telemetry.

FleetSpec digest_spec(metrics::Registry* reg) {
  auto spec = small_fleet();
  spec.server.balancer.policy = BalancerPolicy::kLatencyWeighted;
  spec.server.balancer.health.enabled = true;
  spec.server.balancer.hedge.enabled = true;
  spec.server.balancer.hedge.deadline = sim::milliseconds(30);
  spec.registry = reg;
  return spec;
}

TEST(FleetDeterminism, SameSeedSameDigestAndTelemetry) {
  sim::FaultPlan faults;
  faults.node_crash(1, sim::seconds(1.0), sim::seconds(2.0));
  faults.node_gray_failure(0, sim::seconds(2.2), sim::seconds(2.8), 0.5);

  metrics::Registry reg_a;
  auto spec_a = digest_spec(&reg_a);
  spec_a.faults = &faults;
  const auto a = run_fleet(spec_a);

  metrics::Registry reg_b;
  auto spec_b = digest_spec(&reg_b);
  spec_b.faults = &faults;
  const auto b = run_fleet(spec_b);

  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_FALSE(a.digest().empty());

  std::ostringstream ja, jb;
  metrics::TelemetryExport ea, eb;
  ea.capture_instruments(reg_a);
  ea.write_json(ja);
  eb.capture_instruments(reg_b);
  eb.write_json(jb);
  EXPECT_EQ(ja.str(), jb.str());
  EXPECT_NE(ja.str().find("fleet_node_health_score"), std::string::npos);
  EXPECT_NE(ja.str().find("fleet_hedges_total"), std::string::npos);
}

}  // namespace
}  // namespace serve::core
