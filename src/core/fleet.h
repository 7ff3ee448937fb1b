// Multi-node fleet with a health-checked load balancer (the paper's Fig. 1
// system, plus the failure domains the paper's scaling story assumes away).
//
// "A load balancer within the datacenter receives incoming requests and
// strategically distributes them among the available processing servers."
// This module stands up N serving nodes (each its own CPU+GPU platform) in
// one simulation and dispatches a shared client population across them —
// closed-loop or open-loop Poisson — under a selectable balancing policy,
// including heterogeneous fleets where nodes have different GPU counts.
//
// Beyond dispatch, the balancer is a failure-domain boundary:
//
//   - node-scoped FaultPlan windows (kNodeCrash / kNodeGrayFailure /
//     kNodePartition) act on the balancer<->node edge, not inside the node;
//   - periodic health probes per node feed an EWMA health score together
//     with balancer-observed request outcomes; unhealthy nodes are ejected,
//     trialled half-open, and rejoined by a serving::HealthGate per node,
//     the same state machine that runs each server's ingest breaker;
//   - power-of-two-choices and latency-weighted policies route over the
//     currently routable nodes only;
//   - request hedging re-dispatches slow requests to a second node under a
//     gRPC-style token budget; the loser is cancelled and drop-accounted on
//     its node, so per-node auditors still conserve every request.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "workload/arrivals.h"

namespace serve::core {

// The policy enum and balancer knobs live in serving/config.h (so config
// files round-trip them); re-export the names callers have always used.
using serving::BalancerPolicy;
using serving::balancer_policy_name;

/// A fleet run. The trace also gets probe, health and hedge markers, causal
/// traces cross nodes, and the registry gets the fleet-level instruments, so
/// the recorder (and an obs::AlertEngine on it) follows each node's health
/// and queue as it follows a single server.
struct FleetSpec : Observers {
  serving::ServerConfig server{};       ///< endpoint deployed on every node
  std::vector<int> gpus_per_node{1, 1}; ///< one entry per node (heterogeneous ok)
  hw::Calibration calib = hw::default_calibration();
  int concurrency = 512;                ///< fleet-wide closed-loop clients
  /// Open-loop offered load: when > 0, requests arrive on `arrivals` at this
  /// rate and `concurrency` is ignored — fault windows are then measured
  /// under constant offered load instead of a self-throttling client.
  double rate_rps = 0.0;
  workload::ArrivalKind arrivals = workload::ArrivalKind::kPoisson;
  hw::ImageSpec image = hw::kMediumImage;
  sim::Time warmup = sim::seconds(2.0);
  sim::Time measure = sim::seconds(10.0);
  std::uint64_t seed = 5;

  /// Optional fault schedule (must outlive the run). Node-scoped kinds act
  /// at the balancer; device kinds pass through to every node's platform.
  const sim::FaultPlan* faults = nullptr;
  /// Arm every node's RequestAuditor and aggregate violations (overrides
  /// server.audit).
  bool audit = false;
};

/// Run-wide logical accounting (warmup + window + drain): every logical
/// request reaches exactly one terminal state. The balancer owns the one
/// copy; FleetResult inherits it.
struct FleetCounts {
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t crash_failed = 0;   ///< refused/lost on a crashed node
  std::uint64_t gray_failed = 0;    ///< fast-failed by a gray node frontend

  // Hedging (run-wide).
  std::uint64_t hedges = 0;         ///< secondary dispatches issued
  std::uint64_t hedge_wins = 0;     ///< logical requests decided by the hedge
  std::uint64_t hedge_losses = 0;   ///< hedged but the primary answered first
  std::uint64_t hedges_denied = 0;  ///< hedge wanted, token budget empty
  std::uint64_t cancelled = 0;      ///< losers drop-accounted on their node

  // Health checking (run-wide).
  std::uint64_t probes = 0;
  std::uint64_t probe_failures = 0;

  /// Every logical request issued reached exactly one terminal state.
  [[nodiscard]] bool conserved() const noexcept { return issued == completed + failed; }
};

/// A fleet run's outcome: the balancer's run-wide counts, the nodes' audit
/// verdict, and the measurement-window performance.
struct FleetResult : FleetCounts, AuditVerdict {
  // Window-scoped performance (the measurement window only).
  double throughput_rps = 0.0;  ///< logical goodput: first-wins successes / s
  double mean_latency_s = 0.0;
  double p99_latency_s = 0.0;
  std::vector<double> node_throughput_rps;       ///< node-side completions / s
  std::vector<std::uint64_t> node_dispatches;    ///< balancer sends per node

  // Health-gate transitions summed over the nodes (run-wide).
  std::uint64_t ejections = 0;
  std::uint64_t rejoins = 0;

  /// Nodes that completed nothing during the measurement window.
  [[nodiscard]] int dead_nodes() const noexcept {
    int n = 0;
    for (double t : node_throughput_rps) n += t <= 0.0 ? 1 : 0;
    return n;
  }

  /// max/min per-node throughput — 1.0 is perfectly balanced. A fleet with a
  /// dead node reports +inf (it used to report 0.0, the "perfectly
  /// balanced" sentinel — the worst possible answer for a dead node).
  [[nodiscard]] double imbalance() const noexcept {
    if (node_throughput_rps.empty()) return 0.0;
    double lo = 1e300, hi = 0.0;
    for (double t : node_throughput_rps) {
      lo = std::min(lo, t);
      hi = std::max(hi, t);
    }
    return lo <= 0.0 ? std::numeric_limits<double>::infinity() : hi / lo;
  }

  /// Deterministic run fingerprint: same seed + same spec must reproduce it
  /// byte-identically.
  [[nodiscard]] std::string digest() const;
};

[[nodiscard]] FleetResult run_fleet(const FleetSpec& spec);

}  // namespace serve::core
