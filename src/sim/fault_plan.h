// Deterministic fault-injection schedule for the simulated serving stack.
//
// A FaultPlan is a set of time windows, each describing one fault class
// acting on one target (a GPU index, a broker instance, or every instance of
// a device class). Components consult the plan at decision points:
//
//   - hw::GpuModel / hw::Platform scale PCIe transfer times by the active
//     kPcieDegradation multiplier;
//   - hw::CpuModel scales preprocessing-worker service times by the active
//     kPreprocSlowdown multiplier;
//   - serving::InferenceServer fails or holds batches dispatched inside a
//     kGpuFailure window and reroutes around failed GPUs;
//   - the experiment runner shrinks/restores GPU staging budgets at
//     kGpuMemoryShrink window edges (forced eviction storms);
//   - broker::SimBroker fails publishes and stalls deliveries inside a
//     kBrokerOutage window;
//   - the fleet balancer (core/fleet.*) consults kNodeCrash,
//     kNodeGrayFailure, and kNodePartition windows (target = node index)
//     when dispatching, probing, and awaiting responses from fleet nodes;
//   - per-request payload corruption is a seeded Bernoulli draw keyed by the
//     request id, so the same (seed, probability) corrupts the same requests
//     on every run regardless of scheduling.
//
// The plan is immutable during a run and everything it decides is a pure
// function of (plan, virtual time, request id) — simulations with faults are
// exactly as reproducible as healthy ones.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "sim/simulator.h"
#include "sim/time.h"

namespace serve::sim {

enum class FaultKind : std::uint8_t {
  kGpuFailure,       ///< GPU instance down: batches fail or wait for recovery
  kPreprocSlowdown,  ///< CPU preprocessing workers run `magnitude` times slower
  kPcieDegradation,  ///< PCIe transfers take `magnitude` times longer
  kGpuMemoryShrink,  ///< staging budget scaled to `magnitude` (fraction kept)
  kBrokerOutage,     ///< broker publishes fail, deliveries stall
  // Node-scoped fleet faults (target = node index, consulted by the balancer):
  kNodeCrash,        ///< node refuses dispatches, responses in flight are lost
  kNodeGrayFailure,  ///< node stays "up" but only serves `magnitude` of requests
  kNodePartition,    ///< balancer<->node link delays traffic by `magnitude` s
  kCount
};

[[nodiscard]] constexpr std::string_view fault_kind_name(FaultKind k) noexcept {
  switch (k) {
    case FaultKind::kGpuFailure: return "gpu-failure";
    case FaultKind::kPreprocSlowdown: return "preproc-slowdown";
    case FaultKind::kPcieDegradation: return "pcie-degradation";
    case FaultKind::kGpuMemoryShrink: return "gpu-memory-shrink";
    case FaultKind::kBrokerOutage: return "broker-outage";
    case FaultKind::kNodeCrash: return "node-crash";
    case FaultKind::kNodeGrayFailure: return "node-gray-failure";
    case FaultKind::kNodePartition: return "node-partition";
    case FaultKind::kCount: break;
  }
  return "?";
}

/// One fault episode: `kind` acts on `target` during [begin, end).
struct FaultWindow {
  FaultKind kind = FaultKind::kGpuFailure;
  int target = kAllTargets;  ///< device/broker index, or every instance
  Time begin = 0;
  Time end = 0;
  double magnitude = 1.0;  ///< slowdown multiplier or budget fraction

  static constexpr int kAllTargets = -1;

  [[nodiscard]] bool covers(int t, Time now) const noexcept {
    return (target == kAllTargets || t == target || t == kAllTargets) && now >= begin &&
           now < end;
  }
};

class FaultPlan {
 public:
  FaultPlan() = default;

  // --- schedule construction -------------------------------------------------

  void add(FaultWindow w) {
    if (w.end <= w.begin) throw std::invalid_argument("FaultPlan: window end must follow begin");
    if (w.magnitude <= 0.0) throw std::invalid_argument("FaultPlan: magnitude must be positive");
    windows_.push_back(w);
  }

  void gpu_failure(int gpu, Time begin, Time end) {
    add({FaultKind::kGpuFailure, gpu, begin, end, 1.0});
  }
  void preproc_slowdown(Time begin, Time end, double factor) {
    if (factor < 1.0) throw std::invalid_argument("FaultPlan: slowdown factor must be >= 1");
    add({FaultKind::kPreprocSlowdown, FaultWindow::kAllTargets, begin, end, factor});
  }
  void pcie_degradation(Time begin, Time end, double factor) {
    if (factor < 1.0) throw std::invalid_argument("FaultPlan: slowdown factor must be >= 1");
    add({FaultKind::kPcieDegradation, FaultWindow::kAllTargets, begin, end, factor});
  }
  void gpu_memory_shrink(int gpu, Time begin, Time end, double keep_fraction) {
    if (keep_fraction <= 0.0 || keep_fraction > 1.0) {
      throw std::invalid_argument("FaultPlan: keep fraction must be in (0, 1]");
    }
    add({FaultKind::kGpuMemoryShrink, gpu, begin, end, keep_fraction});
  }
  void broker_outage(Time begin, Time end) {
    add({FaultKind::kBrokerOutage, FaultWindow::kAllTargets, begin, end, 1.0});
  }
  void node_crash(int node, Time begin, Time end) {
    add({FaultKind::kNodeCrash, node, begin, end, 1.0});
  }
  /// The node keeps answering health probes but only serves `serve_fraction`
  /// of its dispatches; the rest fast-fail at the node frontend. The fast
  /// failures keep its queue short — the configuration that fools
  /// join-the-shortest-queue into sending it *more* traffic.
  void node_gray_failure(int node, Time begin, Time end, double serve_fraction) {
    if (serve_fraction <= 0.0 || serve_fraction > 1.0) {
      throw std::invalid_argument("FaultPlan: serve fraction must be in (0, 1]");
    }
    add({FaultKind::kNodeGrayFailure, node, begin, end, serve_fraction});
  }
  /// Every dispatch and response crossing the balancer<->node link during
  /// the window is delayed by `delay_s` seconds (each direction).
  void node_partition(int node, Time begin, Time end, double delay_s) {
    if (delay_s <= 0.0) throw std::invalid_argument("FaultPlan: partition delay must be > 0");
    add({FaultKind::kNodePartition, node, begin, end, delay_s});
  }

  /// Corrupts each request's payload with probability `p`, decided by a
  /// seeded hash of the request id (scheduling-independent).
  void set_payload_corruption(double p, std::uint64_t seed) {
    if (p < 0.0 || p > 1.0) throw std::invalid_argument("FaultPlan: probability in [0, 1]");
    corruption_p_ = p;
    corruption_seed_ = seed;
  }

  // --- queries ---------------------------------------------------------------

  [[nodiscard]] bool active(FaultKind k, int target, Time now) const noexcept {
    for (const FaultWindow& w : windows_) {
      if (w.kind == k && w.covers(target, now)) return true;
    }
    return false;
  }

  /// Product of the magnitudes of every active window of `k` on `target`
  /// (1.0 when none is active) — the service-time multiplier hw models apply.
  [[nodiscard]] double multiplier(FaultKind k, int target, Time now) const noexcept {
    double m = 1.0;
    for (const FaultWindow& w : windows_) {
      if (w.kind == k && w.covers(target, now)) m *= w.magnitude;
    }
    return m;
  }

  /// Latest end among the currently active windows of `k` on `target`
  /// (`now` when none is active) — when a holder should re-check.
  [[nodiscard]] Time active_until(FaultKind k, int target, Time now) const noexcept {
    Time until = now;
    for (const FaultWindow& w : windows_) {
      if (w.kind == k && w.covers(target, now) && w.end > until) until = w.end;
    }
    return until;
  }

  /// Earliest begin strictly after `from` among windows of `k` on `target`
  /// (kNever when none remains) — how long an in-flight response to a node
  /// can safely be awaited before a crash would swallow it.
  [[nodiscard]] Time next_begin(FaultKind k, int target, Time from) const noexcept {
    Time next = kNever;
    for (const FaultWindow& w : windows_) {
      if (w.kind == k && (w.target == FaultWindow::kAllTargets || w.target == target) &&
          w.begin > from && w.begin < next) {
        next = w.begin;
      }
    }
    return next;
  }
  static constexpr Time kNever = std::numeric_limits<Time>::max();

  /// One-way balancer<->node link delay in seconds (max over the active
  /// kNodePartition windows; 0.0 when the link is healthy).
  [[nodiscard]] double partition_delay_s(int node, Time now) const noexcept {
    double d = 0.0;
    for (const FaultWindow& w : windows_) {
      if (w.kind == FaultKind::kNodePartition && w.covers(node, now) && w.magnitude > d) {
        d = w.magnitude;
      }
    }
    return d;
  }

  /// Deterministic per-request verdict inside a gray-failure window: does
  /// `node` actually serve this dispatch? True (serve) with probability
  /// `magnitude`, keyed by (request id, node) so the same requests fail on
  /// every run regardless of scheduling. True when no window is active.
  [[nodiscard]] bool gray_serves(int node, std::uint64_t request_id, Time now) const noexcept {
    double serve_fraction = 1.0;
    for (const FaultWindow& w : windows_) {
      if (w.kind == FaultKind::kNodeGrayFailure && w.covers(node, now) &&
          w.magnitude < serve_fraction) {
        serve_fraction = w.magnitude;
      }
    }
    if (serve_fraction >= 1.0) return true;
    const std::uint64_t z =
        splitmix(request_id * 0x9e3779b97f4a7c15ULL ^ (static_cast<std::uint64_t>(node) + 1));
    const double u = static_cast<double>(z >> 11) * 0x1.0p-53;
    return u < serve_fraction;
  }

  /// Deterministic per-request corruption verdict.
  [[nodiscard]] bool corrupts_payload(std::uint64_t request_id) const noexcept {
    if (corruption_p_ <= 0.0) return false;
    const double u =
        static_cast<double>(splitmix(corruption_seed_ ^ request_id) >> 11) * 0x1.0p-53;
    return u < corruption_p_;
  }

  /// Seed for the per-request byte-mutation stream (independent of the
  /// corruption verdict draw).
  [[nodiscard]] std::uint64_t corruption_stream(std::uint64_t request_id) const noexcept {
    return splitmix(splitmix(corruption_seed_ ^ request_id) + 0x632be59bd9b4e019ULL);
  }

  [[nodiscard]] const std::vector<FaultWindow>& windows() const noexcept { return windows_; }
  [[nodiscard]] bool empty() const noexcept {
    return windows_.empty() && corruption_p_ <= 0.0;
  }

  /// Schedules `cb(window, is_begin)` at every window edge (used to apply
  /// state-changing faults such as staging-budget shrinks). Edges in the past
  /// fire immediately at the current virtual time.
  void schedule_transitions(Simulator& sim,
                            std::function<void(const FaultWindow&, bool)> cb) const {
    for (const FaultWindow& w : windows_) {
      const Time begin = w.begin < sim.now() ? sim.now() : w.begin;
      const Time end = w.end < sim.now() ? sim.now() : w.end;
      sim.schedule_at(begin, [cb, w] { cb(w, true); });
      sim.schedule_at(end, [cb, w] { cb(w, false); });
    }
  }

 private:
  [[nodiscard]] static std::uint64_t splitmix(std::uint64_t z) noexcept {
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  std::vector<FaultWindow> windows_;
  double corruption_p_ = 0.0;
  std::uint64_t corruption_seed_ = 0;
};

}  // namespace serve::sim
