#include "core/fleet.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>

#include "metrics/histogram.h"
#include "metrics/time_weighted.h"
#include "serving/health_gate.h"
#include "sim/task.h"
#include "trace/span_context.h"

namespace serve::core {

namespace {

using sim::Time;

// Balancer-side costs for fast failures: a refused connection to a crashed
// node and an error response from a gray frontend are quick, not free.
constexpr Time kConnectFailCost = 1'000'000;  // 1 ms
constexpr Time kGrayFailCost = 2'000'000;     // 2 ms

// Latency-EWMA routing signal. Failures score as kFailurePenaltyS seconds so
// a fast-failing node looks expensive rather than attractive — the trap that
// makes plain JSQ flood a gray node (its queue stays short because it sheds
// its work in milliseconds).
constexpr double kFailurePenaltyS = 0.5;
constexpr double kLatencyAlpha = 0.1;
constexpr double kLatencyPriorS = 0.02;

using serving::HealthGate;

/// One client-visible request. Physical dispatches (primary + optional
/// hedge) share this record; the first success decides it, and when every
/// attempt has failed it is decided failed.
struct Logical {
  Logical(sim::Simulator& sim, std::uint64_t id_, Time start_)
      : id(id_), start(start_), decided(sim) {}
  std::uint64_t id;
  Time start;
  int inflight = 0;           ///< attempts launched but not yet finished
  bool hedged = false;
  Time hedge_time = 0;
  bool traced = false;
  trace::SpanContext ctx{};   ///< root context; node auditors adopt it
  const char* fail_kind = ""; ///< "crash" / "gray" / "node-error"
  std::vector<serving::RequestPtr> attempts;
  sim::Event decided;
};
using LogicalPtr = std::shared_ptr<Logical>;

struct FleetBalancer {
  struct Node {
    Node(sim::Simulator& sim, const FleetSpec& spec, int gpus)
        : platform(std::make_unique<hw::Platform>(
              sim, hw::Platform::Config{spec.calib, gpus, spec.faults})),
          server(std::make_unique<serving::InferenceServer>(*platform, node_config(spec))),
          health(gate(spec.server.balancer.health)) {}
    std::unique_ptr<hw::Platform> platform;
    std::unique_ptr<serving::InferenceServer> server;
    HealthGate health;
    HealthGate::State last_state = HealthGate::State::kClosed;
    std::uint64_t outstanding = 0;  ///< balancer-visible in-flight dispatches
    /// Time-weighted outstanding integral (alias-free per-node queue depth
    /// for the capacity plane; point samples miss fast-failing bursts).
    metrics::TimeIntegrator outstanding_integral;
    double latency_ewma_s = kLatencyPriorS;
    std::uint64_t dispatches_total = 0;
    std::uint64_t dispatches_window = 0;
    /// Requests currently on the wire to this node (for crash cancellation).
    std::vector<serving::RequestPtr> wire;
  };

  static HealthGate::Options gate(const serving::HealthCheckPolicy& h) {
    return {.enabled = h.enabled, .alpha = h.ewma_alpha, .trip_score = h.eject_score,
            .probe_failures = h.eject_probe_failures, .hold = h.eject_duration,
            .trial_slots = std::max(1, h.rejoin_probes)};
  }

  static serving::ServerConfig node_config(const FleetSpec& spec) {
    serving::ServerConfig cfg = spec.server;
    if (spec.audit) cfg.audit = true;
    return cfg;
  }

  FleetBalancer(sim::Simulator& sim_, const FleetSpec& spec_)
      : sim(sim_),
        spec(spec_),
        cfg(spec_.server.balancer),
        rng(spec_.seed),
        sampler(spec_.server.trace_sampler),
        hedge_tokens(spec_.server.balancer.hedge.budget) {
    for (int gpus : spec.gpus_per_node) {
      nodes.push_back(std::make_unique<Node>(sim, spec, gpus));
    }
    for (auto& n : nodes) {
      if (auto* audit = n->server->auditor()) {
        if (spec.trace != nullptr) audit->set_trace(spec.trace);
        if (spec.tracer != nullptr) audit->set_causal_tracer(spec.tracer);
      }
    }
  }

  [[nodiscard]] bool crash_active(int n) const noexcept {
    return spec.faults != nullptr &&
           spec.faults->active(sim::FaultKind::kNodeCrash, n, sim.now());
  }

  /// Balancer dispatch (the Fig. 1 box). Routes over the currently routable
  /// nodes; with every node unroutable it falls back to all of them (an
  /// all-ejected fleet must degrade to best-effort, not deadlock). Returns
  /// -1 only when exclusion leaves no node (single-node hedge).
  int pick_node(int exclude) {
    const int count = static_cast<int>(nodes.size());
    cand_.clear();
    for (int i = 0; i < count; ++i) {
      const bool r = nodes[static_cast<std::size_t>(i)]->health.admits(sim.now());
      sync_node_state(i);  // admits() may have advanced ejected -> half-open
      if (i != exclude && r) cand_.push_back(i);
    }
    if (cand_.empty()) {
      for (int i = 0; i < count; ++i) {
        if (i != exclude) cand_.push_back(i);
      }
    }
    if (cand_.empty()) return -1;
    switch (cfg.policy) {
      case BalancerPolicy::kRoundRobin:
        return cand_[next_rotation_++ % cand_.size()];
      case BalancerPolicy::kRandom:
        return cand_[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(cand_.size()) - 1))];
      case BalancerPolicy::kLeastOutstanding: {
        int best = cand_[0];
        for (int i : cand_) {
          if (nodes[static_cast<std::size_t>(i)]->outstanding <
              nodes[static_cast<std::size_t>(best)]->outstanding) {
            best = i;
          }
        }
        return best;
      }
      case BalancerPolicy::kPowerOfTwo: {
        if (cand_.size() == 1) return cand_[0];
        const auto ia = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(cand_.size()) - 1));
        auto ib = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(cand_.size()) - 2));
        if (ib >= ia) ++ib;
        const int a = cand_[ia], b = cand_[ib];
        const auto oa = nodes[static_cast<std::size_t>(a)]->outstanding;
        const auto ob = nodes[static_cast<std::size_t>(b)]->outstanding;
        if (oa != ob) return oa < ob ? a : b;
        return std::min(a, b);
      }
      case BalancerPolicy::kLatencyWeighted: {
        // C3-style score: expected delay = observed latency scaled by the
        // queue this dispatch would join. Failure-penalized EWMA keeps gray
        // nodes expensive even though their queues are short.
        int best = cand_[0];
        double best_score = 1e300;
        for (int i : cand_) {
          const Node& n = *nodes[static_cast<std::size_t>(i)];
          const double score =
              n.latency_ewma_s * static_cast<double>(n.outstanding + 1);
          if (score < best_score) {
            best_score = score;
            best = i;
          }
        }
        return best;
      }
    }
    return cand_[0];
  }

  void launch(const LogicalPtr& lg, int n, bool hedged) {
    ++lg->inflight;
    sim.spawn(attempt(lg, n, hedged));
  }

  /// One logical request end to end: dispatch, optional hedge at the
  /// deterministic per-request deadline, first response wins.
  sim::Task<void> serve_logical() {
    auto lg = std::make_shared<Logical>(sim, next_logical_id_++, sim.now());
    ++issued;
    if (spec.tracer != nullptr && sampler.sample(lg->id)) {
      lg->traced = true;
      lg->ctx = spec.tracer->begin_trace(true);
    }
    const int primary = pick_node(-1);
    launch(lg, primary, false);
    if (cfg.hedge.enabled) {
      const bool early = co_await lg->decided.wait_until(sim.now() + cfg.hedge.deadline);
      if (!early && !lg->decided.is_set()) {
        if (hedge_tokens >= 1.0) {
          const int second = pick_node(primary);
          if (second >= 0) {
            hedge_tokens -= 1.0;
            ++hedges;
            lg->hedged = true;
            lg->hedge_time = sim.now();
            launch(lg, second, true);
          }
        } else {
          ++hedges_denied;
        }
      }
    }
    co_await lg->decided.wait();
  }

  /// One physical dispatch to `n`: outbound link, node frontend (crash /
  /// gray fast paths), server round trip with crash-window response loss,
  /// inbound link.
  sim::Process attempt(LogicalPtr lg, int n, bool hedged) {
    Node& node = *nodes[static_cast<std::size_t>(n)];
    const bool trial = node.health.state() == HealthGate::State::kHalfOpen;
    if (trial) node.health.begin_trial();
    ++node.outstanding;
    node.outstanding_integral.set(sim.now(), static_cast<double>(node.outstanding));
    ++node.dispatches_total;
    if (measuring) ++node.dispatches_window;
    const Time t0 = sim.now();
    bool success = false;
    bool neutral = false;  // hedge-cancelled: no health or latency signal
    const char* fail_kind = "";

    const double out_delay =
        spec.faults != nullptr ? spec.faults->partition_delay_s(n, sim.now()) : 0.0;
    if (out_delay > 0.0) co_await sim.wait(sim::seconds(out_delay));

    if (lg->decided.is_set()) {
      // The sibling won while this dispatch was still on the wire.
      neutral = true;
      fail_kind = "cancelled";
    } else if (crash_active(n)) {
      co_await sim.wait(kConnectFailCost);
      fail_kind = "crash";
    } else if (spec.faults != nullptr && !spec.faults->gray_serves(n, lg->id, sim.now())) {
      co_await sim.wait(kGrayFailCost);
      fail_kind = "gray";
    } else {
      auto req = std::make_shared<serving::Request>(sim, next_request_id_++, spec.image);
      if (lg->traced) req->trace_ctx = lg->ctx;  // node auditor adopts -> cross-node trace
      lg->attempts.push_back(req);
      node.wire.push_back(req);
      node.server->submit(req);
      bool response_lost = false;
      for (;;) {
        const Time limit =
            spec.faults != nullptr
                ? spec.faults->next_begin(sim::FaultKind::kNodeCrash, n, sim.now())
                : sim::FaultPlan::kNever;
        if (limit == sim::FaultPlan::kNever) {
          co_await req->done.wait();
          break;
        }
        if (co_await req->done.wait_until(limit)) break;
        if (crash_active(n)) {
          response_lost = true;  // the crash swallowed the in-flight response
          break;
        }
      }
      unwire(node, req);
      if (response_lost) {
        fail_kind = "crash";
      } else {
        const double in_delay =
            spec.faults != nullptr ? spec.faults->partition_delay_s(n, sim.now()) : 0.0;
        if (in_delay > 0.0) co_await sim.wait(sim::seconds(in_delay));
        if (req->dropped && req->cancel_requested) {
          if (req->cancel_reason == "hedge-cancelled") {
            neutral = true;
            fail_kind = "cancelled";
          } else {
            fail_kind = "crash";  // node-crash cancellation of queued work
          }
        } else if (!req->failed && !req->dropped) {
          success = true;
        } else {
          fail_kind = "node-error";
        }
      }
    }
    finish_attempt(lg, n, t0, success, neutral, fail_kind, trial, hedged);
  }

  static void unwire(Node& node, const serving::RequestPtr& req) {
    for (auto& r : node.wire) {
      if (r == req) {
        r = node.wire.back();
        node.wire.pop_back();
        return;
      }
    }
  }

  void finish_attempt(const LogicalPtr& lg, int n, Time t0, bool success, bool neutral,
                      const char* fail_kind, bool trial, bool hedged) {
    Node& node = *nodes[static_cast<std::size_t>(n)];
    --node.outstanding;
    node.outstanding_integral.set(sim.now(), static_cast<double>(node.outstanding));
    if (trial) node.health.end_trial();
    const Time now = sim.now();
    if (neutral) {
      ++cancelled;  // a hedge loser, drop-accounted on its node; not the node's fault
    } else {
      node.health.on_outcome(success, now);
      sync_node_state(n);
      const double obs = success ? sim::to_seconds(now - t0) : kFailurePenaltyS;
      node.latency_ewma_s = kLatencyAlpha * obs + (1.0 - kLatencyAlpha) * node.latency_ewma_s;
    }
    --lg->inflight;
    if (lg->decided.is_set()) return;
    if (success) {
      decide(lg, true, hedged, now);
    } else {
      if (fail_kind[0] != '\0') lg->fail_kind = fail_kind;
      if (lg->inflight == 0) decide(lg, false, hedged, now);
    }
  }

  void decide(const LogicalPtr& lg, bool success, bool by_hedge, Time now) {
    if (success) {
      ++completed;
      // Run-wide completion-charged latency sum: the λ·W side of the fleet
      // Little's-law audit, paired against the per-node outstanding
      // integrals (the L side). Charged at every success, not just inside
      // the measurement window, so interval differencing stays monotone.
      latency_sum_s += sim::to_seconds(now - lg->start);
      hedge_tokens =
          std::min(cfg.hedge.budget, hedge_tokens + cfg.hedge.budget_refill_per_success);
      if (measuring) {
        ++window_completed;
        latency.add(sim::to_seconds(now - lg->start));
      }
    } else {
      ++failed;
      const std::string_view kind = lg->fail_kind;
      if (kind == "crash") ++crash_failed;
      else if (kind == "gray") ++gray_failed;
    }
    if (lg->hedged) {
      if (by_hedge) ++hedge_wins;
      else ++hedge_losses;
      // First response wins; cancel the sibling still in flight so its node
      // drops it at the next dispatch point (drop-accounted, conserved).
      for (auto& r : lg->attempts) {
        if (r != nullptr && !r->done.is_set()) {
          r->cancel_requested = true;
          r->cancel_reason = "hedge-cancelled";
        }
      }
      if (lg->traced) {
        (void)spec.tracer->child_span(lg->ctx, "fleet.balancer",
                                      by_hedge ? "hedge-win" : "hedge-loss", lg->hedge_time,
                                      now, {{"blame", "hedge-deadline"}});
      }
    }
    if (lg->traced) {
      spec.tracer->record(
          lg->ctx, "fleet.balancer", "fleet-request", lg->start, now,
          {{"policy", std::string(balancer_policy_name(cfg.policy))},
           {"outcome", success ? std::string("ok") : std::string(lg->fail_kind)}});
    }
    lg->decided.set();
  }

  /// Periodic health probe against one node. A crashed node answers
  /// nothing (timeout); a partitioned link inflates the RTT past the
  /// timeout; a gray node answers normally — the defining property of gray
  /// failure is that watchdogs pass while real work fails.
  sim::Process probe_loop(int n) {
    Node& node = *nodes[static_cast<std::size_t>(n)];
    for (;;) {
      co_await sim.wait(cfg.health.probe_interval);
      if (stopped) co_return;
      ++probes;
      const Time t0 = sim.now();
      const double link =
          spec.faults != nullptr ? spec.faults->partition_delay_s(n, t0) : 0.0;
      const double rtt_s = cfg.health.probe_cost_s + 2.0 * link;
      const bool crashed = crash_active(n);
      const bool ok = !crashed && sim::seconds(rtt_s) <= cfg.health.probe_timeout;
      co_await sim.wait(ok ? std::max<Time>(sim::seconds(rtt_s), 1)
                           : cfg.health.probe_timeout);
      if (!ok) ++probe_failures;
      node.health.on_probe(ok, sim.now());
      sync_node_state(n);
      if (spec.trace != nullptr && !ok) {
        spec.trace->span("fleet.probes", "probe-fail node" + std::to_string(n), t0, sim.now(),
                         {{"blame", crashed ? "node-crash" : "probe-timeout"}});
      }
    }
  }

  void sync_node_state(int n) {
    Node& node = *nodes[static_cast<std::size_t>(n)];
    const HealthGate::State s = node.health.state();
    if (s == node.last_state) return;
    node.last_state = s;
    if (spec.trace != nullptr) {
      const char* name = s == HealthGate::State::kClosed  ? "rejoined"
                         : s == HealthGate::State::kOpen  ? "ejected"
                                                          : "half-open";
      spec.trace->instant("fleet.health", "node" + std::to_string(n) + " " + name, sim.now());
    }
  }

  /// A node-crash window opening drops that node's in-flight work: requests
  /// still queued inside the node are cancelled (drop-accounted by its
  /// server, so the auditor conserves them); responses already owed to the
  /// balancer are swallowed by the awaiting attempt's crash check.
  void on_fault_edge(const sim::FaultWindow& w, bool begin) {
    if (w.kind != sim::FaultKind::kNodeCrash || !begin) return;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (w.target != sim::FaultWindow::kAllTargets && static_cast<int>(i) != w.target) {
        continue;
      }
      for (auto& r : nodes[i]->wire) {
        r->cancel_requested = true;
        r->cancel_reason = "node-crash";
      }
    }
  }

  sim::Process client() {
    while (!stopped) {
      co_await serve_logical();
    }
  }

  sim::Process fire_one() { co_await serve_logical(); }

  sim::Process open_loop_gen() {
    auto gaps = workload::make_arrivals(spec.arrivals, spec.rate_rps);
    while (!stopped) {
      co_await sim.wait(std::max<Time>(gaps(rng), 1));
      if (stopped) break;
      sim.spawn(fire_one());
    }
  }

  void register_instruments() {
    metrics::Registry* reg = spec.registry;
    if (reg == nullptr) return;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      Node* n = nodes[i].get();
      const metrics::Labels labels{{"node", std::to_string(i)}};
      reg->gauge_fn("fleet_node_health_score", labels, [n] { return n->health.score(); });
      reg->gauge_fn("fleet_node_state", labels, [n] {
        const HealthGate::State s = n->health.state();
        return s == HealthGate::State::kClosed     ? 1.0
               : s == HealthGate::State::kHalfOpen ? 0.5
                                                   : 0.0;
      });
      reg->gauge_fn("fleet_node_outstanding", labels,
                    [n] { return static_cast<double>(n->outstanding); });
      reg->counter_fn("fleet_node_outstanding_seconds_total", labels, [n, this] {
        return n->outstanding_integral.integral_seconds(sim.now());
      });
      reg->counter_fn("fleet_node_dispatches_total", labels,
                      [n] { return static_cast<double>(n->dispatches_total); });
      reg->counter_fn("fleet_node_ejections_total", labels,
                      [n] { return static_cast<double>(n->health.trips()); });
      reg->counter_fn("fleet_node_rejoins_total", labels,
                      [n] { return static_cast<double>(n->health.recoveries()); });
    }
    reg->counter_fn("fleet_requests_total", {{"outcome", "ok"}},
                    [this] { return static_cast<double>(completed); });
    reg->counter_fn("fleet_requests_total", {{"outcome", "fail"}},
                    [this] { return static_cast<double>(failed); });
    reg->counter_fn("fleet_probes_total", {}, [this] { return static_cast<double>(probes); });
    reg->counter_fn("fleet_probe_failures_total", {},
                    [this] { return static_cast<double>(probe_failures); });
    reg->counter_fn("fleet_hedges_total", {}, [this] { return static_cast<double>(hedges); });
    reg->counter_fn("fleet_hedge_wins_total", {},
                    [this] { return static_cast<double>(hedge_wins); });
    reg->counter_fn("fleet_hedge_losses_total", {},
                    [this] { return static_cast<double>(hedge_losses); });
    reg->counter_fn("fleet_hedges_denied_total", {},
                    [this] { return static_cast<double>(hedges_denied); });
    reg->counter_fn("fleet_cancelled_total", {},
                    [this] { return static_cast<double>(cancelled); });
    reg->counter_fn("fleet_latency_seconds_total", {}, [this] { return latency_sum_s; });
    reg->gauge_fn("fleet_hedge_tokens", {}, [this] { return hedge_tokens; });
  }

  sim::Simulator& sim;
  const FleetSpec& spec;
  const serving::FleetBalancerConfig& cfg;
  sim::Rng rng;
  trace::TraceSampler sampler;
  std::vector<std::unique_ptr<Node>> nodes;
  std::vector<int> cand_;  ///< pick_node scratch (no per-dispatch allocation)
  std::size_t next_rotation_ = 0;
  std::uint64_t next_logical_id_ = 1;
  std::uint64_t next_request_id_ = 1;
  bool stopped = false;
  bool measuring = false;
  metrics::Histogram latency;
  double hedge_tokens;

  // Run-wide logical accounting (see FleetResult).
  std::uint64_t issued = 0, completed = 0, failed = 0;
  std::uint64_t crash_failed = 0, gray_failed = 0;
  std::uint64_t hedges = 0, hedge_wins = 0, hedge_losses = 0, hedges_denied = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t probes = 0, probe_failures = 0;
  std::uint64_t window_completed = 0;
  double latency_sum_s = 0.0;  ///< completion-charged; fleet_latency_seconds_total
};

}  // namespace

FleetResult run_fleet(const FleetSpec& spec) {
  if (spec.gpus_per_node.empty()) throw std::invalid_argument("run_fleet: need >= 1 node");
  if (spec.rate_rps <= 0.0 && spec.concurrency <= 0) {
    throw std::invalid_argument("run_fleet: need closed-loop clients or an offered rate");
  }
  sim::Simulator sim;
  FleetBalancer fleet{sim, spec};
  fleet.register_instruments();

  if (spec.faults != nullptr && !spec.faults->empty()) {
    if (spec.trace != nullptr) spec.faults->annotate(*spec.trace);
    if (auto* audit = fleet.nodes.front()->server->auditor()) {
      for (const auto& w : spec.faults->windows()) {
        audit->on_fault_window(sim::fault_kind_name(w.kind), w.begin, w.end);
      }
    }
    spec.faults->schedule_transitions(
        sim, [&fleet](const sim::FaultWindow& w, bool begin) { fleet.on_fault_edge(w, begin); });
  }
  if (spec.server.balancer.health.enabled) {
    for (std::size_t i = 0; i < fleet.nodes.size(); ++i) {
      sim.spawn(fleet.probe_loop(static_cast<int>(i)));
    }
  }
  if (spec.rate_rps > 0.0) {
    sim.spawn(fleet.open_loop_gen());
  } else {
    for (int i = 0; i < spec.concurrency; ++i) sim.spawn(fleet.client());
  }

  if (spec.recorder != nullptr) spec.recorder->start(sim);
  sim.run_until(spec.warmup);
  for (auto& n : fleet.nodes) n->server->begin_window();
  fleet.measuring = true;
  sim.run_until(spec.warmup + spec.measure);
  // Stop at the window edge: the drain runs the simulator dry, and a live
  // recorder would re-schedule its tick forever.
  if (spec.recorder != nullptr) spec.recorder->stop();

  FleetResult r;
  for (auto& n : fleet.nodes) {
    r.node_throughput_rps.push_back(n->server->window().throughput());
    r.node_dispatches.push_back(n->dispatches_window);
  }
  fleet.measuring = false;
  r.throughput_rps =
      static_cast<double>(fleet.window_completed) / sim::to_seconds(spec.measure);
  r.mean_latency_s = fleet.latency.mean();
  r.p99_latency_s = fleet.latency.p99();

  // Drain: stop the load and the probes, let every in-flight attempt reach a
  // terminal state, then close the nodes.
  fleet.stopped = true;
  sim.run();
  for (auto& n : fleet.nodes) n->server->shutdown();
  sim.run();

  r.issued = fleet.issued;
  r.completed = fleet.completed;
  r.failed = fleet.failed;
  r.crash_failed = fleet.crash_failed;
  r.gray_failed = fleet.gray_failed;
  r.hedges = fleet.hedges;
  r.hedge_wins = fleet.hedge_wins;
  r.hedge_losses = fleet.hedge_losses;
  r.hedges_denied = fleet.hedges_denied;
  r.cancelled = fleet.cancelled;
  r.probes = fleet.probes;
  r.probe_failures = fleet.probe_failures;
  for (auto& n : fleet.nodes) {
    r.ejections += n->health.trips();
    r.rejoins += n->health.recoveries();
    if (auto* audit = n->server->auditor()) {
      r.audit_violations += audit->violation_count();
      for (auto& line : audit->report()) r.audit_report.push_back(std::move(line));
    }
  }
  if (spec.registry != nullptr) spec.registry->freeze_callbacks();
  return r;
}

std::string FleetResult::digest() const {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "tput=%.6f mean=%.9f p99=%.9f issued=%" PRIu64 " completed=%" PRIu64
                " failed=%" PRIu64 " crash=%" PRIu64 " gray=%" PRIu64 " hedges=%" PRIu64
                " wins=%" PRIu64 " losses=%" PRIu64 " denied=%" PRIu64 " cancelled=%" PRIu64
                " probes=%" PRIu64 " pfail=%" PRIu64 " eject=%" PRIu64 " rejoin=%" PRIu64,
                throughput_rps, mean_latency_s, p99_latency_s, issued, completed, failed,
                crash_failed, gray_failed, hedges, hedge_wins, hedge_losses, hedges_denied,
                cancelled, probes, probe_failures, ejections, rejoins);
  std::string d = buf;
  for (std::size_t i = 0; i < node_throughput_rps.size(); ++i) {
    const std::uint64_t disp = i < node_dispatches.size() ? node_dispatches[i] : 0;
    std::snprintf(buf, sizeof buf, " n%zu=%.6f/%" PRIu64, i, node_throughput_rps[i], disp);
    d += buf;
  }
  return d;
}

}  // namespace serve::core
