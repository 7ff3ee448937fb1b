// Deterministic SLO watch plane: declarative alert rules evaluated on the
// flight-recorder cadence.
//
// The registry (PR 4) exports what happened and the tracer (PR 5) explains
// single requests, but nothing *watches* the running system. The AlertEngine
// closes that gap as a sensor layer: rules over registry instruments are
// evaluated at every FlightRecorder tick — exact virtual-time multiples on
// the simulation thread — so alerts fire and clear at deterministic
// sim-times and two same-seed runs produce byte-identical alert logs. That
// determinism is what makes alerting testable here and what the Packrat-style
// online reconfiguration controller (ROADMAP) needs as its input signal.
//
// Three rule families:
//
//   - ThresholdRule   gauge value or counter derivative (rate/s) vs a
//                     threshold, with hysteresis (separate clear level,
//                     consecutive-tick debounce). Aggregation: sum or max
//                     over the matched instruments, or per-instrument — the
//                     latter turns one rule into one alert instance per
//                     matched instrument (e.g. per-node fleet health).
//   - BurnRateRule    multi-window SLO burn rate over a latency histogram
//                     (Google SRE workbook style): the fraction of requests
//                     over the SLO in a short AND a long trailing window,
//                     both normalized by the error budget (1 - target), must
//                     exceed the threshold to fire. The short window makes
//                     detection fast; the long window keeps blips from
//                     paging.
//   - StallRule       a progress counter that stops advancing for N ticks
//                     while an optional arming gauge shows outstanding work —
//                     the "server is wedged, not idle" watchdog.
//
// On fire/resolve the engine appends to an in-memory deterministic log,
// emits a trace instant event on the "alerts" track, increments
// obs_alerts_{fired,resolved}_total{alert=...} counters, and records a
// labeled snapshot of the top contributing instruments in the log line. A
// firing alert can also flip a trace::TraceSampler into full sampling
// (triggered capture) for the alert window plus a hold-off, so the causal
// traces of the anomalous interval are captured wholesale.
//
// Self-cost is measured into a wall-clock counter
// (obs_alert_engine_self_seconds_total), excluded from deterministic exports
// like the recorder's own self-time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <limits>
#include <string>
#include <vector>

#include "metrics/flight_recorder.h"
#include "metrics/registry.h"
#include "sim/time.h"
#include "sim/trace.h"
#include "trace/span_context.h"

namespace serve::obs {

/// Threshold / derivative rule over counters and gauges.
struct ThresholdRule {
  std::string name;        ///< alert name, e.g. "queue-depth-high"
  std::string instrument;  ///< registry instrument name to watch; every label set matches

  /// kValue watches the sampled value (gauges); kRate watches the per-second
  /// derivative between consecutive ticks (counters). The first tick after a
  /// rate rule sees an instrument establishes the baseline and cannot breach.
  enum class Signal : std::uint8_t { kValue, kRate };
  Signal signal = Signal::kValue;

  /// How multiple matched instruments combine: one aggregate alert over the
  /// sum or max, or an independent alert instance per instrument (the alert
  /// name then carries the instrument's labels, e.g. "node-unhealthy{node=1}").
  enum class Agg : std::uint8_t { kSum, kMax, kPerInstrument };
  Agg agg = Agg::kSum;

  // Exactly one direction must be set. Hysteresis: an above-rule clears only
  // when the signal drops to clear_below (defaults to the fire level); a
  // below-rule clears at clear_above.
  double fire_above = std::numeric_limits<double>::infinity();
  double fire_below = -std::numeric_limits<double>::infinity();
  double clear_below = std::numeric_limits<double>::quiet_NaN();
  double clear_above = std::numeric_limits<double>::quiet_NaN();

  int for_ticks = 1;        ///< consecutive breaching ticks before firing
  int clear_for_ticks = 1;  ///< consecutive clear ticks before resolving
};

/// Multi-window SLO burn-rate rule over a latency histogram.
struct BurnRateRule {
  std::string name;  ///< e.g. "slo-burn-rate"
  std::string histogram = "serving_request_latency_seconds";

  double slo_s = 0.25;     ///< latency objective (seconds)
  double target = 0.99;    ///< attainment objective (fraction <= slo_s)
  /// Burn = (observed error rate) / (error budget). 1.0 = burning exactly at
  /// budget; both windows must exceed this to fire.
  double burn_threshold = 4.0;
  int short_window_ticks = 5;
  int long_window_ticks = 30;
  int clear_for_ticks = 3;  ///< short-window burn below threshold this long
};

/// Little's-law audit: per-tick comparison of the two integral counters
///
///   L   = Δ(occupancy time integral) / dt     (time-average in-system count)
///   λ·W = Δ(completion-charged latency sum) / dt
///
/// Every completed request contributes its full latency to `latency_sum` at
/// its terminal instant and exactly that much area to `occupancy_integral`
/// spread over its lifetime — so in steady state the per-tick derivatives
/// agree and L ≈ λ·W holds tick by tick. The two split apart only while
/// backlog is growing (L > λ·W: area accrues now, charge lands later) or
/// draining (the reverse) — precisely the transients fault windows cause.
/// The audit therefore doubles as a conservation check on the telemetry
/// itself *and* a backlog-transient detector.
struct LittleLawRule {
  std::string name = "littles-law";
  /// Counter: time integral of in-system requests (value-seconds).
  std::string occupancy_integral = "serving_in_flight_seconds_total";
  /// Counter: sum of request latencies charged at completion (seconds).
  std::string latency_sum = "serving_latency_seconds_total";
  double tolerance = 0.15;  ///< relative |L - λW| / max(L, λW) that breaches
  /// Near-idle ticks (both sides below this many requests) never breach:
  /// the relative error of ~0 against ~0 is noise, not signal.
  double min_occupancy = 0.5;
  int for_ticks = 2;
  int clear_for_ticks = 2;
};

/// Progress watchdog: fires when `progress` stops advancing while work is
/// outstanding.
struct StallRule {
  std::string name;         ///< e.g. "progress-stall"
  std::string progress;     ///< counter that must keep advancing
  std::string armed_gauge;  ///< only watch while this gauge > armed_above
  double armed_above = 0.0;
  int for_ticks = 5;
  int clear_for_ticks = 1;
};

/// One fire/resolve transition, in evaluation order.
struct AlertEvent {
  sim::Time t = 0;
  std::string alert;   ///< instance name (rule name + labels when per-instrument)
  bool firing = false; ///< true = FIRING, false = RESOLVED
  double value = 0.0;  ///< signal value at the transition
  double threshold = 0.0;
  std::string detail;  ///< top contributing instruments / window breakdown
};

class AlertEngine {
 public:
  explicit AlertEngine(metrics::Registry& registry);

  // Rule registration (before or after attach; instruments may register
  // later and join evaluation when they appear).
  void add_threshold(ThresholdRule rule);
  void add_burn_rate(BurnRateRule rule);
  void add_stall(StallRule rule);
  void add_littles_law(LittleLawRule rule);

  /// Rides the recorder's cadence: registers a tick listener that calls
  /// evaluate() after every sample. The engine must outlive the recorder's
  /// sampling window. Throws std::invalid_argument when the recorder samples
  /// another registry.
  void attach(metrics::FlightRecorder& recorder);
  /// The recorder attach() rode, or null before it was called.
  [[nodiscard]] const metrics::FlightRecorder* recorder() const noexcept { return recorder_; }

  /// Alert transitions also become instant events on the "alerts" track.
  void set_trace(sim::TraceRecorder* trace) noexcept { trace_ = trace; }

  /// Triggered capture: while any alert is firing (plus `hold_ticks` after
  /// the last one resolves) the sampler is forced into full sampling.
  void set_triggered_sampler(trace::TraceSampler* sampler, int hold_ticks = 5);
  /// Drops the sampler binding (the runner calls this before the sampler's
  /// owner is destroyed).
  void release_triggered_sampler() noexcept;

  /// Evaluates every rule against the current registry state. Normally
  /// invoked by the recorder listener; public so tests can drive ticks
  /// directly.
  void evaluate(sim::Time now, std::uint64_t tick);

  /// The registry whose instruments the rules watch.
  [[nodiscard]] const metrics::Registry& registry() const noexcept { return registry_; }
  [[nodiscard]] const std::vector<AlertEvent>& events() const noexcept { return events_; }
  [[nodiscard]] std::size_t active_alerts() const noexcept { return active_; }
  [[nodiscard]] std::uint64_t fired_total() const noexcept { return fired_total_; }
  /// True when any event (past or present) fired under this instance name.
  [[nodiscard]] bool ever_fired(const std::string& alert) const;
  /// Ticks spent with the sampler forced (triggered-capture window length).
  [[nodiscard]] std::uint64_t capture_ticks() const noexcept { return capture_ticks_; }

  /// Deterministic text log, one line per transition:
  ///   t=<s> FIRING <alert> value=<v> threshold=<t> <detail>
  /// Same seed, same rules => byte-identical text.
  void write_log(std::ostream& out) const;
  [[nodiscard]] std::string log_text() const;

  /// Wall-clock seconds spent in evaluate() (self-overhead; excluded from
  /// deterministic exports).
  [[nodiscard]] double self_seconds() const noexcept { return self_time_.value(); }

 private:
  // Shared fire/clear hysteresis state machine.
  struct AlertState {
    bool firing = false;
    int breach_ticks = 0;
    int clear_ticks = 0;
  };

  struct ThresholdState {
    ThresholdRule rule;
    metrics::Counter fired;     ///< obs_alerts_fired_total{alert=...}
    metrics::Counter resolved;  ///< obs_alerts_resolved_total{alert=...}
    AlertState agg_state;  ///< kSum / kMax
    // Per matched instrument (registry index): alert state (kPerInstrument)
    // and previous sample for kRate. Indexed sparsely via parallel vectors
    // kept in registry order so evaluation order is deterministic.
    std::vector<std::size_t> matched;       ///< registry indices
    std::vector<AlertState> per_state;      ///< aligned with matched
    std::vector<double> prev_value;         ///< aligned with matched
    std::vector<bool> have_prev;            ///< aligned with matched
    std::size_t scanned_until = 0;          ///< registry indices already classified
  };

  struct BurnWindowSample {
    std::uint64_t count = 0;  ///< cumulative histogram count at this tick
    double bad = 0.0;         ///< cumulative samples above slo (interpolated)
  };

  struct BurnState {
    BurnRateRule rule;
    metrics::Counter fired;
    metrics::Counter resolved;
    AlertState state;
    std::vector<std::size_t> matched;
    std::size_t scanned_until = 0;
    std::deque<BurnWindowSample> window;  ///< trailing long_window_ticks + 1
  };

  /// "Instrument not registered (yet)" sentinel for cached registry indices.
  static constexpr std::size_t kNoIndex = static_cast<std::size_t>(-1);

  struct StallState {
    StallRule rule;
    metrics::Counter fired;
    metrics::Counter resolved;
    AlertState state;
    double prev_progress = 0.0;
    bool have_prev = false;
    int stalled_ticks = 0;
    // Cached registry indices (resolved incrementally — instruments may
    // register after the rule): a by-name find() per tick would re-scan and
    // snapshot-copy; indices are stable, so resolve once and read cheaply.
    std::size_t progress_idx = kNoIndex;
    std::size_t armed_idx = kNoIndex;
    std::size_t scanned_until = 0;
  };

  struct LittleState {
    LittleLawRule rule;
    metrics::Counter fired;
    metrics::Counter resolved;
    /// obs_little_law_deviation_ticks_total{alert=...}: every breaching tick,
    /// independent of the hysteresis machine — the audit's raw signal.
    metrics::Counter deviation_ticks;
    AlertState state;
    std::vector<std::size_t> occ_matched;  ///< occupancy-integral instruments
    std::vector<std::size_t> lat_matched;  ///< latency-sum instruments
    double prev_occ = 0.0;
    double prev_lat = 0.0;
    bool have_prev = false;
    std::size_t scanned_until = 0;
  };

  // `n` is the registry's instrument count, read once per tick: scans are
  // incremental (instruments only append) and this path runs per tick.
  void scan_new_instruments(ThresholdState& st, std::size_t n);
  void scan_new_instruments(BurnState& st, std::size_t n);
  void scan_new_instruments(StallState& st, std::size_t n);
  void scan_new_instruments(LittleState& st, std::size_t n);
  void evaluate_threshold(ThresholdState& st, sim::Time now, double dt_s, std::size_t n);
  void evaluate_burn(BurnState& st, sim::Time now, std::size_t n);
  void evaluate_stall(StallState& st, sim::Time now, std::size_t n);
  void evaluate_little(LittleState& st, sim::Time now, double dt_s, std::size_t n);

  /// Advances the hysteresis state machine; returns +1 on fire, -1 on
  /// resolve, 0 otherwise.
  static int step_state(AlertState& state, bool breach, bool clear_ok, int for_ticks,
                        int clear_for_ticks);

  void transition(sim::Time now, const std::string& alert, bool firing, double value,
                  double threshold, std::string detail, metrics::Counter& fired,
                  metrics::Counter& resolved);
  [[nodiscard]] std::string instance_name(const ThresholdRule& rule, std::size_t reg_index) const;
  /// "top: a{x=1}=3 b=2" — top matched instruments by value, for the log line.
  [[nodiscard]] std::string top_contributors(const std::vector<std::size_t>& matched,
                                             std::size_t limit = 3) const;

  metrics::Registry& registry_;
  const metrics::FlightRecorder* recorder_ = nullptr;
  sim::TraceRecorder* trace_ = nullptr;
  trace::TraceSampler* sampler_ = nullptr;
  int capture_hold_ticks_ = 5;
  std::uint64_t last_active_tick_ = 0;
  bool capture_on_ = false;
  std::uint64_t capture_ticks_ = 0;

  std::vector<ThresholdState> thresholds_;
  std::vector<BurnState> burns_;
  std::vector<StallState> stalls_;
  std::vector<LittleState> littles_;

  std::vector<AlertEvent> events_;
  std::size_t active_ = 0;
  std::uint64_t fired_total_ = 0;

  bool have_prev_tick_ = false;
  sim::Time prev_tick_time_ = 0;

  metrics::Gauge active_gauge_;
  metrics::Counter self_time_;  ///< wall-clock, excluded from exports
};

}  // namespace serve::obs
