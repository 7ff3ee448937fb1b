// Observability attachment shared by run_experiment / run_open_loop and
// run_fleet: the observer pointers both specs carry, the one wiring path
// that checks, binds and tears them down, and the Session that owns and
// wires one run's observers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "metrics/export.h"
#include "metrics/flight_recorder.h"
#include "metrics/registry.h"
#include "obs/alert_engine.h"
#include "obs/capacity_plane.h"
#include "serving/server.h"
#include "sim/fault_plan.h"
#include "sim/simulator.h"
#include "sim/trace.h"
#include "trace/causal.h"

namespace serve::core {

/// Optional observers a run can attach; each must outlive the run. The
/// runners check the rules below before simulating and throw
/// std::invalid_argument naming the broken one.
struct Observers {
  /// Chrome-trace recorder: fault-window markers, plus (when auditing) the
  /// per-request stage spans and one span per fault window.
  sim::TraceRecorder* trace = nullptr;
  /// Causal tracer: sampled requests carry SpanContexts, spans get causal ids
  /// and blame args (`servescope traces`). Requires `trace`, recording into it.
  trace::CausalTracer* tracer = nullptr;
  /// Telemetry registry, cumulative from simulation start. Callback
  /// instruments are frozen before teardown, so it may outlive the run.
  metrics::Registry* registry = nullptr;
  /// Flight recorder; must sample `registry`. Runs from before the warmup to
  /// the end of the measurement window.
  metrics::FlightRecorder* recorder = nullptr;
};

/// Lifecycle-audit verdict over a run's auditors (warmup + measure + drain).
struct AuditVerdict {
  std::uint64_t audit_violations = 0;
  std::vector<std::string> audit_report{};
};

/// A runner's wiring of one Observers set, in run order: construct (checks
/// the rules), bind, start, window_end, teardown.
class ObserverWiring {
 public:
  /// Throws std::invalid_argument naming the first broken rule. `alerts`
  /// (single-server runs only) requires `recorder`, must watch `registry` and
  /// must have been attached to `recorder`.
  explicit ObserverWiring(const Observers& o, obs::AlertEngine* alerts = nullptr)
      : obs_(o), alerts_(alerts) {
    require(o.tracer == nullptr || o.trace != nullptr, "tracer requires trace");
    require(o.tracer == nullptr || o.tracer->recorder() == o.trace,
            "tracer must record into trace");
    require(o.recorder == nullptr || &o.recorder->registry() == o.registry,
            "recorder must sample registry");
    require(alerts == nullptr || o.recorder != nullptr, "alerts requires recorder");
    require(alerts == nullptr || &alerts->registry() == o.registry, "alerts must watch registry");
    require(alerts == nullptr || alerts->recorder() == o.recorder, "alerts must ride recorder");
  }

  /// Binds each server's auditor to the trace and tracer, the alert engine to
  /// the trace and (with a tracer) the first auditor's sampler. Writes each
  /// fault window to the trace once, up front (the trace orders by time): its
  /// edges as "faults"-track instants ("gpu-failure[0] open" / "... close")
  /// and, when auditing, a span that lines up with the request spans.
  void bind(const std::vector<serving::InferenceServer*>& servers, const sim::FaultPlan* faults) {
    for (serving::InferenceServer* server : servers) {
      if (serving::RequestAuditor* audit = server->auditor()) {
        audit->set_trace(obs_.trace);
        audit->set_causal_tracer(obs_.tracer);
        auditors_.push_back(audit);
      }
    }
    if (alerts_ != nullptr) {
      if (obs_.trace != nullptr) alerts_->set_trace(obs_.trace);
      // Triggered capture needs sampled requests: the auditor owns the sampler.
      if (obs_.tracer != nullptr && !auditors_.empty()) {
        alerts_->set_triggered_sampler(&auditors_.front()->sampler());
      }
    }
    if (obs_.trace == nullptr || faults == nullptr) return;
    for (const sim::FaultWindow& w : faults->windows()) {
      const std::string_view kind = sim::fault_kind_name(w.kind);
      const sim::TraceName edge =
          w.target == sim::FaultWindow::kAllTargets
              ? sim::TraceName(kind)
              : sim::TraceName(kind, "[", static_cast<std::uint64_t>(w.target), "]");
      obs_.trace->instant("faults", sim::TraceName(edge, " open"), w.begin);
      obs_.trace->instant("faults", sim::TraceName(edge, " close"), w.end);
      if (!auditors_.empty() && w.end > w.begin) obs_.trace->span("faults", kind, w.begin, w.end);
    }
  }

  /// Exports the trace's own event and drop counts as trace_events_*_total.
  void count_trace_events() const {
    if (obs_.trace == nullptr || obs_.registry == nullptr) return;
    const sim::TraceRecorder* rec = obs_.trace;
    obs_.registry->counter_fn("trace_events_recorded_total", {},
                              [rec] { return static_cast<double>(rec->event_count()); });
    obs_.registry->counter_fn("trace_events_dropped_total", {},
                              [rec] { return static_cast<double>(rec->dropped_events()); });
  }

  void start(sim::Simulator& sim) const {
    if (obs_.recorder != nullptr) obs_.recorder->start(sim);
  }
  /// The drain runs the simulator dry; a live recorder would tick forever.
  void window_end() const {
    if (obs_.recorder != nullptr) obs_.recorder->stop();
  }

  /// After the drain, while the servers live: collects the auditors' verdict,
  /// releases the triggered sampler (it points into an auditor), then freezes
  /// the registry's callback instruments.
  void teardown(AuditVerdict& verdict) const {
    for (const serving::RequestAuditor* audit : auditors_) {
      verdict.audit_violations += audit->violation_count();
      for (std::string& line : audit->report()) verdict.audit_report.push_back(std::move(line));
    }
    if (alerts_ != nullptr) alerts_->release_triggered_sampler();
    if (obs_.registry != nullptr) obs_.registry->freeze_callbacks();
  }

 private:
  static void require(bool ok, const char* rule) {
    if (!ok) throw std::invalid_argument(std::string("observers: ") + rule);
  }

  Observers obs_;
  obs::AlertEngine* alerts_;
  std::vector<serving::RequestAuditor*> auditors_;
};

/// Settings of a Session's observers. (At namespace scope: GCC 12 rejects a
/// nested struct with default member initializers as a default argument of
/// its own class.)
struct SessionOptions {
  metrics::FlightRecorder::Options recorder{};
  obs::CapacityPlane::Options capacity{};
  std::size_t trace_max_events = 0;  ///< 0 = TraceRecorder default cap
};

/// Owns one run's observers, built and wired to each other on construction
/// so that every ObserverWiring rule holds by design. A layer mask picks
/// which exist; each layer brings in the layers it needs. Neither copyable
/// nor movable: the observers point at each other.
class Session {
 public:
  enum Layer : unsigned {
    kRegistry = 1u << 0,
    kRecorder = 1u << 1,  ///< samples the registry
    kAlerts = 1u << 2,    ///< rides the recorder
    kCapacity = 1u << 3,  ///< rides the recorder
    kTrace = 1u << 4,
    kTracer = 1u << 5,    ///< records into the trace
  };

  /// Builds and attaches, in order: registry, recorder, capacity plane, alert
  /// engine, trace (capped at `opts.trace_max_events`), tracer.
  explicit Session(unsigned layers, const SessionOptions& opts = {}) : layers_(implied(layers)) {
    if (has(kRegistry)) registry_ = std::make_unique<metrics::Registry>();
    if (has(kRecorder)) {
      recorder_ = std::make_unique<metrics::FlightRecorder>(*registry_, opts.recorder);
    }
    if (has(kCapacity)) capacity_ = std::make_unique<obs::CapacityPlane>(*registry_, opts.capacity);
    if (has(kAlerts)) alerts_ = std::make_unique<obs::AlertEngine>(*registry_);
    if (capacity_) capacity_->attach(*recorder_);
    if (alerts_) alerts_->attach(*recorder_);
    if (has(kTrace)) {
      trace_ = std::make_unique<sim::TraceRecorder>();
      if (opts.trace_max_events > 0) trace_->set_max_events(opts.trace_max_events);
    }
    if (has(kTracer)) tracer_ = std::make_unique<trace::CausalTracer>(trace_.get());
  }
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// True when every layer in `layers` exists (implied layers included).
  [[nodiscard]] bool has(unsigned layers) const noexcept { return (layers_ & layers) == layers; }

  // Each accessor throws std::logic_error when its layer is absent.
  [[nodiscard]] metrics::Registry& registry() const { return get(registry_, "registry"); }
  [[nodiscard]] metrics::FlightRecorder& recorder() const { return get(recorder_, "recorder"); }
  [[nodiscard]] obs::AlertEngine& alerts() const { return get(alerts_, "alerts"); }
  [[nodiscard]] obs::CapacityPlane& capacity() const { return get(capacity_, "capacity"); }
  [[nodiscard]] sim::TraceRecorder& trace() const { return get(trace_, "trace"); }
  [[nodiscard]] trace::CausalTracer& tracer() const { return get(tracer_, "tracer"); }

  /// Points the spec's observer fields (and an ExperimentSpec's `alerts`) at
  /// the layers this session holds; the fields of absent layers keep their
  /// values, so it composes with observers set elsewhere in either order.
  template <typename Spec>
  void attach(Spec& spec) const {
    Observers& o = spec;
    if (registry_) o.registry = registry_.get();
    if (recorder_) o.recorder = recorder_.get();
    if (trace_) o.trace = trace_.get();
    if (tracer_) o.tracer = tracer_.get();
    if constexpr (requires { spec.alerts; }) {
      if (alerts_) spec.alerts = alerts_.get();
    }
  }

  /// Writes out what the session holds: instruments, series, capacity section.
  void capture(metrics::TelemetryExport& ex) const {
    if (registry_) ex.capture_instruments(*registry_);
    if (recorder_) ex.capture_series(*recorder_);
    if (capacity_) ex.set_capacity(capacity_->snapshot());
  }

 private:
  static unsigned implied(unsigned layers) noexcept {
    if (layers & kTracer) layers |= kTrace;
    if (layers & (kAlerts | kCapacity)) layers |= kRecorder;
    if (layers & kRecorder) layers |= kRegistry;
    return layers;
  }
  template <typename T>
  static T& get(const std::unique_ptr<T>& p, const char* layer) {
    if (!p) throw std::logic_error(std::string("session has no ") + layer);
    return *p;
  }

  unsigned layers_;
  // Declared in wiring order, so they are destroyed in reverse.
  std::unique_ptr<metrics::Registry> registry_;
  std::unique_ptr<metrics::FlightRecorder> recorder_;
  std::unique_ptr<obs::CapacityPlane> capacity_;
  std::unique_ptr<obs::AlertEngine> alerts_;
  std::unique_ptr<sim::TraceRecorder> trace_;
  std::unique_ptr<trace::CausalTracer> tracer_;
};

}  // namespace serve::core
