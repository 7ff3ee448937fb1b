// Time-series flight recorder: samples every registry instrument on a fixed
// virtual-time cadence into ring-buffered series.
//
// End-of-window aggregates cannot distinguish "throughput collapsed mid-run"
// from "steady-state bottleneck" — the paper's Fig. 5 claims are temporal
// (queue depth grows toward seconds; GPU-preproc throughput *declines* as
// staging memory thrashes). The recorder turns a run into a trajectory:
// at every tick it evaluates each instrument (counters/gauges read their
// atomic cell or callback; histograms report their sample count) and appends
// the value to a per-instrument ring buffer.
//
// Determinism: ticks run at exact multiples of the period in virtual time on
// the single simulation thread, so two runs with the same seed produce
// bit-identical series. The recorder's own cost is accounted in a wall-clock
// self-time instrument (`telemetry_self_seconds_total`) which is excluded
// from the series and the deterministic exports — measuring yourself must
// not perturb what you measure.
//
// Lifecycle: construct with a registry, start(sim) to begin sampling
// (instruments registered later join mid-flight; earlier ticks back-fill as
// absent, not zero), stop() before draining the simulator — the tick
// re-schedules itself forever, so a drain (`sim.run()`) would never
// terminate with a live recorder.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "metrics/registry.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace serve::metrics {

class FlightRecorder {
 public:
  struct Options {
    sim::Time period = sim::milliseconds(100);
    std::size_t capacity = 4096;  ///< samples retained per instrument (ring)
  };

  explicit FlightRecorder(Registry& registry) : FlightRecorder(registry, Options{}) {}
  FlightRecorder(Registry& registry, Options opts);

  /// Begins sampling: one sample immediately, then every `period` until
  /// stop(). Must be called from outside the event loop or a sim callback.
  void start(sim::Simulator& sim);

  /// Stops sampling (the pending tick becomes a no-op). Idempotent.
  void stop() noexcept { running_ = false; }

  [[nodiscard]] bool running() const noexcept { return running_; }
  /// The registry this recorder samples.
  [[nodiscard]] const Registry& registry() const noexcept { return registry_; }
  [[nodiscard]] sim::Time period() const noexcept { return opts_.period; }
  [[nodiscard]] std::uint64_t ticks() const noexcept { return ticks_; }
  /// Virtual time of tick 0; tick k sampled at start_time() + k * period().
  [[nodiscard]] sim::Time start_time() const noexcept { return start_time_; }

  /// One instrument's retained samples, oldest first. When the ring wrapped,
  /// `start_tick * period` is the virtual time of samples.front().
  struct Series {
    std::string name;
    Labels labels;
    InstrumentType type = InstrumentType::kCounter;
    std::uint64_t start_tick = 0;   ///< tick index of the first retained sample
    std::uint64_t total_samples = 0;  ///< including overwritten ones
    std::vector<double> samples;
  };

  /// All series in registry registration order, wall-clock instruments
  /// excluded (they are nondeterministic by construction).
  [[nodiscard]] std::vector<Series> series() const;

  /// Wall-clock seconds the recorder spent sampling (self-overhead).
  [[nodiscard]] double self_seconds() const noexcept { return self_time_.value(); }

  /// Called after every sample with the virtual time and the tick index just
  /// recorded (tick k sampled at start_time() + k * period()). This is the
  /// evaluation cadence hook the obs::AlertEngine rides: listeners observe a
  /// fully-sampled registry at exact virtual-time multiples, so anything they
  /// derive is as deterministic as the series themselves. Listeners must not
  /// register instruments from inside the callback for the *current* tick
  /// (they would sample starting next tick anyway) and must outlive the
  /// recorder's sampling window.
  using TickListener = std::function<void(sim::Time now, std::uint64_t tick)>;
  void add_tick_listener(TickListener fn) { listeners_.push_back(std::move(fn)); }

 private:
  struct Ring {
    std::uint64_t first_tick = 0;  ///< tick of buf's logically-first sample
    std::uint64_t total = 0;
    std::vector<double> buf;
  };

  void tick(sim::Simulator& sim);
  void sample(sim::Time now);

  Registry& registry_;
  Options opts_;
  bool running_ = false;
  std::uint64_t ticks_ = 0;
  sim::Time start_time_ = 0;
  std::vector<Ring> rings_;  ///< index-aligned with registry instruments
  std::vector<double> scratch_;       ///< per-tick bulk-sample buffer (reused)
  std::vector<std::uint8_t> wall_clock_;  ///< cached per-index wall-clock flag
  Counter self_time_;        ///< wall-clock seconds spent in sample()
  std::vector<TickListener> listeners_;
};

}  // namespace serve::metrics
