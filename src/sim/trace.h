// Virtual-time trace recording with Chrome trace-event export.
//
// Records three kinds of events:
//  - spans: named intervals on a named track ("gpu0.compute: batch x64"),
//    optionally carrying string args (trace/span ids, blame annotations);
//  - counters: numeric time series ("cpu.cores in_use") rendered as stacked
//    charts by chrome://tracing / Perfetto;
//  - instants: zero-duration markers ("fault pcie_degrade begin", "breaker
//    open") that line state transitions up against the per-request spans.
//
// Counter track names are interned: a sample stores a 32-bit TrackId, not
// a copy of its name, so a device counter costs 24 bytes per sample. Hot
// producers (hw::attach_tracer) intern once and record by id; the by-name
// overload interns on every call. Ids stay valid across clear().
//
// Memory is bounded: past `max_events` (spans + counters + instants
// combined) new events are dropped and counted in `dropped_events()`, so a
// long recorded run cannot grow the trace without bound. The drop decision
// depends only on the event sequence, which is deterministic in virtual
// time — same-seed runs drop the same events.
//
// Load the emitted JSON in chrome://tracing (or ui.perfetto.dev) to see the
// serving pipeline's device occupancy over virtual time.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/time.h"

namespace serve::sim {

/// Ordered key/value annotations attached to a span or instant; exported as
/// the Chrome trace event's "args" object (all values as JSON strings).
using SpanArgs = std::vector<std::pair<std::string, std::string>>;

/// Interned counter track name (see TraceRecorder::intern).
enum class TrackId : std::uint32_t {};

class TraceRecorder {
 public:
  /// Default event cap: ~a few hundred MB of JSON worst case, far above any
  /// bench harness, but a hard stop for runaway recorded runs.
  static constexpr std::size_t kDefaultMaxEvents = 4'000'000;

  /// Records a completed span [begin, end] on `track`.
  void span(std::string track, std::string name, Time begin, Time end);
  void span(std::string track, std::string name, Time begin, Time end, SpanArgs args);

  /// Returns the id naming counter track `track`, adding it on first use.
  [[nodiscard]] TrackId intern(std::string track);

  /// Records a counter sample (step function between samples).
  void counter(TrackId track, double value, Time t);
  void counter(std::string track, double value, Time t) {
    counter(intern(std::move(track)), value, t);
  }

  /// Records an instantaneous marker at time `t` on `track`.
  void instant(std::string track, std::string name, Time t);
  void instant(std::string track, std::string name, Time t, SpanArgs args);

  [[nodiscard]] std::size_t span_count() const noexcept { return spans_.size(); }
  [[nodiscard]] std::size_t counter_count() const noexcept { return counters_.size(); }
  [[nodiscard]] std::size_t instant_count() const noexcept { return instants_.size(); }
  [[nodiscard]] bool empty() const noexcept {
    return spans_.empty() && counters_.empty() && instants_.empty();
  }

  /// Caps spans + counters + instants combined; events past the cap are
  /// dropped (and counted). Lowering the cap below the current event count
  /// keeps what is already recorded.
  void set_max_events(std::size_t cap) noexcept { max_events_ = cap; }
  [[nodiscard]] std::size_t max_events() const noexcept { return max_events_; }
  [[nodiscard]] std::uint64_t dropped_events() const noexcept { return dropped_; }
  [[nodiscard]] std::size_t event_count() const noexcept {
    return spans_.size() + counters_.size() + instants_.size();
  }

  /// Drops every recorded event; interned track ids stay valid.
  void clear() noexcept {
    spans_.clear();
    counters_.clear();
    instants_.clear();
    dropped_ = 0;
  }

  /// Chrome trace-event JSON ("traceEvents" array form). Tracks become
  /// thread names; spans are "X" events, counters "C" events. Timestamps are
  /// microseconds printed with round-trip precision, so virtual-time ns
  /// survive export exactly and same-seed runs emit byte-identical files.
  void write_chrome_json(std::ostream& os) const;

 private:
  struct Span {
    std::string track;
    std::string name;
    Time begin;
    Time end;
    SpanArgs args;
  };
  struct CounterSample {
    TrackId track;
    double value;
    Time t;
  };
  struct Instant {
    std::string track;
    std::string name;
    Time t;
    SpanArgs args;
  };

  [[nodiscard]] bool admit() noexcept {
    if (event_count() >= max_events_) {
      ++dropped_;
      return false;
    }
    return true;
  }

  std::size_t max_events_ = kDefaultMaxEvents;
  std::uint64_t dropped_ = 0;
  std::vector<Span> spans_;
  std::vector<CounterSample> counters_;
  std::vector<Instant> instants_;
  std::vector<std::string> track_names_;  ///< indexed by TrackId
  std::unordered_map<std::string, TrackId> track_ids_;
};

}  // namespace serve::sim
