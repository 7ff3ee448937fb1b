// Virtual-time trace recording with Chrome trace-event export.
//
// Records three kinds of events, one call each:
//  - span(): named intervals on a named track ("gpu0.compute: batch x64"),
//    optionally carrying args (trace/span ids, blame annotations);
//  - counter(): numeric time series ("cpu.cores in_use") on a track
//    interned once, rendered as stacked charts by chrome://tracing;
//  - instant(): zero-duration markers ("fault pcie_degrade begin", "breaker
//    open") that line state transitions up against the per-request spans.
// Tracks, names and args are views read during the call, so recording
// allocates nothing beyond the store: an arg value is an integer (stored as
// its decimal digits) or a string_view, and a numbered track ("req.42") is
// formatted on the caller's stack by TraceName.
//
// Storage is compact. Every track name, span/instant name and arg key is
// interned once; an event is a few varints in an append-only byte stream
// (one per event kind) that grows in fixed 64 KiB chunks, so recorded bytes
// never move and growth never copies. A counter sample is a varint TrackId,
// a zigzag-varint time delta against the previous sample, and the value:
// an exact non-negative integer k (every occupancy sample) as varint(2k),
// anything else as a tag byte plus its 8 IEEE bytes. A device-occupancy
// sample takes about 5 bytes. Spans and instants store ids, time deltas and
// their arg values. write_chrome_json decodes in recording order, so the
// export is exactly what storing every event verbatim would produce.
// memory_bytes() reports what the store holds. Ids stay valid across clear().
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

#include <array>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <deque>
#include <initializer_list>
#include <iosfwd>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <variant>
#include <vector>

#include "sim/time.h"

namespace serve::sim {

/// One key/value annotation on a span or instant, exported in the Chrome
/// trace event's "args" object as a JSON string (integers in decimal).
struct TraceArg {
  std::string_view key;
  std::variant<std::uint64_t, std::string_view> value;
};

/// A non-owning list of TraceArgs: a braced list at the call site
/// (`{{"blame", why}, {"face", i}}`) or `{array, count}`; only a parameter.
class TraceArgs : public std::span<const TraceArg> {
 public:
  using std::span<const TraceArg>::span;
  TraceArgs(std::initializer_list<TraceArg> args) noexcept : span(args.begin(), args.size()) {}
};

/// A track or event name joined from string pieces and unsigned integers
/// ("req." + 42 -> "req.42") in a buffer on the caller's stack, so naming a
/// per-request track allocates nothing. Throws std::length_error past kCapacity.
class TraceName {
 public:
  static constexpr std::size_t kCapacity = 96;

  template <typename... Parts>
  explicit TraceName(const Parts&... parts) { (append(parts), ...); }
  operator std::string_view() const noexcept { return {buf_.data(), size_}; }

 private:
  void append(std::string_view piece) {
    if (piece.size() > kCapacity - size_) throw std::length_error("TraceName: name too long");
    size_ += piece.copy(buf_.data() + size_, piece.size());
  }
  void append(std::uint64_t n) {
    const auto res = std::to_chars(buf_.data() + size_, buf_.data() + kCapacity, n);
    if (res.ec != std::errc()) throw std::length_error("TraceName: name too long");
    size_ = static_cast<std::size_t>(res.ptr - buf_.data());
  }

  std::array<char, kCapacity> buf_{};
  std::size_t size_ = 0;
};

/// Interned counter track name (see TraceRecorder::intern).
enum class TrackId : std::uint32_t {};

class TraceRecorder {
 public:
  TraceRecorder() = default;
  /// Not copyable or movable: the intern table keys view its own strings.
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Default event cap, far above any bench harness but a hard stop for
  /// runaway recorded runs: 4M device-counter samples hold about 20 MiB in
  /// the store and export to a few hundred MB of JSON.
  static constexpr std::size_t kDefaultMaxEvents = 4'000'000;
  /// Size of one storage chunk (see ChunkStream).
  static constexpr std::size_t kChunkBytes = 64 * 1024;

  /// Records a completed span [begin, end] on `track`.
  void span(std::string_view track, std::string_view name, Time begin, Time end,
            TraceArgs args = {}) {
    if (end < begin) throw std::invalid_argument("TraceRecorder::span: end before begin");
    if (admit()) record_event(spans_, track, name, begin, end, args);
  }

  /// Returns the id naming counter track `track`, adding it on first use.
  [[nodiscard]] TrackId intern(std::string_view track) {
    return static_cast<TrackId>(intern_id(track));
  }

  /// Records a counter sample (step function between samples).
  void counter(TrackId track, double value, Time t);
  /// Integer sample (an occupancy count): the same bytes as the double
  /// overload given `static_cast<double>(value)`, without the conversion.
  void counter(TrackId track, std::uint64_t value, Time t);

  /// Records an instantaneous marker at time `t` on `track`.
  void instant(std::string_view track, std::string_view name, Time t, TraceArgs args = {}) {
    if (admit()) record_event(instants_, track, name, t, std::nullopt, args);
  }

  [[nodiscard]] std::size_t span_count() const noexcept { return spans_.count; }
  [[nodiscard]] std::size_t counter_count() const noexcept { return counters_.count; }
  [[nodiscard]] std::size_t instant_count() const noexcept { return instants_.count; }
  [[nodiscard]] bool empty() const noexcept { return event_count() == 0; }

  /// Caps spans + counters + instants combined; events past the cap are
  /// dropped (and counted). Lowering the cap below the current event count
  /// keeps what is already recorded.
  void set_max_events(std::size_t cap) noexcept { max_events_ = cap; }
  [[nodiscard]] std::size_t max_events() const noexcept { return max_events_; }
  [[nodiscard]] std::uint64_t dropped_events() const noexcept { return dropped_; }
  [[nodiscard]] std::size_t event_count() const noexcept {
    return spans_.count + counters_.count + instants_.count;
  }

  /// Bytes the recorder holds: its storage chunks plus the intern table.
  [[nodiscard]] std::size_t memory_bytes() const noexcept;

  /// Drops every recorded event and frees the chunks; interned track ids
  /// stay valid.
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
  /// One event kind's append-only byte stream, in fixed kChunkBytes chunks.
  /// Records may straddle a chunk boundary; `last` is the time base the
  /// next record's zigzag delta is taken against.
  struct ChunkStream {
    std::vector<std::unique_ptr<std::uint8_t[]>> chunks;
    std::uint8_t* cur = nullptr;  ///< next free byte of the last chunk
    std::uint8_t* end = nullptr;  ///< end of the last chunk
    std::size_t count = 0;        ///< records appended
    Time last = 0;

    /// Appends `n` > 0 bytes.
    void append(const std::uint8_t* p, std::size_t n) {
      if (n <= static_cast<std::size_t>(end - cur)) {
        std::memcpy(cur, p, n);
        cur += n;
      } else {
        append_across_chunks(p, n);
      }
    }
    void append_across_chunks(const std::uint8_t* p, std::size_t n);
    void clear() noexcept;
  };

  [[nodiscard]] bool admit() noexcept {
    if (event_count() >= max_events_) {
      ++dropped_;
      return false;
    }
    return true;
  }

  /// Id of `s` in the intern table, adding it on first use.
  std::uint32_t intern_id(std::string_view s);
  /// Appends a span record (with `end`) or an instant record (without).
  void record_event(ChunkStream& stream, std::string_view track, std::string_view name,
                    Time t, std::optional<Time> end, TraceArgs args);

  std::size_t max_events_ = kDefaultMaxEvents;
  std::uint64_t dropped_ = 0;
  ChunkStream spans_;
  ChunkStream counters_;
  ChunkStream instants_;
  /// Interned strings (tracks, names, arg keys), indexed by id; a deque so
  /// the views keying `ids_` stay valid as it grows.
  std::deque<std::string> strings_;
  std::unordered_map<std::string_view, std::uint32_t> ids_;
};

}  // namespace serve::sim
