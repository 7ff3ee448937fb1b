// Causal span recording on top of sim::TraceRecorder.
//
// CausalTracer allocates trace/span ids (plain counters — deterministic
// because everything that calls it runs in deterministic virtual time) and
// records spans carrying their causal identity as Chrome trace args
// ("trace_id" / "span_id" / "parent_span_id", plus optional blame
// annotations). The flat track/name layout Perfetto renders is unchanged;
// the args are what `servescope traces` uses to rebuild the trees.
//
// One CausalTracer is shared by every component writing into the same
// TraceRecorder (auditor, brokers, pipelines, multiple experiment rows), so
// trace ids are unique across the whole file even when request ids restart
// per row.
#pragma once

#include <cstdint>
#include <string>

#include "sim/time.h"
#include "sim/trace.h"
#include "trace/span_context.h"

namespace serve::trace {

class CausalTracer {
 public:
  CausalTracer() = default;
  explicit CausalTracer(sim::TraceRecorder* recorder) : rec_(recorder) {}

  void set_recorder(sim::TraceRecorder* recorder) noexcept { rec_ = recorder; }
  [[nodiscard]] sim::TraceRecorder* recorder() const noexcept { return rec_; }

  /// Originates a new trace; the returned context is its root.
  [[nodiscard]] SpanContext begin_trace(bool sampled) noexcept {
    return SpanContext{next_trace_id_++, next_span_id_++, 0, sampled};
  }

  /// Allocates a child context (same trace, parent = `parent.span_id`).
  /// Useful when the child span's end is not known yet (e.g. a broker
  /// delivery recorded at consume time against a context allocated at
  /// publish time).
  [[nodiscard]] SpanContext child_of(const SpanContext& parent) noexcept {
    return SpanContext{parent.trace_id, next_span_id_++, parent.span_id, parent.sampled};
  }

  /// Records a completed span for an already-allocated context. No-op when
  /// the context is unsampled or no recorder is attached.
  void record(const SpanContext& ctx, std::string track, std::string name, sim::Time begin,
              sim::Time end, sim::SpanArgs args = {});

  /// Allocates a child of `parent` and records it in one step; returns the
  /// child's context (ids are allocated even when unsampled, keeping id
  /// assignment independent of the sampling decision).
  SpanContext child_span(const SpanContext& parent, std::string track, std::string name,
                         sim::Time begin, sim::Time end, sim::SpanArgs args = {});

  [[nodiscard]] std::uint64_t traces_started() const noexcept { return next_trace_id_ - 1; }
  [[nodiscard]] std::uint64_t spans_recorded() const noexcept { return spans_recorded_; }

 private:
  sim::TraceRecorder* rec_ = nullptr;
  std::uint64_t next_trace_id_ = 1;
  std::uint64_t next_span_id_ = 1;
  std::uint64_t spans_recorded_ = 0;
};

}  // namespace serve::trace
