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

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string_view>

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

  static constexpr std::size_t kMaxArgs = 8;  ///< caller args next to the causal ids

  /// Records a completed span for an already-allocated context, its ids ahead
  /// of `args`. No-op (nothing formatted) when the context is unsampled or no
  /// recorder is attached; throws std::length_error past kMaxArgs args.
  void record(const SpanContext& ctx, std::string_view track, std::string_view name,
              sim::Time begin, sim::Time end, sim::TraceArgs args = {}) {
    if (rec_ == nullptr || !ctx.sampled || !ctx.valid()) return;
    if (args.size() > kMaxArgs) throw std::length_error("CausalTracer::record: too many args");
    std::array<sim::TraceArg, 3 + kMaxArgs> full{{{"trace_id", ctx.trace_id},
                                                  {"span_id", ctx.span_id},
                                                  {"parent_span_id", ctx.parent_span_id}}};
    const std::size_t ids = ctx.parent_span_id != 0 ? 3 : 2;  // a root has no parent id
    std::copy(args.begin(), args.end(), full.data() + ids);
    rec_->span(track, name, begin, end, {full.data(), ids + args.size()});
  }

  /// Allocates a child of `parent` and records it in one step; returns the
  /// child's context (ids are allocated even when unsampled, keeping id
  /// assignment independent of the sampling decision).
  SpanContext child_span(const SpanContext& parent, std::string_view track,
                         std::string_view name, sim::Time begin, sim::Time end,
                         sim::TraceArgs args = {}) {
    const SpanContext ctx = child_of(parent);
    record(ctx, track, name, begin, end, args);
    return ctx;
  }

 private:
  sim::TraceRecorder* rec_ = nullptr;
  std::uint64_t next_trace_id_ = 1;
  std::uint64_t next_span_id_ = 1;
};

}  // namespace serve::trace
