// Causal trace context + deterministic head-based sampling.
//
// A SpanContext identifies one node of a trace tree: which trace it belongs
// to, its own span id, and its parent's. It travels *with* the work — on
// serving::Request, inside broker message envelopes, across FileLogBroker
// records — so a face-detection -> crop -> recognition cascade is a single
// tree even though it spans two servers and a broker.
//
// Sampling is head-based and deterministic: the decision is made once when
// a trace is originated (from the request/frame id alone, never from wall
// clock or scheduling order) and then carried in the context, so every
// participant of a sampled trace records spans and same-seed runs sample
// the same traces.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace serve::trace {

struct SpanContext {
  std::uint64_t trace_id = 0;        ///< 0 = no trace attached
  std::uint64_t span_id = 0;         ///< this hop's span
  std::uint64_t parent_span_id = 0;  ///< 0 = trace root
  bool sampled = false;              ///< head-based decision, carried downstream

  [[nodiscard]] bool valid() const noexcept { return trace_id != 0; }

  friend bool operator==(const SpanContext& a, const SpanContext& b) noexcept {
    return a.trace_id == b.trace_id && a.span_id == b.span_id &&
           a.parent_span_id == b.parent_span_id && a.sampled == b.sampled;
  }
};

/// Compact single-line wire form ("svctx1;<trace>;<span>;<parent>;<s>") for
/// brokers that move raw bytes. Parsing is strict: anything malformed yields
/// std::nullopt rather than a half-filled context.
[[nodiscard]] inline std::string to_wire(const SpanContext& ctx) {
  return "svctx1;" + std::to_string(ctx.trace_id) + ";" + std::to_string(ctx.span_id) + ";" +
         std::to_string(ctx.parent_span_id) + ";" + (ctx.sampled ? "1" : "0");
}

[[nodiscard]] inline std::optional<SpanContext> from_wire(std::string_view s) {
  constexpr std::string_view kMagic = "svctx1;";
  if (s.substr(0, kMagic.size()) != kMagic) return std::nullopt;
  s.remove_prefix(kMagic.size());
  std::uint64_t fields[3] = {0, 0, 0};
  for (auto& f : fields) {
    const std::size_t semi = s.find(';');
    if (semi == std::string_view::npos || semi == 0) return std::nullopt;
    for (char c : s.substr(0, semi)) {
      if (c < '0' || c > '9') return std::nullopt;
      f = f * 10 + static_cast<std::uint64_t>(c - '0');
    }
    s.remove_prefix(semi + 1);
  }
  if (s != "0" && s != "1") return std::nullopt;
  return SpanContext{fields[0], fields[1], fields[2], s == "1"};
}

/// Frames a payload with its context for byte-oriented transports
/// (FileLogBroker records). The header is delimited by 0x1d (ASCII group
/// separator), which cannot appear in the decimal wire form, so unwrapping
/// is unambiguous; payloads without the marker pass through with an empty
/// context.
inline constexpr char kContextDelimiter = '\x1d';

[[nodiscard]] inline std::string wrap_with_context(const SpanContext& ctx,
                                                   std::string_view payload) {
  std::string out;
  out.push_back(kContextDelimiter);
  out += to_wire(ctx);
  out.push_back(kContextDelimiter);
  out.append(payload);
  return out;
}

struct Unwrapped {
  SpanContext ctx{};
  std::string_view payload;
};

[[nodiscard]] inline Unwrapped unwrap_context(std::string_view record) {
  if (record.empty() || record.front() != kContextDelimiter) return {SpanContext{}, record};
  const std::size_t close = record.find(kContextDelimiter, 1);
  if (close == std::string_view::npos) return {SpanContext{}, record};
  const auto ctx = from_wire(record.substr(1, close - 1));
  if (!ctx) return {SpanContext{}, record};
  return {*ctx, record.substr(close + 1)};
}

// --- deterministic head-based sampling ---------------------------------------

enum class SampleMode : std::uint8_t {
  kHash,  ///< sample when splitmix64(seed ^ id) < rate * 2^64 (unbiased)
};

struct SamplerOptions {
  SampleMode mode = SampleMode::kHash;  ///< the only mode
  double rate = 1.0 / 16.0;         ///< acceptance probability (1.0 takes every id)
  std::uint64_t seed = 0x5eed'7ace;  ///< hash key; same seed => same decisions
  /// Hard cap on sampled traces (bounds trace size); with rate 1.0 this
  /// takes the first max_sampled originations.
  std::uint64_t max_sampled = 256;
};

/// Decides, per originated trace, whether it is recorded. Pure function of
/// (options, id) except for the max_sampled cap, which counts acceptances
/// in origination order — itself deterministic in virtual time.
class TraceSampler {
 public:
  TraceSampler() = default;
  explicit TraceSampler(SamplerOptions opts) : opts_(opts) {}

  [[nodiscard]] bool sample(std::uint64_t id) noexcept {
    if (forced_) {
      // Triggered capture (alert window): sample everything, bypassing both
      // the rate and the head-sampling cap — an anomaly's traces must not be
      // truncated by a budget meant for steady-state sampling. Counted
      // separately so the cap still applies once the window closes.
      ++forced_taken_;
      return true;
    }
    if (taken_ >= opts_.max_sampled) return false;
    bool hit = false;
    if (opts_.rate >= 1.0) {
      hit = true;
    } else if (opts_.rate > 0.0) {
      const auto threshold =
          static_cast<std::uint64_t>(opts_.rate * 18446744073709551616.0 /* 2^64 */);
      hit = splitmix64(opts_.seed ^ id) < threshold;
    }
    if (hit) ++taken_;
    return hit;
  }

  [[nodiscard]] std::uint64_t forced_count() const noexcept { return forced_taken_; }
  [[nodiscard]] const SamplerOptions& options() const noexcept { return opts_; }

  /// Full-sampling override for triggered capture; deterministic because the
  /// alert engine flips it at exact flight-recorder ticks in virtual time.
  void set_forced(bool forced) noexcept { forced_ = forced; }
  [[nodiscard]] bool forced() const noexcept { return forced_; }

  [[nodiscard]] static std::uint64_t splitmix64(std::uint64_t x) noexcept {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

 private:
  SamplerOptions opts_{};
  std::uint64_t taken_ = 0;
  std::uint64_t forced_taken_ = 0;
  bool forced_ = false;
};

}  // namespace serve::trace
