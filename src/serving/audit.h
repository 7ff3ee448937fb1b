// Request-lifecycle auditor.
//
// The paper's contribution is an accounting exercise: every millisecond of a
// request must be attributed to exactly one lifecycle stage (ingest, queue,
// preprocess, transfer, inference, postprocess) so that the Fig. 6/7
// breakdowns are trustworthy. This class enforces that promise at runtime:
//
//  1. request conservation — submitted == completed + dropped + failed,
//     every `Request::done` set exactly once, no request leaked at shutdown;
//  2. stage-time conservation — sum(stage charges) == end-to-end latency
//     within a ns-quantization tolerance, flagging the stage that drifted;
//  3. resource hygiene — staging memory, batcher queues, and channel waiter
//     lists must be empty after drain (fed by InferenceServer::shutdown);
//  4. monotonicity — arrival <= enqueue_time <= completed.
//
// The auditor also doubles as the per-request span source for
// sim::TraceRecorder: each stage charge of a *sampled* request becomes a
// named span on a "req.<id>" track, so latency breakdowns are visually
// debuggable in Perfetto (chrome://tracing); recording one allocates nothing
// (the track name is formatted on the stack). Sampling is deterministic
// (trace::TraceSampler: a hash of the request id, capped by
// Options::sampler.max_sampled), so same-seed runs trace the same requests.
// With a CausalTracer attached the same spans also carry
// trace/span/parent ids and blame annotations, the request originates (or
// adopts, for chained retries and cascade hops) a trace::SpanContext, and a
// root "request" span is recorded at completion — the input to
// `servescope traces`' critical-path extraction.
//
// Enable with ServerConfig::audit (or --audit / --trace-out in the bench
// harness). One auditor belongs to one server; when several servers share a
// platform, each audits only its own requests, but staging-memory hygiene
// is meaningful only if the sharing servers drain together.
//
// Cost: O(1) per hook and no steady-state heap allocation. In-flight state
// lives in a pooled slot table: the request carries its slot index
// (`Request::audit_slot`), a completed request's slot goes on a free list
// and is reused with its buffers' capacity intact. The id history behind
// the duplicate-submit / double-completion checks is 2 bits per id (in
// flight, done) in lazily allocated pages. Memory is therefore O(max
// in-flight) plus 2 bits per id issued.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "metrics/breakdown.h"
#include "serving/request.h"
#include "sim/time.h"
#include "sim/trace.h"
#include "trace/causal.h"
#include "trace/span_context.h"

namespace serve::serving {

class RequestAuditor final : public ChargeObserver {
 public:
  struct Options {
    /// Violations stored verbatim; the total count keeps growing past this.
    std::size_t max_recorded = 64;
    /// Which submitted requests get trace spans (bounds trace size; device
    /// counters are unaffected). Deterministic hash sampling; {.rate = 1.0}
    /// takes the first max_sampled requests.
    trace::SamplerOptions sampler{};
    /// Stamped on causal root spans and the finalize-time breakdown
    /// metadata, so one trace file can hold several experiment rows.
    std::string run_label{};
  };

  struct Violation {
    std::uint64_t request_id = 0;  ///< 0 = server-level check
    std::string check;             ///< invariant family, e.g. "stage-conservation"
    std::string detail;            ///< measured values backing the verdict
  };

  RequestAuditor() : RequestAuditor(Options{}) {}
  explicit RequestAuditor(Options opts) : opts_(std::move(opts)), sampler_(opts_.sampler) {}

  /// Streams per-request stage spans into `trace` ("req.<id>" tracks).
  /// The recorder must outlive the audited simulation activity.
  void set_trace(sim::TraceRecorder* trace) noexcept { trace_ = trace; }

  /// Attaches a causal tracer (usually shared with brokers/pipelines writing
  /// the same recorder): sampled requests then originate/adopt SpanContexts,
  /// spans carry causal ids + blame args, and completion records a root
  /// "request" span. Must outlive the audited activity.
  void set_causal_tracer(trace::CausalTracer* tracer) noexcept { causal_ = tracer; }

  // --- lifecycle hooks (called by InferenceServer) ---------------------------

  /// Registers the request, decides/adopts its sampling fate (writing the
  /// assigned SpanContext back into `req.trace_ctx`), and installs this
  /// auditor as its charge observer.
  void on_submit(Request& req);

  /// ChargeObserver: records the charged interval for conservation analysis
  /// and emits the corresponding trace span (with blame when given).
  void on_charge(const Request& req, metrics::Stage s, sim::Time end, sim::Time dt,
                 std::string_view blame) noexcept override;

  /// Verifies per-request invariants (conservation, monotonicity, single
  /// completion). Call after `req.completed` is set and `done` signalled.
  void on_complete(const Request& req);

  /// A request failed a scheduler-queue hand-off (it would have been lost
  /// silently before the drop-accounting fix). Always a violation.
  void on_lost_handoff(const Request& req, std::string_view where);

  /// Records a circuit-breaker state transition ("closed" / "open" /
  /// "half-open") as an instant marker on the "policies" trace track.
  void on_breaker_transition(std::string_view to, sim::Time t);

  // --- terminal checks -------------------------------------------------------

  /// Resource-hygiene check: `value` must be zero after drain.
  void check_zero(std::string_view what, std::uint64_t value);

  /// Request-count conservation + leak detection. Idempotent; further
  /// terminal checks are pointless after this. With a trace attached, also
  /// emits an "audit.breakdown" metadata instant (per-stage mean seconds
  /// over every terminal request) that `servescope traces` cross-checks against
  /// the aggregate critical-path attribution.
  void finalize();

  [[nodiscard]] bool finalized() const noexcept { return finalized_; }

  // --- results ---------------------------------------------------------------

  [[nodiscard]] std::uint64_t submitted() const noexcept { return submitted_; }
  [[nodiscard]] std::uint64_t completed() const noexcept { return completed_; }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  [[nodiscard]] std::uint64_t in_flight() const noexcept { return live_; }
  /// Slots ever allocated: the peak number of requests simultaneously in
  /// flight, since a slot is only added when every existing one is live.
  [[nodiscard]] std::size_t slot_count() const noexcept { return slots_.size(); }

  [[nodiscard]] bool clean() const noexcept { return violation_count_ == 0; }
  [[nodiscard]] std::uint64_t violation_count() const noexcept { return violation_count_; }
  [[nodiscard]] const std::vector<Violation>& violations() const noexcept { return violations_; }

  /// Per-stage aggregation over every terminal request (completed, failed,
  /// dropped) across the whole run — the reference the causal traces'
  /// critical-path shares are validated against.
  [[nodiscard]] const metrics::Breakdown& breakdown() const noexcept { return breakdown_; }

  /// Mutable sampler access for triggered capture: the alert engine flips
  /// the sampler into full-sampling while an alert is firing so the
  /// anomalous interval is captured wholesale.
  [[nodiscard]] trace::TraceSampler& sampler() noexcept { return sampler_; }

  /// Formatted violation lines ("check (request N): detail"), capped at
  /// Options::max_recorded with a trailing "... and N more" marker.
  [[nodiscard]] std::vector<std::string> report() const;

 private:
  struct Charge {
    metrics::Stage stage;
    sim::Time begin;
    sim::Time end;
  };
  /// Charges one request on the default GPU route records from submit to
  /// completion: 12, measured in the audited server simulation.
  static constexpr std::uint32_t kInlineCharges = 12;
  /// Audit state of one in-flight request. `owner == nullptr` marks a free
  /// slot; `owner` is compared, never dereferenced, so a request destroyed
  /// while in flight is still reported as leaked.
  struct Slot {
    const Request* owner = nullptr;
    std::uint64_t id = 0;
    sim::Time arrival = 0;
    bool traced = false;
    trace::SpanContext ctx{};  ///< causal identity (zero without a tracer)
    /// Gap-analysis log: the first kInlineCharges charges live in the slot
    /// itself, so a new slot allocates nothing; later ones spill into
    /// `spilled`, which keeps its capacity when the slot is reused.
    std::array<Charge, kInlineCharges> charges{};
    std::vector<Charge> spilled;
    std::uint32_t charge_count = 0;
    std::uint32_t next_free = kNoAuditSlot;
  };

  /// Two bits per request id, in pages allocated on first touch.
  class IdHistory {
   public:
    static constexpr std::uint8_t kInFlight = 1;
    static constexpr std::uint8_t kDone = 2;

    [[nodiscard]] std::uint8_t get(std::uint64_t id) const noexcept;
    void set(std::uint64_t id, std::uint8_t bits);

   private:
    static constexpr unsigned kPageIdBits = 15;  ///< 32768 ids = 8 KiB per page
    static constexpr std::uint64_t kPageMask = (std::uint64_t{1} << kPageIdBits) - 1;
    using Page = std::array<std::uint64_t, (std::size_t{1} << kPageIdBits) / 32>;
    std::unordered_map<std::uint64_t, Page> pages_;
  };

  /// The live slot `req` owns in this auditor, or nullptr when it has none
  /// (never submitted here, already completed, or the slot was reused).
  [[nodiscard]] Slot* live_slot(const Request& req) noexcept;
  [[nodiscard]] std::uint32_t acquire_slot();
  void release_slot(std::uint32_t index) noexcept;

  void add_violation(std::uint64_t id, std::string check, std::string detail);
  void check_request(const Request& req, const Slot& slot);

  /// Names the stage most likely responsible for a conservation mismatch:
  /// leaked time (sum < latency) points at the charge following the largest
  /// uncovered gap; double-charged time points at the largest overlap. The
  /// label is diagnostic only — the mismatch itself is computed exactly.
  [[nodiscard]] static std::string drift_label(const Request& req, const Slot& slot,
                                               double delta_s);

  Options opts_;
  sim::TraceRecorder* trace_ = nullptr;
  trace::CausalTracer* causal_ = nullptr;
  trace::TraceSampler sampler_{};
  metrics::Breakdown breakdown_{};
  sim::Time last_terminal_ = 0;  ///< timestamp for the finalize metadata event
  std::uint64_t submitted_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t failed_ = 0;
  bool finalized_ = false;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoAuditSlot;
  std::uint64_t live_ = 0;
  IdHistory history_;
  std::vector<Violation> violations_;
  std::uint64_t violation_count_ = 0;
};

}  // namespace serve::serving
