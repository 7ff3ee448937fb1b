// Inference request lifecycle object.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>

#include "hw/gpu_memory.h"
#include "hw/image_spec.h"
#include "metrics/breakdown.h"
#include "serving/ingress.h"
#include "sim/pool.h"
#include "sim/sync.h"
#include "sim/time.h"
#include "trace/span_context.h"

namespace serve::serving {

struct Request;

/// `Request::audit_slot` value of a request no auditor has registered.
inline constexpr std::uint32_t kNoAuditSlot = UINT32_MAX;

/// Why a request finished with `failed = true`.
enum class FailReason : std::uint8_t {
  kNone,           ///< not failed
  kGpuFault,       ///< batch was on a GPU that entered a failure window
  kCorruptPayload, ///< payload failed codec validation at ingest
  kBreakerOpen,    ///< fast-failed by the ingest circuit breaker
  kBrokerPublish,  ///< result publication gave up (no failover configured)
  kShutdown,       ///< submitted after the server stopped accepting
};

[[nodiscard]] constexpr std::string_view fail_reason_name(FailReason r) noexcept {
  switch (r) {
    case FailReason::kNone: return "none";
    case FailReason::kGpuFault: return "gpu-fault";
    case FailReason::kCorruptPayload: return "corrupt-payload";
    case FailReason::kBreakerOpen: return "breaker-open";
    case FailReason::kBrokerPublish: return "broker-publish";
    case FailReason::kShutdown: return "shutdown";
  }
  return "?";
}

/// Hook invoked on every stage charge (request auditing / per-request
/// tracing). `end` is the virtual time the charge was recorded at and `dt`
/// the charged duration, so the charged interval is [end - dt, end].
/// `blame` names what a *wait* charge was waiting on (batch formation, an
/// eviction reload, a fault hold, the open breaker); empty for work charges.
class ChargeObserver {
 public:
  virtual void on_charge(const Request& req, metrics::Stage s, sim::Time end, sim::Time dt,
                         std::string_view blame) noexcept = 0;

 protected:
  ~ChargeObserver() = default;
};

/// One in-flight inference request. Created by a client, threaded through
/// the serving pipeline, completed exactly once. Stage durations accumulate
/// into `stages` as the request moves through the system.
struct Request {
  Request(sim::Simulator& sim_, std::uint64_t id_, hw::ImageSpec image_)
      : sim(&sim_), id(id_), image(image_), arrival(sim_.now()), done(sim_) {}

  sim::Simulator* sim;  ///< owning simulator (timestamps for charge hooks)
  std::uint64_t id;
  hw::ImageSpec image;
  /// Stable hash of the payload bytes (workload::CorpusEntry::content_hash).
  /// Zero means "unique payload": the ingress cache never matches it.
  std::uint64_t content_hash = 0;
  /// Which ingress-cache level satisfied this request (kNone = miss/bypass).
  CacheLevel cache_hit = CacheLevel::kNone;
  /// Slot index of the auditor tracking this request (see RequestAuditor).
  /// Declared here to fill padding, so the field does not grow Request.
  std::uint32_t audit_slot = kNoAuditSlot;
  sim::Time arrival;
  sim::Time completed = -1;
  metrics::StageTimes stages{};
  hw::GpuMemoryStager::Handle staged = 0;  ///< staging handle, 0 = none
  std::size_t gpu_index = 0;               ///< accelerator this request runs on
  sim::Time enqueue_time = 0;              ///< last scheduler-queue entry time
  bool dropped = false;                    ///< shed by admission control
  bool breaker_trial = false;              ///< holds a half-open breaker trial slot
  /// Cooperative cancellation (set by the fleet balancer when a hedged
  /// sibling already won, or when the request's node crashed). Schedulers
  /// drop the request at the next dispatch point instead of spending GPU
  /// time on it; if it is already past dispatch it completes normally as
  /// wasted work. `cancel_reason` must point at a static string — it blames
  /// the drop's residual queue charge.
  bool cancel_requested = false;
  std::string_view cancel_reason = "cancelled";
  bool failed = false;                     ///< completed exceptionally (fault path)
  FailReason fail_reason = FailReason::kNone;
  int attempt = 1;                         ///< 1-based client retry attempt
  ChargeObserver* observer = nullptr;      ///< optional audit/trace hook
  /// Causal trace identity. Zero (no trace) unless the auditor originates a
  /// trace at submit, or the client pre-fills it to chain a retry attempt
  /// into the previous attempt's trace.
  trace::SpanContext trace_ctx{};
  sim::Event done;                         ///< set exactly once at completion

  /// Adds `dt` (virtual ns) to a lifecycle stage. `blame` annotates wait
  /// charges with their cause (see ChargeObserver).
  void charge(metrics::Stage s, sim::Time dt, std::string_view blame = {}) noexcept {
    stages[s] += sim::to_seconds(dt);
    if (observer != nullptr) observer->on_charge(*this, s, sim->now(), dt, blame);
  }

  [[nodiscard]] sim::Time latency() const noexcept { return completed - arrival; }
};

using RequestPtr = std::shared_ptr<Request>;

/// A fresh request in one block from the simulator frame pool (object and
/// shared_ptr control block together), recycled when its last owner lets go.
[[nodiscard]] inline RequestPtr make_request(sim::Simulator& sim, std::uint64_t id,
                                             hw::ImageSpec image) {
  return std::allocate_shared<Request>(sim::PoolAllocator<Request>{}, sim, id, image);
}

}  // namespace serve::serving
