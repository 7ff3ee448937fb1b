#include "serving/audit.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "metrics/export.h"

namespace serve::serving {

namespace {

constexpr std::uint32_t kMaxChargesTracked = 256;  ///< per-request gap-analysis cap
/// Absolute slack between sum(stage times) and end-to-end latency; a 1e-9
/// relative term is added on top (covers ns quantization and floating-point
/// accumulation across ~10 charges).
constexpr double kToleranceS = 1e-9;

std::string format_time(sim::Time t) {
  std::ostringstream os;
  os << sim::to_seconds(t) << "s";
  return os.str();
}

}  // namespace

std::uint8_t RequestAuditor::IdHistory::get(std::uint64_t id) const noexcept {
  const auto it = pages_.find(id >> kPageIdBits);
  if (it == pages_.end()) return 0;
  const std::uint64_t i = id & kPageMask;
  return static_cast<std::uint8_t>((it->second[i / 32] >> (2 * (i % 32))) & 3u);
}

void RequestAuditor::IdHistory::set(std::uint64_t id, std::uint8_t bits) {
  Page& page = pages_.try_emplace(id >> kPageIdBits).first->second;  // zeroed on creation
  const std::uint64_t i = id & kPageMask;
  const auto shift = static_cast<unsigned>(2 * (i % 32));
  std::uint64_t& word = page[i / 32];
  word = (word & ~(std::uint64_t{3} << shift)) | (std::uint64_t{bits} << shift);
}

RequestAuditor::Slot* RequestAuditor::live_slot(const Request& req) noexcept {
  if (req.audit_slot >= slots_.size()) return nullptr;
  Slot& slot = slots_[req.audit_slot];
  return slot.owner == &req && slot.id == req.id ? &slot : nullptr;
}

std::uint32_t RequestAuditor::acquire_slot() {
  ++live_;
  if (free_head_ != kNoAuditSlot) {
    const std::uint32_t index = free_head_;
    free_head_ = slots_[index].next_free;
    return index;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void RequestAuditor::release_slot(std::uint32_t index) noexcept {
  --live_;
  Slot& slot = slots_[index];
  slot.owner = nullptr;
  slot.next_free = free_head_;
  free_head_ = index;
}

void RequestAuditor::on_submit(Request& req) {
  ++submitted_;
  const std::uint8_t seen = history_.get(req.id);
  if (seen != 0) {
    add_violation(req.id, "duplicate-submit",
                  "request id submitted more than once (arrival " + format_time(req.arrival) + ")");
  }
  // The same object submitted again while in flight keeps its slot, so it
  // cannot also be reported as leaked.
  const std::uint32_t index = live_slot(req) != nullptr ? req.audit_slot : acquire_slot();
  Slot& slot = slots_[index];
  slot.owner = &req;
  slot.id = req.id;
  slot.arrival = req.arrival;
  slot.ctx = {};
  slot.charge_count = 0;
  slot.spilled.clear();
  // Sampling fate: adopt the incoming context when the client pre-filled one
  // (retry chaining / cascade hops keep the original trace's decision so a
  // trace is never truncated mid-tree); otherwise the deterministic sampler
  // decides from the request id alone, independent of scheduling.
  bool sampled = false;
  if (causal_ != nullptr && req.trace_ctx.valid()) {
    sampled = req.trace_ctx.sampled;
    slot.ctx = causal_->child_of(req.trace_ctx);
  } else {
    sampled = (trace_ != nullptr || causal_ != nullptr) && sampler_.sample(req.id);
    if (causal_ != nullptr) slot.ctx = causal_->begin_trace(sampled);
  }
  if (causal_ != nullptr) req.trace_ctx = slot.ctx;  // downstream spans attach here
  slot.traced = sampled && trace_ != nullptr;
  history_.set(req.id, static_cast<std::uint8_t>(seen | IdHistory::kInFlight));
  req.audit_slot = index;
  req.observer = this;
}

void RequestAuditor::on_charge(const Request& req, metrics::Stage s, sim::Time end, sim::Time dt,
                               std::string_view blame) noexcept {
  Slot* slot = live_slot(req);
  if (slot == nullptr) {
    add_violation(req.id, "charge-after-completion",
                  std::string(metrics::stage_name(s)) + " charged at " + format_time(end) +
                      " on a request no longer in flight");
    return;
  }
  if (dt < 0) {
    add_violation(req.id, "negative-charge",
                  std::string(metrics::stage_name(s)) + " charged a negative duration at " +
                      format_time(end));
    return;
  }
  const sim::Time begin = std::max<sim::Time>(end - dt, 0);
  if (slot->charge_count < kMaxChargesTracked) {
    const Charge charge{s, begin, end};
    if (slot->charge_count < kInlineCharges) {
      slot->charges[slot->charge_count] = charge;
    } else {
      slot->spilled.push_back(charge);
    }
    ++slot->charge_count;
  }
  if (slot->traced && dt > 0) {
    const sim::TraceName track("req.", slot->id);
    const sim::TraceArg blame_arg{"blame", blame};
    const sim::TraceArgs args{&blame_arg, blame.empty() ? 0u : 1u};
    if (causal_ != nullptr) {
      causal_->child_span(slot->ctx, track, metrics::stage_name(s), begin, end, args);
    } else {
      trace_->span(track, metrics::stage_name(s), begin, end, args);
    }
  }
}

void RequestAuditor::on_complete(const Request& req) {
  Slot* slot = live_slot(req);
  if (slot == nullptr) {
    const bool done = (history_.get(req.id) & IdHistory::kDone) != 0;
    add_violation(req.id, done ? "double-completion" : "untracked-completion",
                  done ? "request completed twice (done must be set exactly once)"
                       : "completion for a request never submitted");
    return;
  }
  if (req.dropped) {
    ++dropped_;
  } else if (req.failed) {
    ++failed_;
  } else {
    ++completed_;
  }
  breakdown_.add(req.stages);
  last_terminal_ = std::max(last_terminal_, std::max(req.completed, req.arrival));
  if (slot->traced && causal_ != nullptr && req.completed >= req.arrival) {
    const sim::TraceName failed("failed-", fail_reason_name(req.fail_reason));
    sim::TraceArg args[4];
    std::size_t n = 0;
    if (!opts_.run_label.empty()) args[n++] = {"run", opts_.run_label};
    args[n++] = {"request_id", req.id};
    args[n++] = {"result", req.dropped ? "dropped" : req.failed ? std::string_view(failed) : "ok"};
    if (req.attempt > 1) args[n++] = {"attempt", static_cast<std::uint64_t>(req.attempt)};
    causal_->record(slot->ctx, sim::TraceName("req.", req.id), "request", req.arrival,
                    req.completed, {args, n});
  }
  check_request(req, *slot);
  history_.set(req.id, IdHistory::kDone);
  release_slot(req.audit_slot);
}

void RequestAuditor::on_lost_handoff(const Request& req, std::string_view where) {
  add_violation(req.id, "lost-handoff",
                "request failed the " + std::string(where) +
                    " queue hand-off and had to be drop-accounted");
}

void RequestAuditor::on_breaker_transition(std::string_view to, sim::Time t) {
  if (trace_ != nullptr) trace_->instant("policies", sim::TraceName("breaker -> ", to), t);
}

void RequestAuditor::check_request(const Request& req, const Slot& slot) {
  // (4) Monotonicity: arrival <= enqueue_time <= completed.
  if (req.completed < req.arrival) {
    add_violation(req.id, "monotonicity",
                  "completed " + format_time(req.completed) + " before arrival " +
                      format_time(req.arrival));
    return;  // latency is meaningless; skip the conservation check
  }
  if (req.enqueue_time > 0 &&
      (req.enqueue_time < req.arrival || req.enqueue_time > req.completed)) {
    add_violation(req.id, "monotonicity",
                  "enqueue_time " + format_time(req.enqueue_time) + " outside [arrival " +
                      format_time(req.arrival) + ", completed " + format_time(req.completed) + "]");
  }
  // (2) Stage-time conservation: charges must tile the request's lifetime.
  const double latency_s = sim::to_seconds(req.latency());
  const double sum_s = req.stages.total();
  const double tol = kToleranceS + 1e-9 * std::abs(latency_s);
  const double delta = latency_s - sum_s;
  if (std::abs(delta) > tol) {
    std::ostringstream os;
    os << "sum(stages) " << sum_s << "s vs latency " << latency_s << "s (delta " << delta
       << "s); " << drift_label(req, slot, delta);
    add_violation(req.id, "stage-conservation", os.str());
  }
}

std::string RequestAuditor::drift_label(const Request& req, const Slot& slot, double delta_s) {
  if (delta_s > 0) {
    // Wall-clock time nobody charged: the stage charged right after the
    // largest uncovered gap failed to account for its wait.
    if (slot.charge_count == 0) return "no stage was ever charged";
    if (slot.charge_count >= kMaxChargesTracked) {
      return "drifting stage unknown (charge log capped)";
    }
    std::vector<Charge> sorted(slot.charges.begin(),
                               slot.charges.begin() + std::min(slot.charge_count, kInlineCharges));
    sorted.insert(sorted.end(), slot.spilled.begin(), slot.spilled.end());
    std::sort(sorted.begin(), sorted.end(),
              [](const Charge& a, const Charge& b) { return a.begin < b.begin; });
    sim::Time cursor = req.arrival;
    sim::Time best_gap = 0;
    std::string_view culprit = "completion (nothing charged until done)";
    for (const Charge& c : sorted) {
      if (c.begin > cursor) {
        const sim::Time gap = c.begin - cursor;
        if (gap > best_gap) {
          best_gap = gap;
          culprit = metrics::stage_name(c.stage);
        }
      }
      cursor = std::max(cursor, c.end);
    }
    if (req.completed > cursor && req.completed - cursor > best_gap) {
      best_gap = req.completed - cursor;
      culprit = "completion (nothing charged until done)";
    }
    return "largest uncovered gap " + std::to_string(sim::to_seconds(best_gap)) +
           "s precedes stage '" + std::string(culprit) + "'";
  }
  // Over-accounting: some stage charged time twice. Attribute by the
  // accumulated per-stage durations (not the recorded intervals, which are
  // clamped to the sim timeline and capped) — a hint, not proof: sequential
  // waits charged at the same instant legitimately overlap.
  std::size_t max_i = 0;
  for (std::size_t i = 1; i < metrics::kStageCount; ++i) {
    if (req.stages[static_cast<metrics::Stage>(i)] >
        req.stages[static_cast<metrics::Stage>(max_i)]) {
      max_i = i;
    }
  }
  return "over-charged; largest contributor is stage '" +
         std::string(metrics::stage_name(static_cast<metrics::Stage>(max_i))) + "'";
}

void RequestAuditor::check_zero(std::string_view what, std::uint64_t value) {
  if (value != 0) {
    add_violation(0, "resource-hygiene",
                  std::string(what) + " = " + std::to_string(value) + " after drain (expected 0)");
  }
}

void RequestAuditor::finalize() {
  if (finalized_) return;
  finalized_ = true;
  for (const Slot& slot : slots_) {
    if (slot.owner == nullptr) continue;
    add_violation(slot.id, "leaked-request",
                  "submitted at " + format_time(slot.arrival) + " but never completed or dropped");
  }
  if (submitted_ != completed_ + dropped_ + failed_) {
    add_violation(0, "request-conservation",
                  "submitted " + std::to_string(submitted_) + " != completed " +
                      std::to_string(completed_) + " + dropped " + std::to_string(dropped_) +
                      " + failed " + std::to_string(failed_) + " (leaked " +
                      std::to_string(live_) + ")");
  }
  // Publish the full-population per-stage means into the trace itself, so
  // `servescope traces` can cross-check the sampled critical paths against
  // the exhaustive auditor accounting without a side channel.
  if (trace_ != nullptr && breakdown_.count() > 0) {
    sim::TraceName keys[metrics::kStageCount];
    std::string means[1 + metrics::kStageCount] = {metrics::format_double(breakdown_.mean_total())};
    sim::TraceArg args[3 + metrics::kStageCount];
    std::size_t n = 0;
    if (!opts_.run_label.empty()) args[n++] = {"run", opts_.run_label};
    args[n++] = {"count", breakdown_.count()};
    args[n++] = {"mean_total_s", means[0]};
    for (std::size_t i = 0; i < metrics::kStageCount; ++i) {
      const auto s = static_cast<metrics::Stage>(i);
      keys[i] = sim::TraceName("stage_", metrics::stage_name(s));
      means[i + 1] = metrics::format_double(breakdown_.mean(s));
      args[n++] = {keys[i], means[i + 1]};
    }
    trace_->instant("meta", "audit.breakdown", last_terminal_, {args, n});
  }
}

void RequestAuditor::add_violation(std::uint64_t id, std::string check, std::string detail) {
  ++violation_count_;
  if (violations_.size() < opts_.max_recorded) {
    violations_.push_back(Violation{id, std::move(check), std::move(detail)});
  }
}

std::vector<std::string> RequestAuditor::report() const {
  std::vector<std::string> lines;
  lines.reserve(violations_.size() + 1);
  for (const Violation& v : violations_) {
    std::string line = v.check;
    if (v.request_id != 0) line += " (request " + std::to_string(v.request_id) + ")";
    line += ": " + v.detail;
    lines.push_back(std::move(line));
  }
  if (violation_count_ > violations_.size()) {
    lines.push_back("... and " + std::to_string(violation_count_ - violations_.size()) +
                    " more violation(s)");
  }
  return lines;
}

}  // namespace serve::serving
