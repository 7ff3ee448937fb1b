// One health state machine for each server's ingest circuit breaker and each
// node at the fleet balancer (the paper's Fig. 1 load balancer). Pure
// bookkeeping over virtual time; callers diff state() after each call.
//
// Closed opens when the success EWMA (from 1.0) falls below trip_score once
// min_outcomes feeds are in, after probe_failures lost probes in a row, or on
// trip(). Open turns half-open when the hold expires. trial_slots half-open
// successes close it (score reset to 1.0); any failure re-opens it. Opening
// and half-opening zero the trial count, so a trial outliving its episode
// frees a slot of the next one. A feed after the hold expired can pass
// through half-open unseen by a state() diff (a failure re-opens at once);
// trips() still counts that re-open.
#pragma once

#include <cstdint>
#include <limits>

#include "sim/time.h"

namespace serve::serving {

class HealthGate {
 public:
  enum class State : std::uint8_t { kClosed, kOpen, kHalfOpen };

  struct Options {
    bool enabled = true;  ///< disabled: admits everything, ignores every feed
    double alpha = 0.2;   ///< EWMA weight of the newest outcome
    double trip_score = 0.5;
    std::uint64_t min_outcomes = 0;
    int probe_failures = std::numeric_limits<int>::max();
    sim::Time hold = 0;
    int trial_slots = 1;
  };

  explicit HealthGate(const Options& options) : opt_(options) {}

  /// Closed yes, open no, half-open while a trial slot is free. Claims no
  /// slot: callers bracket the work they send with begin/end_trial().
  [[nodiscard]] bool admits(sim::Time now) {
    if (!opt_.enabled) return true;
    advance(now);
    return state_ == State::kClosed || (state_ == State::kHalfOpen && trials_ < opt_.trial_slots);
  }
  void begin_trial() noexcept { ++trials_; }
  void end_trial() noexcept {
    if (trials_ > 0) --trials_;
  }

  void on_outcome(bool ok, sim::Time now) { feed(ok, now, /*probe=*/false); }
  void on_probe(bool ok, sim::Time now) { feed(ok, now, /*probe=*/true); }
  /// Trips on a signal only the caller sees (the server's in-flight depth).
  void trip(sim::Time now) {
    if (opt_.enabled) open(now);
  }

  [[nodiscard]] State state() const noexcept { return state_; }
  [[nodiscard]] double score() const noexcept { return score_; }
  [[nodiscard]] std::uint64_t trips() const noexcept { return trips_; }
  [[nodiscard]] std::uint64_t recoveries() const noexcept { return recoveries_; }

 private:
  void advance(sim::Time now) {
    if (state_ == State::kOpen && now >= open_until_) {
      state_ = State::kHalfOpen;
      successes_ = trials_ = 0;
    }
  }

  void feed(bool ok, sim::Time now, bool probe) {
    if (!opt_.enabled) return;
    advance(now);
    ++outcomes_;
    score_ = opt_.alpha * (ok ? 1.0 : 0.0) + (1.0 - opt_.alpha) * score_;
    if (probe) probe_losses_ = ok ? 0 : probe_losses_ + 1;
    if (state_ == State::kClosed) {
      if ((outcomes_ >= opt_.min_outcomes && score_ < opt_.trip_score) ||
          probe_losses_ >= opt_.probe_failures) {
        open(now);
      }
    } else if (state_ == State::kHalfOpen) {
      if (!ok) {
        open(now);
      } else if (++successes_ >= opt_.trial_slots) {
        state_ = State::kClosed;
        score_ = 1.0;  // stale failure history must not re-trip
        ++recoveries_;
      }
    }  // open: work admitted before the trip; only the score is fed
  }

  void open(sim::Time now) {
    state_ = State::kOpen;
    open_until_ = now + opt_.hold;
    probe_losses_ = successes_ = trials_ = 0;
    ++trips_;
  }

  Options opt_;
  State state_ = State::kClosed;
  double score_ = 1.0;
  std::uint64_t outcomes_ = 0, trips_ = 0, recoveries_ = 0;
  int probe_losses_ = 0, successes_ = 0, trials_ = 0;
  sim::Time open_until_ = 0;
};

}  // namespace serve::serving
