// The discrete-event simulation kernel.
#pragma once

#include <coroutine>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "sim/process.h"
#include "sim/time.h"

namespace serve::sim {

/// Single-threaded deterministic discrete-event simulator.
///
/// Owns the virtual clock, the pending-event set, and every live coroutine
/// process. All wake-ups go through the event queue (never nested resumes),
/// so execution order is a pure function of (spawn order, event times) and
/// stack depth stays bounded.
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;
  ~Simulator();

  [[nodiscard]] Time now() const noexcept { return now_; }
  [[nodiscard]] std::uint64_t steps() const noexcept { return steps_; }
  [[nodiscard]] std::size_t live_processes() const noexcept { return live_count_; }
  /// Event slab cells ever created (see EventQueue::slab_cells).
  [[nodiscard]] std::size_t event_slab_cells() const noexcept { return queue_.slab_cells(); }

  // Actions are any void() callables (see EventQueue::push for where they
  // are stored).

  /// Enqueues `action` to run at the current virtual time (after already
  /// pending same-time events).
  template <typename F>
  void post(F&& action) {
    queue_.push(now_, std::forward<F>(action));
  }

  /// Enqueues `action` at absolute time `t` (must not be in the past).
  template <typename F>
  void schedule_at(Time t, F&& action) {
    if (t < now_) schedule_in_past();
    queue_.push(t, std::forward<F>(action));
  }

  /// Enqueues `action` after `delay`.
  template <typename F>
  void schedule_after(Time delay, F&& action) {
    schedule_at(now_ + delay, std::forward<F>(action));
  }

  /// Starts a coroutine process. The first step runs from the event loop at
  /// the current virtual time.
  void spawn(Process p);

  /// Awaitable that suspends the calling process for `delay` virtual time.
  struct DelayAwaiter {
    Simulator& sim;
    Time delay;
    bool await_ready() const noexcept { return delay <= 0; }
    void await_suspend(std::coroutine_handle<> h) const {
      sim.schedule_after(delay, [h] { h.resume(); });
    }
    void await_resume() const noexcept {}
  };
  [[nodiscard]] DelayAwaiter wait(Time delay) noexcept { return {*this, delay}; }

  /// Handle for a cancelable timeout (see schedule_timeout). Default state
  /// is "not armed"; cancel on an unarmed or already-fired token is a no-op.
  struct TimerToken {
    static constexpr std::uint32_t kNoTimer = 0xFFFFFFFFu;
    std::uint32_t index = kNoTimer;
    std::uint64_t gen = 0;
    [[nodiscard]] bool armed() const noexcept { return index != kNoTimer; }
  };

  /// Schedules `fire(ctx)` at `deadline` unless the token is cancelled
  /// first. The control cell lives inside the simulator (stable storage with
  /// a generation counter), so timed waits need no heap guard object: the
  /// registrant may die after cancelling, the owner may die after the timer
  /// fires, and a cancelled timer firing is a cheap no-op. `fire` must only
  /// dereference `ctx` via state that cancellation keeps in sync (the
  /// channel/event primitives cancel whenever they retire a waiter).
  TimerToken schedule_timeout(Time deadline, void (*fire)(void*), void* ctx) {
    std::uint32_t idx;
    if (!timer_free_.empty()) {
      idx = timer_free_.back();
      timer_free_.pop_back();
    } else {
      idx = static_cast<std::uint32_t>(timer_cells_.size());
      timer_cells_.emplace_back();
    }
    TimerCell& cell = timer_cells_[idx];
    cell.fire = fire;
    cell.ctx = ctx;
    const TimerToken tok{idx, cell.gen};
    schedule_at(deadline, [this, idx, gen = cell.gen] { fire_timeout(idx, gen); });
    return tok;
  }

  /// Disarms a pending timeout; no-op if it already fired or was never armed.
  void cancel_timeout(TimerToken tok) {
    if (!tok.armed() || timer_cells_[tok.index].gen != tok.gen) return;
    release_timer_cell(tok.index);
  }

  /// Runs until the event queue drains. Returns the number of events
  /// executed. Throws std::runtime_error if `max_steps` is exceeded
  /// (runaway-simulation guard).
  std::uint64_t run(std::uint64_t max_steps = kDefaultStepLimit);

  /// Runs all events with timestamp <= t, then advances the clock to t.
  std::uint64_t run_until(Time t, std::uint64_t max_steps = kDefaultStepLimit);

  static constexpr std::uint64_t kDefaultStepLimit = 2'000'000'000;

 private:
  friend void detail::retire_process(Simulator&, Process::promise_type&) noexcept;

  struct TimerCell {
    std::uint64_t gen = 0;  ///< bumped on release; stale tokens/events no-op
    void (*fire)(void*) = nullptr;
    void* ctx = nullptr;
  };

  void fire_timeout(std::uint32_t idx, std::uint64_t gen) {
    TimerCell& cell = timer_cells_[idx];
    if (cell.gen != gen) return;  // cancelled (or cell since recycled)
    void (*f)(void*) = cell.fire;
    void* c = cell.ctx;
    release_timer_cell(idx);
    f(c);
  }

  void release_timer_cell(std::uint32_t idx) {
    ++timer_cells_[idx].gen;
    timer_free_.push_back(idx);
  }

  [[noreturn]] static void schedule_in_past();

  void step();

  Time now_ = 0;
  std::uint64_t steps_ = 0;
  EventQueue queue_;
  /// Intrusive doubly-linked list of live process promises (links live in
  /// the promise itself — no per-spawn container allocation).
  Process::promise_type* live_head_ = nullptr;
  std::size_t live_count_ = 0;
  std::vector<TimerCell> timer_cells_;      ///< slab; grows to peak timed waits
  std::vector<std::uint32_t> timer_free_;   ///< recycled cell indices
};

}  // namespace serve::sim
