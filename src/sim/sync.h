// Coordination primitives for simulation processes: broadcast Event and
// WaitGroup (structured completion of process fleets). Waiters are linked
// in place through their awaiters (sim/waiter_list.h).
#pragma once

#include <coroutine>
#include <cstdint>
#include <stdexcept>

#include "sim/simulator.h"
#include "sim/time.h"
#include "sim/waiter_list.h"

namespace serve::sim {

/// Manual-reset broadcast event. `co_await ev.wait()` suspends until set();
/// set() wakes every waiter (through the event queue).
class Event {
 public:
  explicit Event(Simulator& sim) : sim_(sim) {}
  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  [[nodiscard]] bool is_set() const noexcept { return set_; }

  void set() {
    if (set_) return;
    set_ = true;
    while (!waiters_.empty()) sim_.post([h = waiters_.pop_front()->handle] { h.resume(); });
    while (!timed_waiters_.empty()) {
      TimedAwaiter* w = timed_waiters_.pop_front();
      sim_.cancel_timeout(w->timer);
      w->done = true;
      w->result = true;
      sim_.post([h = w->handle] { h.resume(); });
    }
  }

  void reset() noexcept { set_ = false; }

  struct Awaiter {
    Event& ev;
    std::coroutine_handle<> handle{};
    Awaiter* prev = nullptr;  ///< WaiterList links
    Awaiter* next = nullptr;

    bool await_ready() const noexcept { return ev.set_; }
    void await_suspend(std::coroutine_handle<> h) noexcept {
      handle = h;
      ev.waiters_.push_back(this);
    }
    void await_resume() const noexcept {}
  };
  [[nodiscard]] Awaiter wait() noexcept { return Awaiter{*this}; }

  /// Timed wait: resumes with true when set() fires, false at `deadline` if
  /// it never did — the primitive client-side request timeouts are built on.
  struct TimedAwaiter {
    Event& ev;
    Time deadline;
    bool result = false;
    bool done = false;  ///< set or timeout already decided
    std::coroutine_handle<> handle{};
    // Cancelable deadline timer (simulator-owned cell, no allocation).
    // set() cancels it when delivering, so the fire callback only ever runs
    // while the awaiter is still suspended and registered here.
    Simulator::TimerToken timer{};
    TimedAwaiter* prev = nullptr;  ///< WaiterList links
    TimedAwaiter* next = nullptr;

    bool await_ready() {
      if (ev.set_) {
        result = true;
        done = true;
        return true;
      }
      if (deadline <= ev.sim_.now()) {
        done = true;
        return true;  // immediate timeout
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      handle = h;
      ev.timed_waiters_.push_back(this);
      timer = ev.sim_.schedule_timeout(
          deadline,
          [](void* self_v) {
            auto* self = static_cast<TimedAwaiter*>(self_v);
            self->timer = {};
            self->ev.timed_waiters_.remove(self);
            self->done = true;
            self->handle.resume();
          },
          this);
    }
    bool await_resume() const noexcept { return result; }
  };
  [[nodiscard]] TimedAwaiter wait_until(Time deadline) noexcept {
    return TimedAwaiter{*this, deadline};
  }

 private:
  Simulator& sim_;
  bool set_ = false;
  // set() wakes every untimed waiter, then every timed one, each in FIFO
  // order.
  WaiterList<Awaiter> waiters_;
  WaiterList<TimedAwaiter> timed_waiters_;
};

/// Counts outstanding work; waiters resume when the count returns to zero.
///
///   WaitGroup wg{sim};
///   wg.add(n); spawn n processes that each call wg.done();
///   co_await wg.wait();
class WaitGroup {
 public:
  explicit WaitGroup(Simulator& sim) : sim_(sim) {}
  WaitGroup(const WaitGroup&) = delete;
  WaitGroup& operator=(const WaitGroup&) = delete;

  void add(std::uint64_t n = 1) noexcept { count_ += n; }

  void done() {
    if (count_ == 0) throw std::logic_error("WaitGroup::done: counter underflow");
    if (--count_ == 0) {
      while (!waiters_.empty()) sim_.post([h = waiters_.pop_front()->handle] { h.resume(); });
    }
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }

  struct Awaiter {
    WaitGroup& wg;
    std::coroutine_handle<> handle{};
    Awaiter* prev = nullptr;  ///< WaiterList links
    Awaiter* next = nullptr;

    bool await_ready() const noexcept { return wg.count_ == 0; }
    void await_suspend(std::coroutine_handle<> h) noexcept {
      handle = h;
      wg.waiters_.push_back(this);
    }
    void await_resume() const noexcept {}
  };
  [[nodiscard]] Awaiter wait() noexcept { return Awaiter{*this}; }

 private:
  Simulator& sim_;
  std::uint64_t count_ = 0;
  WaiterList<Awaiter> waiters_;
};

}  // namespace serve::sim
