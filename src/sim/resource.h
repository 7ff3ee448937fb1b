// Counted resource with FIFO acquisition — models CPU worker pools, GPU
// engines, PCIe links, broker I/O threads, memory capacity.
#pragma once

#include <coroutine>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

#include "sim/simulator.h"
#include "sim/time.h"
#include "sim/trace.h"
#include "sim/waiter_list.h"

namespace serve::sim {

class Resource;

/// RAII grant of resource units; releases on destruction unless released
/// explicitly or detached.
class ResourceToken {
 public:
  ResourceToken() noexcept = default;
  ResourceToken(Resource* res, std::size_t amount) noexcept : res_(res), amount_(amount) {}
  ResourceToken(const ResourceToken&) = delete;
  ResourceToken& operator=(const ResourceToken&) = delete;
  ResourceToken(ResourceToken&& other) noexcept
      : res_(std::exchange(other.res_, nullptr)), amount_(std::exchange(other.amount_, 0)) {}
  ResourceToken& operator=(ResourceToken&& other) noexcept {
    if (this != &other) {
      release();
      res_ = std::exchange(other.res_, nullptr);
      amount_ = std::exchange(other.amount_, 0);
    }
    return *this;
  }
  ~ResourceToken() { release(); }

  void release() noexcept;
  [[nodiscard]] bool holds() const noexcept { return res_ != nullptr; }
  [[nodiscard]] std::size_t amount() const noexcept { return amount_; }

 private:
  Resource* res_ = nullptr;
  std::size_t amount_ = 0;
};

/// FIFO counted semaphore with time-weighted usage and queue statistics.
///
/// Fairness: an acquire never jumps the queue — if anyone is waiting, new
/// arrivals wait behind them even when units are free. This mirrors how a
/// work queue in front of a device behaves and keeps latency analysis honest.
class Resource {
 public:
  Resource(Simulator& sim, std::size_t capacity, std::string name = {})
      : sim_(sim), name_(std::move(name)), capacity_(capacity), last_change_(sim.now()) {
    if (capacity == 0) throw std::invalid_argument("Resource: capacity must be positive");
  }
  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t in_use() const noexcept { return in_use_; }
  [[nodiscard]] std::size_t available() const noexcept { return capacity_ - in_use_; }
  [[nodiscard]] std::size_t queue_length() const noexcept { return waiters_.size(); }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  struct AcquireAwaiter {
    Resource& res;
    std::size_t amount;
    std::coroutine_handle<> handle{};
    AcquireAwaiter* prev = nullptr;  ///< WaiterList links
    AcquireAwaiter* next = nullptr;

    bool await_ready() {
      if (res.waiters_.empty() && res.in_use_ + amount <= res.capacity_) {
        res.grab(amount);
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      handle = h;
      res.touch();  // waiter count is about to change; integrate up to now
      res.waiters_.push_back(this);
    }
    ResourceToken await_resume() noexcept { return ResourceToken{&res, amount}; }
  };

  /// Awaitable acquiring `amount` units (FIFO). Resumes with a ResourceToken.
  [[nodiscard]] AcquireAwaiter acquire(std::size_t amount = 1) {
    if (amount > capacity_) {
      throw std::invalid_argument("Resource::acquire: amount exceeds capacity of '" + name_ + "'");
    }
    return AcquireAwaiter{*this, amount};
  }

  /// Non-blocking acquire; returns an empty token on failure.
  [[nodiscard]] ResourceToken try_acquire(std::size_t amount = 1) {
    if (waiters_.empty() && in_use_ + amount <= capacity_) {
      grab(amount);
      return ResourceToken{this, amount};
    }
    return {};
  }

  void release(std::size_t amount = 1) {
    if (amount > in_use_) throw std::logic_error("Resource::release: over-release of '" + name_ + "'");
    touch();
    in_use_ -= amount;
    if (trace_ != nullptr) trace_->counter(trace_track_, in_use_, sim_.now());
    grant_waiters();
  }

  /// Integral of in-use units over time, in unit-nanoseconds. Divide by
  /// (capacity * elapsed) for utilization; used by the energy model.
  [[nodiscard]] double usage_integral_ns() {
    touch();
    return usage_integral_;
  }

  /// Mean utilization in [0,1] since construction (or last reset_stats).
  [[nodiscard]] double utilization() {
    touch();
    const auto elapsed = static_cast<double>(sim_.now() - stats_start_);
    if (elapsed <= 0.0) return 0.0;
    return usage_integral_ / (elapsed * static_cast<double>(capacity_));
  }

  /// Cumulative busy integral since *construction* in unit-seconds — a
  /// monotone counter untouched by reset_stats(), so interval readers
  /// (capacity plane, flight recorder) can difference consecutive reads even
  /// when the experiment harness resets the windowed stats mid-run.
  [[nodiscard]] double busy_seconds_total() {
    touch();
    return busy_integral_ns_ * 1e-9;
  }

  /// Cumulative waiter-count integral since construction in waiter-seconds
  /// (time-weighted queue length). Differencing across an interval and
  /// dividing by its length yields the interval's *mean* queue depth — the
  /// alias-free alternative to point-sampling queue_length().
  [[nodiscard]] double queue_seconds_total() {
    touch();
    return queue_integral_ns_ * 1e-9;
  }

  void reset_stats() {
    touch();
    usage_integral_ = 0.0;
    stats_start_ = sim_.now();
  }

  /// Records the in-use count on `track` of `trace` at every occupancy
  /// change (the tracing layer's utilization counters). The recorder must
  /// outlive the resource's simulation activity.
  void set_trace(TraceRecorder& trace, TrackId track) noexcept {
    trace_ = &trace;
    trace_track_ = track;
  }

 private:
  friend struct AcquireAwaiter;

  void touch() noexcept {
    const Time now = sim_.now();
    const auto dt = static_cast<double>(now - last_change_);
    usage_integral_ += static_cast<double>(in_use_) * dt;
    busy_integral_ns_ += static_cast<double>(in_use_) * dt;
    queue_integral_ns_ += static_cast<double>(waiters_.size()) * dt;
    last_change_ = now;
  }

  void grab(std::size_t amount) {
    touch();
    in_use_ += amount;
    if (trace_ != nullptr) trace_->counter(trace_track_, in_use_, sim_.now());
  }

  void grant_waiters() {
    while (!waiters_.empty()) {
      AcquireAwaiter* w = waiters_.front();
      if (in_use_ + w->amount > capacity_) break;
      touch();  // waiter leaves the queue; integrate the old length first
      waiters_.pop_front();
      grab(w->amount);
      sim_.post([h = w->handle] { h.resume(); });
    }
  }

  Simulator& sim_;
  std::string name_;
  std::size_t capacity_;
  std::size_t in_use_ = 0;
  WaiterList<AcquireAwaiter> waiters_;  ///< FIFO, linked through the awaiters
  TraceRecorder* trace_ = nullptr;  ///< occupancy counter sink (set_trace)
  TrackId trace_track_{};
  double usage_integral_ = 0.0;
  double busy_integral_ns_ = 0.0;   ///< monotone; never reset
  double queue_integral_ns_ = 0.0;  ///< monotone; never reset
  Time last_change_;
  Time stats_start_ = 0;
};

inline void ResourceToken::release() noexcept {
  if (res_ != nullptr) {
    res_->release(amount_);
    res_ = nullptr;
    amount_ = 0;
  }
}

}  // namespace serve::sim
