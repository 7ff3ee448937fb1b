// Bounded FIFO channel connecting simulation processes (requests between
// pipeline stages, broker topics, batch hand-off).
#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "sim/simulator.h"
#include "sim/time.h"
#include "sim/waiter_list.h"

namespace serve::sim {

/// Thrown when putting into a closed channel.
class ChannelClosed : public std::runtime_error {
 public:
  ChannelClosed() : std::runtime_error("channel closed") {}
};

/// Single-threaded (virtual-time) bounded channel.
///
/// - `co_await ch.put(v)` suspends while the buffer is full.
/// - `co_await ch.get()` suspends while empty; returns std::nullopt once the
///   channel is closed and drained.
/// - `co_await ch.get_until(deadline)` additionally returns std::nullopt at
///   `deadline` if nothing arrived — the primitive the dynamic batcher uses
///   for max-queue-delay.
///
/// FIFO on both sides; all wake-ups are posted through the simulator queue.
/// Buffered elements sit in a ring that keeps its peak capacity, and
/// waiters are linked through their awaiters, so steady-state traffic does
/// not allocate.
template <typename T>
class Channel {
 public:
  explicit Channel(Simulator& sim,
                   std::size_t capacity = std::numeric_limits<std::size_t>::max(),
                   std::string name = {})
      : sim_(sim), name_(std::move(name)), capacity_(capacity) {
    if (capacity == 0) throw std::invalid_argument("Channel: capacity must be positive");
  }
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return buffer_.size(); }
  [[nodiscard]] bool empty() const noexcept { return buffer_.empty(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] bool closed() const noexcept { return closed_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::size_t waiting_getters() const noexcept { return getters_.size(); }
  [[nodiscard]] std::size_t waiting_putters() const noexcept { return putters_.size(); }

  struct GetAwaiter {
    Channel& ch;
    Time deadline;                 ///< kInfiniteTime => wait forever
    std::optional<T> result{};
    bool done = false;             ///< result delivered or timeout/close decided
    std::coroutine_handle<> handle{};
    // Cancelable deadline timer (simulator-owned cell, no allocation). The
    // channel cancels it whenever it retires this waiter, so the fire
    // callback only ever runs while the awaiter is still suspended here.
    Simulator::TimerToken timer{};
    GetAwaiter* prev = nullptr;  ///< WaiterList links
    GetAwaiter* next = nullptr;

    bool await_ready() {
      if (auto v = ch.try_get()) {
        result = std::move(v);
        done = true;
        return true;
      }
      if (ch.closed_) {
        done = true;  // closed and drained
        return true;
      }
      return deadline <= ch.sim_.now();  // immediate timeout
    }
    void await_suspend(std::coroutine_handle<> h) {
      handle = h;
      ch.getters_.push_back(this);
      if (deadline != kInfiniteTime) {
        timer = ch.sim_.schedule_timeout(
            deadline,
            [](void* self_v) {
              auto* self = static_cast<GetAwaiter*>(self_v);
              self->timer = {};
              self->ch.getters_.remove(self);
              self->done = true;
              self->handle.resume();
            },
            this);
      }
    }
    std::optional<T> await_resume() noexcept { return std::move(result); }
  };

  /// Observer invoked after every buffered-count change with the new size.
  /// Telemetry uses it to time-integrate queue depth (point samples alias on
  /// bursty queues); direct getter hand-offs never touch the buffer and are
  /// invisible here by design — they spend zero time queued.
  void set_size_observer(std::function<void(std::size_t)> observer) {
    size_observer_ = std::move(observer);
  }

  /// Waits for an element (forever, or until close).
  [[nodiscard]] GetAwaiter get() { return GetAwaiter{*this, kInfiniteTime}; }

  /// Waits until `deadline`; std::nullopt on timeout or close.
  [[nodiscard]] GetAwaiter get_until(Time deadline) { return GetAwaiter{*this, deadline}; }

  struct PutAwaiter {
    Channel& ch;
    T value;
    bool failed = false;  ///< channel closed while waiting
    std::coroutine_handle<> handle{};
    PutAwaiter* prev = nullptr;  ///< WaiterList links
    PutAwaiter* next = nullptr;

    bool await_ready() {
      if (ch.closed_) throw ChannelClosed{};
      return ch.try_put_internal(std::move(value));
    }
    void await_suspend(std::coroutine_handle<> h) {
      handle = h;
      ch.putters_.push_back(this);
    }
    void await_resume() {
      if (failed) throw ChannelClosed{};
    }
  };

  /// Suspends while full; throws ChannelClosed if the channel closes.
  [[nodiscard]] PutAwaiter put(T value) { return PutAwaiter{*this, std::move(value)}; }

  /// Non-blocking put; false if full (throws if closed). Moves from
  /// `value` only when it was accepted, so a rejected value stays with the
  /// caller.
  bool try_put(T&& value) {
    if (closed_) throw ChannelClosed{};
    return try_put_internal(std::move(value));
  }
  /// Copying form, for callers that keep their value.
  bool try_put(const T& value) {
    T copy = value;
    return try_put(std::move(copy));
  }

  /// Non-blocking get.
  std::optional<T> try_get() {
    if (buffer_.empty()) {
      // Rendezvous with a waiting putter (possible when capacity was shrunk
      // conceptually; with capacity >= 1 putters only wait when full, so
      // buffer_ nonempty — this branch guards the general case).
      if (putters_.empty()) return std::nullopt;
      PutAwaiter* p = putters_.pop_front();
      std::optional<T> v{std::move(p->value)};
      sim_.post([h = p->handle] { h.resume(); });
      return v;
    }
    std::optional<T> v{buffer_.pop_front()};
    // Refill from a waiting putter, preserving FIFO order.
    if (!putters_.empty()) {
      PutAwaiter* p = putters_.pop_front();
      buffer_.push_back(std::move(p->value));
      sim_.post([h = p->handle] { h.resume(); });
    }
    if (size_observer_) size_observer_(buffer_.size());
    return v;
  }

  /// Closes the channel: waiting getters resume with nullopt, waiting putters
  /// resume into ChannelClosed. Elements already buffered remain gettable.
  void close() {
    if (closed_) return;
    closed_ = true;
    while (!getters_.empty()) {
      GetAwaiter* g = getters_.pop_front();
      sim_.cancel_timeout(g->timer);
      g->done = true;
      sim_.post([h = g->handle] { h.resume(); });
    }
    while (!putters_.empty()) {
      PutAwaiter* p = putters_.pop_front();
      p->failed = true;
      sim_.post([h = p->handle] { h.resume(); });
    }
  }

 private:
  friend struct GetAwaiter;
  friend struct PutAwaiter;

  /// FIFO ring of buffered elements. Capacity is a power of two that only
  /// grows (to the peak occupancy), so a busy channel stops allocating once
  /// it has seen its deepest queue.
  class Ring {
   public:
    Ring() noexcept = default;
    Ring(const Ring&) = delete;
    Ring& operator=(const Ring&) = delete;
    ~Ring() {
      while (size_ > 0) pop_front();
      if (slots_ != nullptr) std::allocator<T>().deallocate(slots_, cap_);
    }

    [[nodiscard]] std::size_t size() const noexcept { return size_; }
    [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

    void push_back(T&& value) {
      if (size_ == cap_) grow();
      std::construct_at(slots_ + ((head_ + size_) & (cap_ - 1)), std::move(value));
      ++size_;
    }

    T pop_front() {
      T* slot = slots_ + head_;
      T out = std::move(*slot);
      std::destroy_at(slot);
      head_ = (head_ + 1) & (cap_ - 1);
      --size_;
      return out;
    }

   private:
    void grow() {
      const std::size_t cap = cap_ == 0 ? 8 : cap_ * 2;
      T* slots = std::allocator<T>().allocate(cap);
      for (std::size_t i = 0; i < size_; ++i) {
        T* from = slots_ + ((head_ + i) & (cap_ - 1));
        std::construct_at(slots + i, std::move(*from));
        std::destroy_at(from);
      }
      if (slots_ != nullptr) std::allocator<T>().deallocate(slots_, cap_);
      slots_ = slots;
      cap_ = cap;
      head_ = 0;
    }

    T* slots_ = nullptr;
    std::size_t cap_ = 0;
    std::size_t head_ = 0;  ///< slot of the oldest element
    std::size_t size_ = 0;
  };

  bool try_put_internal(T&& value) {
    // Direct hand-off to the oldest waiting getter.
    if (!getters_.empty()) {
      GetAwaiter* g = getters_.pop_front();
      sim_.cancel_timeout(g->timer);
      g->result = std::move(value);
      g->done = true;
      sim_.post([h = g->handle] { h.resume(); });
      return true;
    }
    if (buffer_.size() < capacity_) {
      buffer_.push_back(std::move(value));
      if (size_observer_) size_observer_(buffer_.size());
      return true;
    }
    return false;
  }

  Simulator& sim_;
  std::string name_;
  std::size_t capacity_;
  Ring buffer_;
  WaiterList<GetAwaiter> getters_;
  WaiterList<PutAwaiter> putters_;
  std::function<void(std::size_t)> size_observer_;
  bool closed_ = false;
};

}  // namespace serve::sim
