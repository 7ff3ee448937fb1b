#include "sim/simulator.h"

#include <stdexcept>

namespace serve::sim {

namespace detail {
void retire_process(Simulator& sim, Process::promise_type& p) noexcept {
  if (p.live_prev != nullptr) {
    p.live_prev->live_next = p.live_next;
  } else {
    sim.live_head_ = p.live_next;
  }
  if (p.live_next != nullptr) p.live_next->live_prev = p.live_prev;
  --sim.live_count_;
  std::coroutine_handle<Process::promise_type>::from_promise(p).destroy();
}
}  // namespace detail

Simulator::~Simulator() {
  // Reclaim processes still suspended (e.g. servers waiting on channels that
  // outlive the experiment). Destroying a suspended coroutine is safe; the
  // frames' awaiter objects may reference channels/resources, but those are
  // plain members destroyed with the frame.
  for (Process::promise_type* p = live_head_; p != nullptr;) {
    Process::promise_type* next = p->live_next;
    std::coroutine_handle<Process::promise_type>::from_promise(*p).destroy();
    p = next;
  }
}

void Simulator::schedule_in_past() {
  throw std::logic_error("Simulator::schedule_at: time is in the past");
}

void Simulator::spawn(Process p) {
  auto h = p.detach();
  Process::promise_type& pr = h.promise();
  pr.sim = this;
  pr.live_next = live_head_;
  if (live_head_ != nullptr) live_head_->live_prev = &pr;
  live_head_ = &pr;
  ++live_count_;
  // First resume goes through the queue so spawning mid-event never nests.
  queue_.push(now_, [h] { h.resume(); });
}

void Simulator::step() {
  EventQueue::Item event = queue_.pop();
  now_ = event.t;
  ++steps_;
  event();
}

std::uint64_t Simulator::run(std::uint64_t max_steps) {
  const std::uint64_t start = steps_;
  while (!queue_.empty()) {
    if (steps_ - start >= max_steps) {
      throw std::runtime_error("Simulator::run: step limit exceeded (runaway simulation?)");
    }
    step();
  }
  return steps_ - start;
}

std::uint64_t Simulator::run_until(Time t, std::uint64_t max_steps) {
  const std::uint64_t start = steps_;
  while (!queue_.empty() && queue_.next_time() <= t) {
    if (steps_ - start >= max_steps) {
      throw std::runtime_error("Simulator::run_until: step limit exceeded");
    }
    step();
  }
  if (now_ < t) now_ = t;
  return steps_ - start;
}

}  // namespace serve::sim
