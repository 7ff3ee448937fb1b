// Intrusive FIFO of suspended awaiters.
//
// An awaiter lives in the frame of the coroutine it suspends, for exactly as
// long as that coroutine waits, so it can be its own list node: registering
// a waiter links it in place and retiring it (wake-up, timeout, close)
// unlinks it in O(1). No primitive allocates per wait.
#pragma once

#include <cassert>
#include <cstddef>

namespace serve::sim {

/// FIFO of `T` nodes linked through their `T* prev` and `T* next` members.
/// The list never owns its nodes.
template <typename T>
class WaiterList {
 public:
  WaiterList() noexcept = default;
  WaiterList(const WaiterList&) = delete;
  WaiterList& operator=(const WaiterList&) = delete;

  [[nodiscard]] bool empty() const noexcept { return head_ == nullptr; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] T* front() const noexcept { return head_; }

  void push_back(T* node) noexcept {
    node->prev = tail_;
    node->next = nullptr;
    if (tail_ != nullptr) {
      tail_->next = node;
    } else {
      head_ = node;
    }
    tail_ = node;
    ++size_;
  }

  /// Unlinks and returns the oldest node; the list must not be empty.
  T* pop_front() noexcept {
    assert(head_ != nullptr);
    T* node = head_;
    remove(node);
    return node;
  }

  /// Unlinks `node`, which must be in this list.
  void remove(T* node) noexcept {
    if (node->prev != nullptr) {
      node->prev->next = node->next;
    } else {
      head_ = node->next;
    }
    if (node->next != nullptr) {
      node->next->prev = node->prev;
    } else {
      tail_ = node->prev;
    }
    node->prev = node->next = nullptr;
    --size_;
  }

 private:
  T* head_ = nullptr;
  T* tail_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace serve::sim
