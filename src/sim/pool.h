// Size-bucketed free-list allocator for the simulator's per-request hot
// path: coroutine frames (Process / Task promises opt in via operator
// new/delete), requests (through PoolAllocator) and anything else that
// churns at event rate.
//
// Design: thread-local singly-linked free lists in 64-byte size classes up
// to 4 KiB; larger blocks fall through to the global heap. A freed block is
// pushed on its class's list and handed back on the next allocation of the
// same class, so steady-state simulation (spawn request -> retire request)
// recycles the same few frames instead of round-tripping malloc. Lists are
// released when the owning thread exits.
//
// `alloc_stats()` exposes the counters the sim_microbench reports
// (allocations per simulated request); they are plain (non-atomic) because
// each thread only ever touches its own lists.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>

namespace serve::sim {

/// Allocation counters for the calling thread (monotonic; never reset by the
/// pool itself — benchmarks snapshot deltas).
struct AllocStats {
  std::uint64_t frame_allocs = 0;       ///< pooled-alloc requests (frames, requests)
  std::uint64_t frame_pool_hits = 0;    ///< served from a free list
  std::uint64_t frame_heap_allocs = 0;  ///< fell through to operator new
  std::uint64_t action_heap_allocs = 0; ///< SmallAction captures too big to inline
};

inline AllocStats& alloc_stats() noexcept {
  static thread_local AllocStats stats;
  return stats;
}

namespace detail {

inline constexpr std::size_t kPoolGranularity = 64;
inline constexpr std::size_t kPoolMaxSize = 4096;
inline constexpr std::size_t kPoolBuckets = kPoolMaxSize / kPoolGranularity;

struct FreeNode {
  FreeNode* next;
};

struct FramePool {
  FreeNode* buckets[kPoolBuckets] = {};

  ~FramePool() {
    for (FreeNode* head : buckets) {
      while (head != nullptr) {
        FreeNode* next = head->next;
        ::operator delete(head);
        head = next;
      }
    }
  }
};

inline FramePool& frame_pool() noexcept {
  static thread_local FramePool pool;
  return pool;
}

/// Bucket index for a request of `n` bytes, or kPoolBuckets when too big.
inline std::size_t pool_bucket(std::size_t n) noexcept {
  return n == 0 ? 0 : (n - 1) / kPoolGranularity;
}

inline void* frame_alloc(std::size_t n) {
  AllocStats& stats = alloc_stats();
  ++stats.frame_allocs;
  const std::size_t b = pool_bucket(n);
  if (b < kPoolBuckets) {
    FreeNode*& head = frame_pool().buckets[b];
    if (head != nullptr) {
      ++stats.frame_pool_hits;
      void* p = head;
      head = head->next;
      return p;
    }
    ++stats.frame_heap_allocs;
    return ::operator new((b + 1) * kPoolGranularity);
  }
  ++stats.frame_heap_allocs;
  return ::operator new(n);
}

inline void frame_free(void* p, std::size_t n) noexcept {
  const std::size_t b = pool_bucket(n);
  if (b < kPoolBuckets) {
    FreeNode*& head = frame_pool().buckets[b];
    auto* node = static_cast<FreeNode*>(p);
    node->next = head;
    head = node;
    return;
  }
  ::operator delete(p);
}

}  // namespace detail

/// Standard allocator over the frame pool, for std::allocate_shared and
/// containers of objects that are created and destroyed at request rate.
template <typename T>
struct PoolAllocator {
  using value_type = T;

  PoolAllocator() noexcept = default;
  template <typename U>
  PoolAllocator(const PoolAllocator<U>&) noexcept {}  // NOLINT(google-explicit-constructor)

  T* allocate(std::size_t n) { return static_cast<T*>(detail::frame_alloc(n * sizeof(T))); }
  void deallocate(T* p, std::size_t n) noexcept { detail::frame_free(p, n * sizeof(T)); }

  friend bool operator==(const PoolAllocator&, const PoolAllocator&) noexcept { return true; }
};

}  // namespace serve::sim
