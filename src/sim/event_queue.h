// Pending-event set for the discrete-event simulator.
//
// Two tiers, both ordered by (time, seq) so the simulation stays fully
// deterministic:
//
//   - Near window: a calendar of kBuckets time buckets covering
//     [base, base + kBuckets << shift) ns. Pops in a discrete-event
//     simulation are monotone in time, so the window is re-anchored at the
//     last popped timestamp whenever it drains, and its bucket width adapts
//     to the push horizon actually observed (wait(1us) workloads get
//     narrow buckets, wait(5ms) workloads get wide ones). A push inside the
//     window is an O(1) append; buckets are sorted lazily when the pop
//     cursor reaches them (they are small), and a bitmap of non-empty
//     buckets makes cursor advance a find-first-set, not a scan.
//
//   - Far tier: a 4-ary implicit min-heap for events beyond the window
//     (request timeouts, experiment-end markers). pop() serves whichever
//     tier holds the smaller (time, seq) key, so a mis-sized window only
//     costs heap time — never correctness.
//
// An event is a 32-byte trivially copyable Item: time, seq, a thunk and an
// 8-byte payload. A callable whose capture is trivially copyable and fits
// in 8 bytes — every `[h] { h.resume(); }` wake-up — is stored in the
// payload itself; anything larger goes into a slab cell owned by the queue
// (recycled through a free list) and the payload holds the cell pointer.
// So sorting, sifting and popping move plain bytes, and neither path
// allocates in steady state. Heap sifts use the hole technique (shift, then
// place): one item move per level rather than three.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <deque>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/action.h"
#include "sim/pool.h"
#include "sim/time.h"

namespace serve::sim {

/// Min-queue of timestamped callbacks. Ties break by insertion order so the
/// simulation is fully deterministic.
class EventQueue {
 public:
  /// One pending event. `fn(payload)` runs it: the payload holds either the
  /// callable itself or a pointer to its slab cell.
  struct Item {
    Time t = 0;
    std::uint64_t seq = 0;
    void (*fn)(void* payload) = nullptr;
    alignas(8) unsigned char payload[8] = {};

    void operator()() { fn(payload); }
  };
  static_assert(sizeof(Item) == 32 && std::is_trivially_copyable_v<Item>);

  EventQueue() : buckets_(kBuckets) {}
  EventQueue(const EventQueue&) = delete;  // slab cells point back here
  EventQueue& operator=(const EventQueue&) = delete;

  /// Queues `f` (any void() callable) at time `t`.
  template <typename F>
  void push(Time t, F&& f) {
    using Fn = std::remove_cvref_t<F>;
    Item item{t, next_seq_++};
    if constexpr (std::is_trivially_copyable_v<Fn> && sizeof(Fn) <= sizeof(Item::payload) &&
                  alignof(Fn) <= alignof(Item)) {
      ::new (static_cast<void*>(item.payload)) Fn(std::forward<F>(f));
      item.fn = &run_inline<Fn>;
    } else {
      Cell* cell = take_cell();
      cell->action.emplace(std::forward<F>(f));
      ::new (static_cast<void*>(item.payload)) Cell*(cell);
      item.fn = &run_cell;
    }
    insert(item);
  }

  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return count_; }

  /// Slab cells ever created: the peak number of events whose callable did
  /// not fit inline that were pending (or running) at once.
  [[nodiscard]] std::size_t slab_cells() const noexcept { return cells_.size(); }

  /// Earliest pending timestamp (kInfiniteTime when empty). Non-const: may
  /// lazily sort the bucket under the cursor.
  [[nodiscard]] Time next_time() {
    if (count_ == 0) return kInfiniteTime;
    const Item* near = near_front();
    if (near == nullptr) return far_.front().t;
    if (far_.empty()) return near->t;
    return before(*near, far_.front()) ? near->t : far_.front().t;
  }

  /// Removes and returns the earliest event; UB if empty (guarded by
  /// caller). Run it once with operator(): that also recycles its slab cell.
  Item pop() {
    Item* near = near_front();
    if (near != nullptr && (far_.empty() || before(*near, far_.front()))) {
      const Item out = *near;
      last_pop_t_ = out.t;
      --count_;
      --window_items_;
      ++consume_idx_;
      Bucket& bucket = buckets_[cursor_];
      if (consume_idx_ == bucket.size()) {
        bucket.clear();
        consume_idx_ = 0;
        nonempty_[cursor_ >> 6] &= ~(1ull << (cursor_ & 63));
      }
      return out;
    }
    const Item out = far_pop();
    last_pop_t_ = out.t;
    --count_;
    return out;
  }

 private:
  struct Cell {
    explicit Cell(EventQueue* q) noexcept : owner(q) {}
    SmallAction action;
    EventQueue* owner;
    Cell* next_free = nullptr;
  };

  template <typename Fn>
  static void run_inline(void* payload) {
    (*std::launder(static_cast<Fn*>(payload)))();
  }

  static void run_cell(void* payload) {
    Cell* const cell = *std::launder(static_cast<Cell**>(payload));
    // Recycled even if the action throws; the callable is destroyed after it
    // ran, as it would be with the event.
    struct Recycle {
      Cell* cell;
      ~Recycle() {
        cell->action.reset();
        cell->next_free = cell->owner->free_cells_;
        cell->owner->free_cells_ = cell;
      }
    } recycle{cell};
    cell->action();
  }

  Cell* take_cell() {
    if (free_cells_ == nullptr) return &cells_.emplace_back(this);
    Cell* cell = free_cells_;
    free_cells_ = cell->next_free;
    return cell;
  }

  void insert(const Item& item) {
    const Time t = item.t;
    ++count_;
    if (window_items_ == 0 && (t >= window_end() || cursor_ > 0)) {
      // Window drained (or never started): re-anchor at the last popped
      // time and adapt the bucket width to the horizon the last window saw.
      rewindow();
    }
    const Time delta = t - last_pop_t_;
    if (delta > max_delta_) max_delta_ = delta;
    if (t < window_end()) {
      std::size_t b = static_cast<std::size_t>((t - base_) >> shift_);
      // Far pops can move last_pop_t_ into a gap behind the cursor; events
      // land in the cursor bucket instead of a bucket already passed.
      if (b < cursor_) b = cursor_;
      Bucket& bucket = buckets_[b];
      const std::uint64_t bit = 1ull << (b & 63);
      if (bucket.empty()) {
        sorted_[b >> 6] |= bit;  // a one-element bucket is sorted
        bucket.push_back(item);
      } else if (!before(item, bucket.back())) {
        // In-order append (the common case: monotone schedule times, and
        // same-time events arrive in seq order) — sortedness is preserved.
        bucket.push_back(item);
      } else if (b == cursor_ && (sorted_[b >> 6] & bit) != 0) {
        // Live, partially consumed bucket: insert before the first larger
        // key so already-popped items stay behind consume_idx_.
        const auto pos = std::upper_bound(
            bucket.begin() + static_cast<std::ptrdiff_t>(consume_idx_), bucket.end(), item,
            [](const Item& a, const Item& o) { return before(a, o); });
        bucket.insert(pos, item);
        nonempty_[b >> 6] |= bit;
        ++window_items_;
        return;
      } else {
        bucket.push_back(item);
        sorted_[b >> 6] &= ~bit;  // out of order; sort lazily at the cursor
      }
      nonempty_[b >> 6] |= bit;
      ++window_items_;
      return;
    }
    far_push(item);
  }

  static constexpr std::size_t kBuckets = 512;
  static constexpr int kInitialShift = 7;  ///< 128 ns buckets, ~65 us window
  static constexpr int kMaxShift = 16;     ///< caps the window at ~33.5 ms

  static bool before(const Item& a, const Item& b) noexcept {
    return a.t != b.t ? a.t < b.t : a.seq < b.seq;
  }

  [[nodiscard]] Time window_end() const noexcept {
    return base_ + (static_cast<Time>(kBuckets) << shift_);
  }

  /// Starts a fresh window at the last popped time, sizing buckets so the
  /// previously observed push horizon fits with room to spare.
  void rewindow() noexcept {
    base_ = last_pop_t_;
    cursor_ = 0;
    consume_idx_ = 0;
    if (max_delta_ > 0) {
      const auto spread =
          static_cast<std::uint64_t>(max_delta_ / static_cast<Time>(kBuckets / 4) + 1);
      int s = 64 - std::countl_zero(spread);  // ceil(log2(spread)) + adjust
      if (s > kMaxShift) s = kMaxShift;
      shift_ = s;
    }
    max_delta_ = 0;
  }

  /// Positions the cursor on the next bucketed item (lazily sorting its
  /// bucket) and returns it; nullptr when the window holds nothing.
  [[nodiscard]] Item* near_front() {
    if (window_items_ == 0) return nullptr;
    Bucket& current = buckets_[cursor_];
    if (consume_idx_ >= current.size()) {
      // Advance to the next non-empty bucket via the bitmap.
      std::size_t word = cursor_ >> 6;
      std::uint64_t bits = nonempty_[word] & (~0ull << (cursor_ & 63));
      while (bits == 0) bits = nonempty_[++word];  // window_items_ > 0 => found
      cursor_ = (word << 6) + static_cast<std::size_t>(std::countr_zero(bits));
      consume_idx_ = 0;
    }
    Bucket& bucket = buckets_[cursor_];
    const std::uint64_t bit = 1ull << (cursor_ & 63);
    if ((sorted_[cursor_ >> 6] & bit) == 0) {
      std::sort(bucket.begin(), bucket.end(),
                [](const Item& a, const Item& b) { return before(a, b); });
      sorted_[cursor_ >> 6] |= bit;
    }
    return &bucket[consume_idx_];
  }

  // --- far tier: 4-ary min-heap --------------------------------------------

  void far_push(const Item& item) {
    std::size_t i = far_.size();
    far_.emplace_back();  // hole; filled by the sift below
    while (i > 0) {
      const std::size_t parent = (i - 1) >> 2;
      if (!before(item, far_[parent])) break;
      far_[i] = far_[parent];
      i = parent;
    }
    far_[i] = item;
  }

  Item far_pop() {
    const Item out = far_.front();
    const Item last = far_.back();
    far_.pop_back();
    if (!far_.empty()) {
      const std::size_t n = far_.size();
      std::size_t i = 0;  // hole left by the root
      for (;;) {
        const std::size_t first = (i << 2) + 1;
        if (first >= n) break;
        std::size_t best = first;
        const std::size_t end = first + 4 < n ? first + 4 : n;
        for (std::size_t c = first + 1; c < end; ++c) {
          if (before(far_[c], far_[best])) best = c;
        }
        if (!before(far_[best], last)) break;
        far_[i] = far_[best];
        i = best;
      }
      far_[i] = last;
    }
    return out;
  }

  /// Bucket storage comes from the frame pool: a fresh simulator in a sweep
  /// reuses the blocks its predecessors' buckets grew into.
  using Bucket = std::vector<Item, PoolAllocator<Item>>;
  std::vector<Bucket> buckets_;
  std::uint64_t nonempty_[kBuckets / 64] = {};  ///< bit b: bucket b has items
  std::uint64_t sorted_[kBuckets / 64] = {};    ///< bit b: bucket b is sorted
  std::size_t cursor_ = 0;       ///< current bucket
  std::size_t consume_idx_ = 0;  ///< next unpopped item in the cursor bucket
  std::size_t window_items_ = 0;
  Time base_ = 0;        ///< window start
  int shift_ = kInitialShift;
  Time last_pop_t_ = 0;  ///< monotone pop time; window re-anchors here
  Time max_delta_ = 0;   ///< largest (push t - last pop) seen this window

  std::vector<Item> far_;
  std::uint64_t next_seq_ = 0;
  std::size_t count_ = 0;

  std::deque<Cell> cells_;  ///< slab; grows to the peak of pending boxed events
  Cell* free_cells_ = nullptr;
};

}  // namespace serve::sim
