// GPU staging-memory model with LRU eviction.
//
// The paper (Section 4.3) postulates that the GPU-preprocessing throughput
// decline at very high concurrency comes from preprocessed inputs being
// "temporarily ousted from the GPU memory, necessitating a subsequent
// reload". This class implements exactly that hypothesis: staged buffers
// live in a fixed budget; overflow evicts the least-recently-staged resident
// buffer, and claiming an evicted buffer reports how many bytes must be
// re-uploaded over PCIe.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

namespace serve::hw {

/// Staged buffers live in a slot vector reused through a free list; the
/// LRU order is a doubly linked list threaded through the slots by index,
/// so staging and claiming allocate nothing once the table has grown to the
/// peak number of buffers in flight. A handle packs a slot index with the
/// slot's generation, which advances on every reuse: claiming or releasing
/// a handle whose buffer is gone throws even after its slot is taken again.
class GpuMemoryStager {
 public:
  using Handle = std::uint64_t;  ///< never 0 (0 means "no buffer" to callers)

  explicit GpuMemoryStager(std::int64_t budget_bytes) : budget_(budget_bytes) {
    if (budget_bytes <= 0) throw std::invalid_argument("GpuMemoryStager: budget must be positive");
  }

  /// Stages a buffer of `bytes`, evicting older resident buffers if needed.
  /// Buffers larger than the whole budget are staged as immediately evicted
  /// (they will always pay the reload).
  Handle stage(std::int64_t bytes) {
    if (bytes < 0) throw std::invalid_argument("GpuMemoryStager: negative size");
    const bool fits = bytes <= budget_;
    if (fits) {
      while (resident_bytes_ + bytes > budget_ && lru_head_ != kNil) evict_oldest();
    }
    std::uint32_t i = free_head_;
    if (i != kNil) {
      free_head_ = slots_[i].next;
    } else {
      i = static_cast<std::uint32_t>(slots_.size());
      slots_.push_back(Slot{});
    }
    Slot& s = slots_[i];
    s.bytes = bytes;
    s.live = true;
    s.resident = fits && resident_bytes_ + bytes <= budget_;
    if (s.resident) {
      resident_bytes_ += bytes;
      link_back(i);
    } else {
      ++evictions_;  // staged already spilled
    }
    ++staged_;
    return (static_cast<Handle>(s.generation) << 32) | i;
  }

  /// Consumes a staged buffer; returns the number of bytes that must be
  /// re-uploaded (0 when still resident).
  std::int64_t claim(Handle h) {
    const Slot& s = slots_[free_slot(h)];
    if (s.resident) return 0;
    reloaded_bytes_ += s.bytes;
    return s.bytes;
  }

  /// Drops a staged buffer without using it.
  void release(Handle h) { (void)free_slot(h); }

  /// Changes the staging budget at runtime (fault injection: a shrink forces
  /// an eviction storm until residency fits; a restore re-admits nothing
  /// retroactively — evicted buffers stay evicted until re-staged).
  void set_budget(std::int64_t budget_bytes) {
    if (budget_bytes <= 0) throw std::invalid_argument("GpuMemoryStager: budget must be positive");
    budget_ = budget_bytes;
    while (resident_bytes_ > budget_ && lru_head_ != kNil) evict_oldest();
  }

  [[nodiscard]] std::int64_t budget_bytes() const noexcept { return budget_; }
  [[nodiscard]] std::int64_t resident_bytes() const noexcept { return resident_bytes_; }
  [[nodiscard]] std::size_t staged_count() const noexcept { return staged_; }
  [[nodiscard]] std::uint64_t evictions() const noexcept { return evictions_; }
  /// Cumulative bytes re-uploaded because the claimed buffer had been
  /// evicted — the PCIe tax the Fig. 5 decline hypothesis predicts.
  [[nodiscard]] std::int64_t reloaded_bytes() const noexcept { return reloaded_bytes_; }

 private:
  static constexpr std::uint32_t kNil = UINT32_MAX;

  struct Slot {
    std::int64_t bytes = 0;
    std::uint32_t generation = 1;  ///< bumped on free; handles carry it
    std::uint32_t prev = kNil;     ///< LRU neighbours while resident
    std::uint32_t next = kNil;     ///< LRU successor, or free-list link
    bool live = false;
    bool resident = false;
  };

  /// Validates `h`, unlinks its buffer and returns its slot to the free
  /// list (the slot's contents stay readable until the next stage()).
  std::uint32_t free_slot(Handle h) {
    const auto i = static_cast<std::uint32_t>(h);
    if (i >= slots_.size() || !slots_[i].live || slots_[i].generation != h >> 32) {
      throw std::logic_error("GpuMemoryStager: unknown handle");
    }
    Slot& s = slots_[i];
    if (s.resident) {
      resident_bytes_ -= s.bytes;
      unlink(i);
    }
    s.live = false;
    if (++s.generation == 0) s.generation = 1;  // keep every handle nonzero
    s.next = free_head_;
    free_head_ = i;
    --staged_;
    return i;
  }

  void link_back(std::uint32_t i) {
    slots_[i].prev = lru_tail_;
    slots_[i].next = kNil;
    (lru_tail_ == kNil ? lru_head_ : slots_[lru_tail_].next) = i;
    lru_tail_ = i;
  }

  void unlink(std::uint32_t i) {
    const Slot& s = slots_[i];
    (s.prev == kNil ? lru_head_ : slots_[s.prev].next) = s.next;
    (s.next == kNil ? lru_tail_ : slots_[s.next].prev) = s.prev;
  }

  void evict_oldest() {
    const std::uint32_t victim = lru_head_;
    unlink(victim);
    slots_[victim].resident = false;
    resident_bytes_ -= slots_[victim].bytes;
    ++evictions_;
  }

  std::int64_t budget_;
  std::int64_t resident_bytes_ = 0;
  std::uint64_t evictions_ = 0;
  std::int64_t reloaded_bytes_ = 0;
  std::size_t staged_ = 0;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNil;
  std::uint32_t lru_head_ = kNil;
  std::uint32_t lru_tail_ = kNil;
};

}  // namespace serve::hw
