// Whole-program heap probes for the benchmark binary.
//
// alloc_counter.cpp replaces the global operator new/delete family, so only
// the executable that links it counts; the ServeScope libraries themselves
// are untouched. Counts use relaxed atomics: the substrate workloads
// allocate from several real threads.
#pragma once

#include <cstdint>

namespace serve::perf::heap {

struct Snapshot {
  std::uint64_t allocs = 0;      ///< operator new calls since start
  std::uint64_t live_bytes = 0;  ///< usable bytes currently allocated
  std::uint64_t peak_bytes = 0;  ///< high-water mark of live_bytes since reset_peak()
};

[[nodiscard]] Snapshot snapshot() noexcept;

/// Restarts the high-water mark at the current live byte count.
void reset_peak() noexcept;

/// Peak resident set size of the process so far, MiB (VmHWM).
[[nodiscard]] double peak_rss_mb() noexcept;

}  // namespace serve::perf::heap
