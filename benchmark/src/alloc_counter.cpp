// Counting replacement of the global allocation functions (see alloc_counter.h).
#include "alloc_counter.h"

#include <malloc.h>
#include <sys/resource.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

namespace serve::perf::heap {

namespace {

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_live{0};
std::atomic<std::uint64_t> g_peak{0};

void note_alloc(void* p) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t size = malloc_usable_size(p);
  const std::uint64_t live = g_live.fetch_add(size, std::memory_order_relaxed) + size;
  std::uint64_t peak = g_peak.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
}

void note_free(void* p) noexcept {
  if (p != nullptr) g_live.fetch_sub(malloc_usable_size(p), std::memory_order_relaxed);
}

void* checked(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  note_alloc(p);
  return p;
}

void* aligned(std::size_t n, std::align_val_t al) noexcept {
  const auto a = static_cast<std::size_t>(al);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = (n + a - 1) / a * a;
  return std::aligned_alloc(a, rounded == 0 ? a : rounded);
}

}  // namespace

Snapshot snapshot() noexcept {
  return {g_allocs.load(std::memory_order_relaxed), g_live.load(std::memory_order_relaxed),
          g_peak.load(std::memory_order_relaxed)};
}

void reset_peak() noexcept {
  g_peak.store(g_live.load(std::memory_order_relaxed), std::memory_order_relaxed);
}

double peak_rss_mb() noexcept {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across
  // fork + exec, so a process started from a larger launcher (python3
  // benchmark/run.py) would report the launcher's peak instead of its own.
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    }
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

}  // namespace serve::perf::heap

using serve::perf::heap::checked;
using serve::perf::heap::note_alloc;
using serve::perf::heap::note_free;

void* operator new(std::size_t n) { return checked(std::malloc(n == 0 ? 1 : n)); }
void* operator new[](std::size_t n) { return checked(std::malloc(n == 0 ? 1 : n)); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p != nullptr) note_alloc(p);
  return p;
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p != nullptr) note_alloc(p);
  return p;
}
void* operator new(std::size_t n, std::align_val_t al) {
  return checked(serve::perf::heap::aligned(n, al));
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return checked(serve::perf::heap::aligned(n, al));
}

void operator delete(void* p) noexcept {
  note_free(p);
  std::free(p);
}
void operator delete[](void* p) noexcept {
  note_free(p);
  std::free(p);
}
void operator delete(void* p, std::size_t) noexcept {
  note_free(p);
  std::free(p);
}
void operator delete[](void* p, std::size_t) noexcept {
  note_free(p);
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept {
  note_free(p);
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  note_free(p);
  std::free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  note_free(p);
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  note_free(p);
  std::free(p);
}
