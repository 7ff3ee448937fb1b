// Counting replacement of the global allocation functions (see heap_counter.h).
#include "heap_counter.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<std::uint64_t> g_allocs{0};

void* counted(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return p;
}

void* aligned(std::size_t n, std::align_val_t al) noexcept {
  const auto a = static_cast<std::size_t>(al);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = (n + a - 1) / a * a;
  return std::aligned_alloc(a, rounded == 0 ? a : rounded);
}

}  // namespace

std::uint64_t serve::bench::heap_allocs() noexcept {
  return g_allocs.load(std::memory_order_relaxed);
}

void* operator new(std::size_t n) { return counted(std::malloc(n == 0 ? 1 : n)); }
void* operator new[](std::size_t n) { return counted(std::malloc(n == 0 ? 1 : n)); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p != nullptr) g_allocs.fetch_add(1, std::memory_order_relaxed);
  return p;
}
void* operator new[](std::size_t n, const std::nothrow_t& tag) noexcept {
  return operator new(n, tag);
}
void* operator new(std::size_t n, std::align_val_t al) { return counted(aligned(n, al)); }
void* operator new[](std::size_t n, std::align_val_t al) { return counted(aligned(n, al)); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
