// Whole-process operator new count for the micro-benchmarks.
//
// heap_counter.cpp replaces the global allocation functions, so only the
// executable that links it counts. It lives in its own translation unit so
// the compiler never sees a new-expression paired with the replacement's
// free().
#pragma once

#include <cstdint>

namespace serve::bench {

/// Global operator new calls (every form) since the process started.
[[nodiscard]] std::uint64_t heap_allocs() noexcept;

}  // namespace serve::bench
