// Seeded xorshift64 stream for the mutation tests. The stream is fixed by
// its seed alone, so a failing mutant ("seed X round N") replays exactly.
#pragma once

#include <cstddef>
#include <cstdint>

namespace serve::fuzz {

struct XorShift {
  std::uint64_t state;  ///< must not be zero
  std::uint64_t next() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  }
  // Bounded draw; bias is irrelevant for fuzzing.
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
};

}  // namespace serve::fuzz
