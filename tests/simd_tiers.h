// The SIMD tier sweep shared by the kernel, golden and mutation tests. A
// check runs once per tier this build compiles and the host runs, capped by
// SERVESCOPE_SIMD (cpu::detected_tier()), so the forced-scalar leg checks
// the scalar tier alone and an AVX2 host checks scalar and AVX2.
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "codec/cpu_features.h"

namespace serve::tiers {

/// Runs `fn(tier)` with codec dispatch pinned to each runnable tier, scalar
/// first, then restores the tier that was active before. Logs a line with
/// "vacuous" in it when only scalar ran (the CI AVX2 leg greps for it).
template <typename Fn>
void for_each_tier(Fn&& fn) {
  using codec::cpu::SimdTier;
  struct Restore {
    SimdTier tier;
    ~Restore() { codec::cpu::set_active_tier(tier); }
  } restore{codec::cpu::active_tier()};
  for (SimdTier t : {SimdTier::kScalar, SimdTier::kAvx2}) {
    if (static_cast<int>(t) > static_cast<int>(codec::cpu::detected_tier())) continue;
    codec::cpu::set_active_tier(t);
    SCOPED_TRACE(std::string("tier=") + std::string(codec::cpu::tier_name(t)));
    fn(t);
  }
  if (codec::cpu::detected_tier() == SimdTier::kScalar) {
    GTEST_LOG_(INFO) << "no SIMD tier available (scalar-only build, host, or "
                        "SERVESCOPE_SIMD=scalar); vector-vs-scalar checks are vacuous";
  }
}

}  // namespace serve::tiers
