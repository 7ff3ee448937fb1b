// Runtime SIMD dispatch for the codec hot paths.
//
// The decode/resize/normalize kernels exist in two tiers — portable scalar
// (always compiled) and AVX2 — and the best tier supported by the executing
// CPU is selected once at startup. The scalar tier is the semantic
// definition and the fallback on every other CPU: every AVX2 kernel must
// match it within the contracts the `*_ref` oracles pin (±1 LSB on u8
// outputs, bit-exact normalize), and the forced-scalar CI leg runs the
// whole suite with dispatch pinned to scalar.
//
// Overrides (checked once, in this order):
//   - env SERVESCOPE_SIMD=scalar|avx2 -> cap at that tier
//   - codec::cpu::set_active_tier(t)  -> programmatic (tests sweep tiers)
#pragma once

#include <string_view>

namespace serve::codec::cpu {

/// Dispatch tiers, ordered: a CPU supporting tier T supports every lower one.
enum class SimdTier { kScalar = 0, kAvx2 = 1 };

/// Human-readable tier name ("scalar", "avx2").
[[nodiscard]] std::string_view tier_name(SimdTier t) noexcept;

/// True when the executing CPU (and build) can run `t`'s kernels.
[[nodiscard]] bool tier_supported(SimdTier t) noexcept;

/// Best supported tier after applying the environment overrides above.
[[nodiscard]] SimdTier detected_tier() noexcept;

/// Tier the codec kernels currently dispatch to (defaults to
/// `detected_tier()` on first use).
[[nodiscard]] SimdTier active_tier() noexcept;

/// Pins dispatch to `t` for the rest of the process (tests use this to sweep
/// every tier on one host). Throws std::invalid_argument when the host or
/// build cannot run `t`.
void set_active_tier(SimdTier t);

}  // namespace serve::codec::cpu
