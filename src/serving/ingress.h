// Ingress-format tier vocabulary.
//
// The paper's F7 outlier (TinyViT: compressed-JPEG ingress beats raw fp32
// tensors five times its size, because PCIe transfer dominates for small
// models) motivates a serving tier where the wire format of a request is a
// first-class knob. Three small enums shared by the request lifecycle, the
// server configuration, and the content-addressed ingress cache live here so
// that request.h / config.h / ingress_cache.h need not include one another.
#pragma once

#include <cstdint>
#include <string_view>

namespace serve::serving {

/// What clients put on the wire (a deployment choice: ServerConfig::ingress).
enum class IngressFormat : std::uint8_t {
  kCompressedImage,  ///< JPEG bytes; the server decodes + resizes + normalizes
  kRawTensor,        ///< client-side-preprocessed fp32 tensor; PCIe cost scales
                     ///< with tensor bytes instead of compressed bytes
};

[[nodiscard]] constexpr std::string_view ingress_format_name(IngressFormat f) noexcept {
  return f == IngressFormat::kCompressedImage ? "jpeg" : "tensor";
}

/// Which ingress-cache level satisfied a request (kNone = miss or bypass).
/// A tensor-level hit skips decode + resize + normalize entirely; an
/// image-level hit skips decode only.
enum class CacheLevel : std::uint8_t { kNone, kImage, kTensor };

[[nodiscard]] constexpr std::string_view cache_level_name(CacheLevel l) noexcept {
  switch (l) {
    case CacheLevel::kNone: return "miss";
    case CacheLevel::kImage: return "image";
    case CacheLevel::kTensor: return "tensor";
  }
  return "?";
}

}  // namespace serve::serving
