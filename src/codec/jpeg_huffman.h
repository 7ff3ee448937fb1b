// Canonical Huffman decoding for baseline JPEG (T.81 F.16), accelerated by
// a flat primary lookup table in the libjpeg-turbo style: the decoder peeks
// `kHuffLookupBits` bits and resolves (symbol, code length) with one load;
// codes longer than the window fall back to the serial mincode/maxcode walk.
// A second table (stb_image style) resolves a whole AC coefficient (run,
// sign-extended value and bit count) when its code and magnitude bits both
// fit in the same window.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>

#include "codec/bit_io.h"

namespace serve::codec::jpeg {

/// Primary lookup window. Annex K tables place every high-frequency symbol
/// at 9 bits or fewer, so the slow path only runs for rare symbols.
inline constexpr int kHuffLookupBits = 9;

/// Sign extension of an ssss-bit magnitude (T.81 F.12).
[[nodiscard]] inline int extend(int v, int ssss) noexcept {
  return v < (1 << (ssss - 1)) ? v - (1 << ssss) + 1 : v;
}

struct DecodeTable {
  std::array<int, 17> mincode{};
  std::array<int, 17> maxcode{};  ///< -1 where no codes of that length exist
  std::array<int, 17> valptr{};
  std::array<std::uint8_t, 256> vals{};  ///< HUFFVAL; a DHT table holds at most 256
  /// `(symbol << 8) | code_length` for every `kHuffLookupBits`-bit window
  /// that starts with a code of that length; 0 routes to the slow path.
  std::array<std::uint16_t, 1u << kHuffLookupBits> lookup{};
  /// AC tables only (`build_fast_ac`): `value * 256 + run * 16 + total_bits`
  /// for every window that holds a whole code and all its magnitude bits,
  /// where `total_bits` is the code length plus the magnitude size and
  /// `value` is the sign-extended coefficient (0 for EOB and ZRL, the only
  /// size-0 symbols). 0 routes to `lookup`.
  std::array<std::int32_t, 1u << kHuffLookupBits> fast_ac{};
  bool present = false;

  /// Builds the canonical code book from a DHT segment's BITS/HUFFVAL.
  /// Throws CodecError when the length counts do not describe a prefix code
  /// (a corrupted table would otherwise index out of bounds).
  void build(const std::uint8_t bits[16], const std::uint8_t* huffval, int count) {
    std::copy(huffval, huffval + count, vals.begin());
    lookup.fill(0);
    int code = 0, k = 0;
    for (int len = 1; len <= 16; ++len) {
      const auto l = static_cast<std::size_t>(len);
      if (bits[len - 1] == 0) {
        maxcode[l] = -1;
      } else {
        valptr[l] = k;
        mincode[l] = code;
        k += bits[len - 1];
        code += bits[len - 1];
        // All codes of this length must fit in `len` bits, or the counts do
        // not form a valid canonical prefix code (T.81 C.2).
        if (code > (1 << len)) throw CodecError("DHT: invalid code length counts");
        maxcode[l] = code - 1;
        for (int c = mincode[l]; c <= maxcode[l] && len <= kHuffLookupBits; ++c) {
          const auto sym = vals[static_cast<std::size_t>(valptr[l] + c - mincode[l])];
          const int base = c << (kHuffLookupBits - len);
          const int span = 1 << (kHuffLookupBits - len);
          const auto entry = static_cast<std::uint16_t>((sym << 8) | len);
          for (int s = 0; s < span; ++s) lookup[static_cast<std::size_t>(base + s)] = entry;
        }
      }
      code <<= 1;
    }
    present = true;
  }

  /// Fills `fast_ac` from `lookup`; only AC tables need it, and a table
  /// without it (all zero) decodes through `lookup` alone.
  void build_fast_ac() {
    for (std::size_t w = 0; w < lookup.size(); ++w) {
      const int len = lookup[w] & 0xFF;
      const int rs = lookup[w] >> 8;
      const int size = rs & 0x0F;
      if (len == 0 || len + size > kHuffLookupBits) {
        fast_ac[w] = 0;
        continue;
      }
      const int magnitude =
          static_cast<int>(w >> (kHuffLookupBits - len - size)) & ((1 << size) - 1);
      const int value = size > 0 ? extend(magnitude, size) : 0;
      fast_ac[w] = value * 256 + (rs >> 4) * 16 + len + size;
    }
  }

  /// Decodes one symbol: one peek + one table load on the fast path.
  [[nodiscard]] std::uint8_t decode(BitReader& br) const {
    const std::uint16_t entry = lookup[br.peek(kHuffLookupBits)];
    if (entry != 0) {
      br.consume(entry & 0xFF);
      return static_cast<std::uint8_t>(entry >> 8);
    }
    return decode_slow(br);
  }

  [[nodiscard]] std::uint8_t decode_slow(BitReader& br) const {
    for (int len = kHuffLookupBits + 1; len <= 16; ++len) {
      const auto l = static_cast<std::size_t>(len);
      if (maxcode[l] < 0) continue;
      const int code = static_cast<int>(br.peek(len));
      if (code >= mincode[l] && code <= maxcode[l]) {
        br.consume(len);
        return vals[static_cast<std::size_t>(valptr[l] + code - mincode[l])];
      }
    }
    throw CodecError("invalid Huffman code");
  }
};

}  // namespace serve::codec::jpeg
