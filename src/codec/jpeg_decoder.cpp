#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <vector>

#include "codec/dct.h"
#include "codec/jpeg.h"
#include "codec/jpeg_stages.h"
#include "codec/simd_kernels.h"

namespace serve::codec {

namespace jpeg {
namespace {

struct Parser {
  std::span<const std::uint8_t> data;
  std::size_t pos = 0;

  std::uint8_t u8() {
    if (pos >= data.size()) throw CodecError("unexpected end of stream");
    return data[pos++];
  }
  std::uint16_t u16() {
    const auto hi = u8();
    return static_cast<std::uint16_t>((hi << 8) | u8());
  }
  void skip(std::size_t n) {
    if (pos + n > data.size()) throw CodecError("unexpected end of stream");
    pos += n;
  }
};

void parse_dqt(Parser& p, DecoderState& st, std::uint16_t seg_len) {
  std::size_t remaining = seg_len - 2u;
  while (remaining > 0) {
    const std::uint8_t pq_tq = p.u8();
    const int precision = pq_tq >> 4;
    const int id = pq_tq & 0x0F;
    if (id > 3) throw CodecError("DQT: table id out of range");
    if (precision > 1) throw CodecError("DQT: bad precision");
    const std::size_t entry = precision == 0 ? 65u : 129u;
    if (remaining < entry) throw CodecError("DQT: truncated segment");
    for (int i = 0; i < kBlockSize; ++i) {
      const std::uint16_t q = precision == 0 ? p.u8() : p.u16();
      st.quant[static_cast<std::size_t>(id)][kZigZag[static_cast<std::size_t>(i)]] = q;
    }
    st.quant_present[static_cast<std::size_t>(id)] = true;
    remaining -= entry;
  }
}

void parse_dht(Parser& p, DecoderState& st, std::uint16_t seg_len) {
  std::size_t remaining = seg_len - 2u;
  while (remaining > 0) {
    const std::uint8_t tc_th = p.u8();
    const int cls = tc_th >> 4;
    const int id = tc_th & 0x0F;
    if (cls > 1 || id > 3) throw CodecError("DHT: bad table class/id");
    std::uint8_t bits[16];
    int count = 0;
    for (auto& b : bits) {
      b = p.u8();
      count += b;
    }
    if (count > 256) throw CodecError("DHT: too many codes");
    std::uint8_t vals[256];
    for (int i = 0; i < count; ++i) vals[i] = p.u8();
    auto& table = cls == 0 ? st.dc_tables[static_cast<std::size_t>(id)]
                           : st.ac_tables[static_cast<std::size_t>(id)];
    table.build(bits, vals, count);
    if (cls == 1) table.build_fast_ac();
    if (remaining < 17u + static_cast<std::size_t>(count)) throw CodecError("DHT: truncated");
    remaining -= 17u + static_cast<std::size_t>(count);
  }
}

void parse_sof0(Parser& p, DecoderState& st) {
  const int precision = p.u8();
  if (precision != 8) throw CodecError("SOF0: only 8-bit precision supported");
  st.height = p.u16();
  st.width = p.u16();
  const int ncomp = p.u8();
  if (st.width == 0 || st.height == 0) throw CodecError("SOF0: zero dimensions");
  // Cap total pixels so a corrupted dimension field cannot demand a
  // multi-gigabyte allocation before entropy decoding even starts.
  if (static_cast<std::int64_t>(st.width) * st.height > (std::int64_t{1} << 26)) {
    throw CodecError("SOF0: image dimensions exceed decoder limit");
  }
  if (ncomp != 1 && ncomp != 3) throw CodecError("SOF0: only 1 or 3 components supported");
  st.comps.resize(static_cast<std::size_t>(ncomp));
  for (auto& c : st.comps) {
    c.id = p.u8();
    const std::uint8_t hv = p.u8();
    c.h = hv >> 4;
    c.v = hv & 0x0F;
    c.quant_id = p.u8();
    if (c.h < 1 || c.h > 2 || c.v < 1 || c.v > 2) {
      throw CodecError("SOF0: unsupported sampling factor");
    }
    if (c.quant_id > 3) throw CodecError("SOF0: bad quant table id");
  }
  st.have_sof = true;
}

void parse_sos(Parser& p, DecoderState& st) {
  if (!st.have_sof) throw CodecError("SOS before SOF");
  const int ncomp = p.u8();
  if (ncomp != static_cast<int>(st.comps.size())) {
    throw CodecError("SOS: non-interleaved scans not supported");
  }
  for (int i = 0; i < ncomp; ++i) {
    const int cid = p.u8();
    const std::uint8_t tables = p.u8();
    if ((tables >> 4) > 3 || (tables & 0x0F) > 3) {
      throw CodecError("SOS: Huffman table selector out of range");
    }
    bool found = false;
    for (auto& c : st.comps) {
      if (c.id == cid) {
        c.dc_table = tables >> 4;
        c.ac_table = tables & 0x0F;
        found = true;
      }
    }
    if (!found) throw CodecError("SOS: unknown component id");
  }
  p.skip(3);  // Ss, Se, Ah/Al — fixed for baseline
  st.scan_start = p.pos;
}

}  // namespace

DecoderState parse_headers(std::span<const std::uint8_t> data) {
  Parser p{data};
  DecoderState st;
  if (p.u8() != 0xFF || p.u8() != 0xD8) throw CodecError("missing SOI marker");
  while (true) {
    std::uint8_t b = p.u8();
    if (b != 0xFF) throw CodecError("expected marker");
    std::uint8_t marker = p.u8();
    while (marker == 0xFF) marker = p.u8();  // fill bytes
    switch (marker) {
      case 0xC0:  // SOF0 baseline
      case 0xC1: {
        const std::uint16_t len = p.u16();
        (void)len;
        parse_sof0(p, st);
        break;
      }
      case 0xC2:
        throw CodecError("progressive JPEG (SOF2) not supported");
      case 0xC4: {
        const std::uint16_t len = p.u16();
        parse_dht(p, st, len);
        break;
      }
      case 0xDB: {
        const std::uint16_t len = p.u16();
        parse_dqt(p, st, len);
        break;
      }
      case 0xDD: {
        const std::uint16_t len = p.u16();
        if (len != 4) throw CodecError("DRI: bad length");
        st.restart_interval = p.u16();
        break;
      }
      case 0xDA: {
        const std::uint16_t len = p.u16();
        (void)len;
        parse_sos(p, st);
        return st;  // entropy data follows
      }
      case 0xD9:
        throw CodecError("EOI before SOS (no image data)");
      default: {
        if (marker >= 0xD0 && marker <= 0xD7) throw CodecError("unexpected RST marker");
        // Skippable segment (APPn, COM, ...)
        const std::uint16_t len = p.u16();
        if (len < 2) throw CodecError("bad segment length");
        p.skip(len - 2u);
        break;
      }
    }
  }
}

namespace {

/// Entropy-decodes one 8x8 block into `coeffs` (already dequantized via
/// `c.dequant`). Returns true when the block carries only a DC coefficient,
/// letting the caller skip the IDCT entirely.
inline bool decode_block(BitReader& br, ScanComponent& c, const DecodeTable& dc,
                         const DecodeTable& ac, float coeffs[64]) {
  // Fused symbol+magnitude window: one peek covers the Huffman code (lookup
  // hits are <= kHuffLookupBits bits) and the magnitude bits that follow, so
  // the common case pays one refill check and one consume per coefficient.
  constexpr int kWindow = kHuffLookupBits + 11;  // longest baseline magnitude
  {
    const std::uint32_t w = br.peek(kWindow);
    const std::uint16_t entry = dc.lookup[w >> (kWindow - kHuffLookupBits)];
    int ssss;
    if (entry != 0 && (entry >> 8) <= 11) {  // baseline DC magnitude bound
      const int len = entry & 0xFF;
      ssss = entry >> 8;
      if (ssss > 0) {
        const auto v = static_cast<int>((w >> (kWindow - len - ssss)) &
                                        ((1u << ssss) - 1u));
        br.consume(len + ssss);
        c.dc_pred += extend(v, ssss);
      } else {
        br.consume(len);
      }
    } else {
      ssss = entry != 0 ? dc.decode(br) : dc.decode_slow(br);
      // Baseline DC magnitudes are at most 11 bits (T.81 table F.1); a
      // corrupted table can hand back any byte, which would overflow
      // the shifts in extend().
      if (ssss > 15) throw CodecError("DC magnitude category out of range");
      if (ssss > 0) c.dc_pred += extend(static_cast<int>(br.get_bits(ssss)), ssss);
    }
  }
  coeffs[0] = static_cast<float>(c.dc_pred) * c.dequant[0];

  int k = 1;
  bool dc_only = true;
  while (k < 64) {
    const std::uint32_t w = br.peek(kWindow);
    const std::uint32_t w9 = w >> (kWindow - kHuffLookupBits);
    int run, v = 0;
    if (const std::int32_t fast = ac.fast_ac[w9]; fast != 0) {
      // Code and magnitude both inside the primary window: one load yields
      // the run, the coefficient and the bit count.
      br.consume(fast & 0x0F);
      run = (fast >> 4) & 0x0F;
      v = fast >> 8;
    } else if (const std::uint16_t entry = ac.lookup[w9];
               entry != 0 && (entry & 0xFF) + ((entry >> 8) & 0x0F) <= kWindow) {
      const int len = entry & 0xFF;
      const int rs = entry >> 8;
      const int size = rs & 0x0F;
      run = rs >> 4;
      if (size > 0) {
        v = extend(static_cast<int>((w >> (kWindow - len - size)) &
                                    ((1u << size) - 1u)),
                   size);
        br.consume(len + size);
      } else {
        br.consume(len);
      }
    } else {
      const std::uint8_t rs = entry != 0 ? ac.decode(br) : ac.decode_slow(br);
      const int size = rs & 0x0F;
      run = rs >> 4;
      if (size > 0) v = extend(static_cast<int>(br.get_bits(size)), size);
    }
    // A coefficient with a nonzero size never extends to 0, so v == 0 is
    // exactly the size-0 symbols.
    if (v == 0) {
      if (run == 15) {
        k += 16;  // ZRL
        continue;
      }
      break;  // EOB
    }
    if (dc_only) {
      // First nonzero AC: zero the rest of the block lazily so DC-only
      // blocks (the common case in smooth regions) never touch it.
      std::memset(coeffs + 1, 0, 63 * sizeof(float));
      dc_only = false;
    }
    k += run;
    if (k > 63) throw CodecError("AC run past end of block");
    const int nat = kZigZag[static_cast<std::size_t>(k)];
    coeffs[nat] = static_cast<float>(v) * c.dequant[static_cast<std::size_t>(nat)];
    ++k;
  }
  return dc_only;
}

}  // namespace

EntropyStage::EntropyStage(std::span<const std::uint8_t> data, bool fast_idct)
    : st_(parse_headers(data)),
      fast_idct_(fast_idct),
      br_(data.data() + st_.scan_start, data.size() - st_.scan_start) {
  FrameLayout& f = layout_;
  f.width = st_.width;
  f.height = st_.height;
  for (const auto& c : st_.comps) {
    f.hmax = std::max(f.hmax, c.h);
    f.vmax = std::max(f.vmax, c.v);
  }
  f.mcu_w = 8 * f.hmax;
  f.mcu_h = 8 * f.vmax;
  f.mcus_x = (f.width + f.mcu_w - 1) / f.mcu_w;
  f.mcus_y = (f.height + f.mcu_h - 1) / f.mcu_h;
  f.comps.reserve(st_.comps.size());
  for (auto& c : st_.comps) {
    if (!st_.quant_present[static_cast<std::size_t>(c.quant_id)]) {
      throw CodecError("missing quantization table");
    }
    f.comps.push_back({c.h, c.v, f.mcus_x * c.h, f.blocks_per_mcu});
    f.blocks_per_mcu += static_cast<std::size_t>(c.h * c.v);
    const auto& quant = st_.quant[static_cast<std::size_t>(c.quant_id)];
    const auto& prescale = idct_prescale();
    for (int i = 0; i < kBlockSize; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      c.dequant[idx] = fast_idct ? static_cast<float>(quant[idx]) * prescale[idx]
                                 : static_cast<float>(quant[idx]);
    }
  }
}

CoeffRow EntropyStage::make_row() const {
  CoeffRow row;
  const std::size_t n = static_cast<std::size_t>(layout_.mcus_x) * layout_.blocks_per_mcu;
  row.coeffs.resize(n * kBlockSize);
  row.dc_only.resize(n);
  return row;
}

template <typename Dest, typename Done>
void EntropyStage::decode_blocks(Dest&& dest, Done&& done) {
  // A local reader stays in registers: the member would be reloaded after
  // every byte store, since those may alias it.
  BitReader br = br_;
  std::size_t block = 0;
  for (int mx = 0; mx < layout_.mcus_x; ++mx) {
    if (st_.restart_interval > 0 && mcu_count_ > 0 && mcu_count_ % st_.restart_interval == 0) {
      br.consume_restart_marker();
      for (auto& c : st_.comps) c.dc_pred = 0;
    }
    ++mcu_count_;
    for (std::size_t ci = 0; ci < st_.comps.size(); ++ci) {
      ScanComponent& c = st_.comps[ci];
      const auto& dc = st_.dc_tables[static_cast<std::size_t>(c.dc_table)];
      const auto& ac = st_.ac_tables[static_cast<std::size_t>(c.ac_table)];
      if (!dc.present || !ac.present) throw CodecError("missing Huffman table");
      for (int by = 0; by < c.v; ++by) {
        for (int bx = 0; bx < c.h; ++bx, ++block) {
          float* coeffs = dest(block);
          const bool dc_only = decode_block(br, c, dc, ac, coeffs);
          if (fast_idct_) {
            // The IDCT is linear and a pure-DC input is flat, so the +128
            // level shift folds into the DC coefficient: a DC-only block's
            // samples all equal it, and the other blocks' IDCT output needs
            // no shift.
            coeffs[0] += 128.0f;
          } else if (dc_only) {
            std::memset(coeffs + 1, 0, 63 * sizeof(float));
          }
          done(block, ci, mx, bx, by, coeffs, dc_only);
        }
      }
    }
  }
  br_ = br;
}

void EntropyStage::decode_row(CoeffRow& out) {
  float* const coeffs = out.coeffs.data();
  std::uint8_t* const dc_flags = out.dc_only.data();
  decode_blocks([coeffs](std::size_t block) { return coeffs + block * kBlockSize; },
                [dc_flags](std::size_t block, std::size_t, int, int, int, const float*,
                           bool dc_only) { dc_flags[block] = dc_only ? 1 : 0; });
}

void EntropyStage::decode_row(PixelStage& pixels) {
  alignas(32) float coeffs[kBlockSize];
  decode_blocks([&coeffs](std::size_t) { return coeffs; },
                [&pixels](std::size_t, std::size_t ci, int mx, int bx, int by,
                          const float* block, bool dc_only) {
                  pixels.idct_block(ci, mx, bx, by, block, dc_only);
                });
}

PixelStage::PixelStage(const FrameLayout& layout, bool fast_idct)
    : layout_(layout), fast_idct_(fast_idct), kernels_(&simd::kernels()) {
  // One allocation: each component's band, then one full-width row per
  // component for horizontal upsampling.
  std::size_t size = 0;
  for (const auto& c : layout_.comps) {
    size += static_cast<std::size_t>(c.blocks_w) * 8 * static_cast<std::size_t>(c.v) * 8;
  }
  samples_.resize(size + static_cast<std::size_t>(layout_.width) * layout_.comps.size());
  float* p = samples_.data();
  for (std::size_t ci = 0; ci < layout_.comps.size(); ++ci) {
    const ComponentLayout& c = layout_.comps[ci];
    band_stride_[ci] = static_cast<std::size_t>(c.blocks_w) * 8;
    band_[ci] = p;
    p += band_stride_[ci] * static_cast<std::size_t>(c.v) * 8;
  }
  upsampled_ = p;
}

void PixelStage::idct_row(const CoeffRow& in) noexcept {
  std::size_t block = 0;
  for (int mx = 0; mx < layout_.mcus_x; ++mx) {
    for (std::size_t ci = 0; ci < layout_.comps.size(); ++ci) {
      const ComponentLayout& c = layout_.comps[ci];
      for (int by = 0; by < c.v; ++by) {
        for (int bx = 0; bx < c.h; ++bx, ++block) {
          idct_block(ci, mx, bx, by, &in.coeffs[block * kBlockSize], in.dc_only[block] != 0);
        }
      }
    }
  }
}

void PixelStage::idct_block(std::size_t ci, int mx, int bx, int by, const float* coeffs,
                            bool dc_only) noexcept {
  const std::size_t band_stride = band_stride_[ci];
  float* dst0 = band_[ci] + static_cast<std::size_t>(by) * 8u * band_stride +
                static_cast<std::size_t>(mx * layout_.comps[ci].h + bx) * 8u;
  alignas(32) float samples[64];
  if (fast_idct_ && dc_only) {
    // A DC-only block is flat: every sample equals the folded DC
    // coefficient (the AAN prescale already includes the /8).
    const float flat = coeffs[0];
    for (int y = 0; y < 8; ++y) {
      float* row = dst0 + static_cast<std::size_t>(y) * band_stride;
      for (int x = 0; x < 8; ++x) row[x] = flat;
    }
  } else if (fast_idct_) {
    kernels_->idct8x8_scaled(coeffs, samples);
    for (int y = 0; y < 8; ++y) {
      std::memcpy(dst0 + static_cast<std::size_t>(y) * band_stride, samples + y * 8,
                  8 * sizeof(float));
    }
  } else {
    idct8x8_ref(coeffs, samples);
    for (int y = 0; y < 8; ++y) {
      float* row = dst0 + static_cast<std::size_t>(y) * band_stride;
      for (int x = 0; x < 8; ++x) row[x] = samples[y * 8 + x] + 128.0f;
    }
  }
}

void PixelStage::colour_row(int my, std::uint8_t* out, std::size_t stride) noexcept {
  const auto& K = *kernels_;
  const FrameLayout& f = layout_;
  // Row `y` of this MCU row for component `ci`, at full horizontal
  // resolution. Sampling factors are 1 or 2, so a component is either at
  // full resolution (its band row feeds the kernels as is) or exactly half
  // (dst[x] = src[x >> 1]); vertically, band row y * v / vmax is nearest,
  // so vertically subsampled chroma serves two image rows from one band row.
  std::array<const float*, 3> upsampled_from{};
  auto full_row = [&](std::size_t ci, int y) -> const float* {
    const ComponentLayout& c = f.comps[ci];
    const float* src = band_[ci] + static_cast<std::size_t>(y * c.v / f.vmax) * band_stride_[ci];
    if (c.h == f.hmax) return src;
    float* dst = upsampled_ + ci * static_cast<std::size_t>(f.width);
    if (upsampled_from[ci] != src) K.upsample2_row(src, dst, f.width);
    upsampled_from[ci] = src;
    return dst;
  };
  const int rows = f.rows_in(my);
  for (int y = 0; y < rows; ++y) {
    if (f.comps.size() == 1) {
      K.gray_to_u8_row(full_row(0, y), out, f.width);
    } else {
      K.ycbcr_to_rgb_row(full_row(0, y), full_row(1, y), full_row(2, y), out, f.width);
    }
    out += stride;
  }
}

}  // namespace jpeg

JpegInfo peek_jpeg_info(std::span<const std::uint8_t> data) {
  using namespace jpeg;
  DecoderState st = parse_headers(data);
  JpegInfo info;
  info.width = st.width;
  info.height = st.height;
  info.components = static_cast<int>(st.comps.size());
  info.subsampling = Subsampling::k444;
  if (st.comps.size() == 3 && st.comps[0].h == 2) {
    info.subsampling = st.comps[0].v == 2 ? Subsampling::k420 : Subsampling::k422;
  }
  return info;
}

Image decode_jpeg(std::span<const std::uint8_t> data, const JpegDecodeOptions& opts) {
  using namespace jpeg;
  const bool fast_idct = !opts.use_reference_idct;
  EntropyStage entropy{data, fast_idct};
  const FrameLayout& f = entropy.layout();
  PixelStage pixels{f, fast_idct};
  Image img{f.width, f.height, entropy.components()};
  const auto stride = static_cast<std::size_t>(f.width) * static_cast<std::size_t>(img.channels());
  std::uint8_t* out = img.data().data();
  for (int my = 0; my < f.mcus_y; ++my) {
    entropy.decode_row(pixels);
    pixels.colour_row(my, out, stride);
    out += static_cast<std::size_t>(f.rows_in(my)) * stride;
  }
  return img;
}

Image decode_jpeg(std::span<const std::uint8_t> data) { return decode_jpeg(data, {}); }

}  // namespace serve::codec
