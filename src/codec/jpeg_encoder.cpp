#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <vector>

#include "codec/dct.h"
#include "codec/jpeg.h"
#include "codec/jpeg_tables.h"

namespace serve::codec {

namespace jpeg {
namespace {

/// Canonical Huffman encode table: code + length per symbol.
struct EncodeTable {
  std::array<std::uint16_t, 256> code{};
  std::array<std::uint8_t, 256> length{};
};

/// Runtime Huffman table specification (BITS + HUFFVAL), either one of the
/// Annex K defaults or an optimized per-image table.
struct TableSpec {
  std::array<std::uint8_t, 16> bits{};
  std::vector<std::uint8_t> vals;
};

TableSpec from_annex_k(const HuffSpec& spec) {
  TableSpec t;
  t.bits = spec.bits;
  t.vals.assign(spec.vals.begin(), spec.vals.begin() + spec.val_count);
  return t;
}

EncodeTable build_encode_table(const TableSpec& spec) {
  EncodeTable t;
  std::uint16_t code = 0;
  std::size_t k = 0;
  for (int len = 1; len <= 16; ++len) {
    for (int i = 0; i < spec.bits[static_cast<std::size_t>(len - 1)]; ++i) {
      const std::uint8_t sym = spec.vals[k++];
      t.code[sym] = code++;
      t.length[sym] = static_cast<std::uint8_t>(len);
    }
    code = static_cast<std::uint16_t>(code << 1);
  }
  return t;
}

/// Optimal length-limited Huffman table from symbol frequencies — the
/// ITU-T T.81 Annex K.2 procedure (as implemented by libjpeg): merge the two
/// least-frequent subtrees, count code sizes, then fold lengths beyond 16
/// back into the tree. Symbol 256 is a reserved dummy guaranteeing that no
/// real symbol gets the all-ones code.
TableSpec build_optimal_table(std::array<std::uint64_t, 256> freq_in) {
  std::array<std::int64_t, 257> freq{};
  for (int i = 0; i < 256; ++i) freq[static_cast<std::size_t>(i)] = static_cast<std::int64_t>(freq_in[static_cast<std::size_t>(i)]);
  freq[256] = 1;  // reserved
  std::array<int, 257> codesize{};
  std::array<int, 257> others{};
  others.fill(-1);

  while (true) {
    // c1: least-frequency nonzero entry (ties -> higher index, per libjpeg).
    int c1 = -1;
    std::int64_t v = INT64_MAX;
    for (int i = 0; i <= 256; ++i) {
      if (freq[static_cast<std::size_t>(i)] != 0 && freq[static_cast<std::size_t>(i)] <= v) {
        v = freq[static_cast<std::size_t>(i)];
        c1 = i;
      }
    }
    // c2: next least-frequency nonzero entry.
    int c2 = -1;
    v = INT64_MAX;
    for (int i = 0; i <= 256; ++i) {
      if (freq[static_cast<std::size_t>(i)] != 0 && freq[static_cast<std::size_t>(i)] <= v && i != c1) {
        v = freq[static_cast<std::size_t>(i)];
        c2 = i;
      }
    }
    if (c2 < 0) break;  // single tree left

    freq[static_cast<std::size_t>(c1)] += freq[static_cast<std::size_t>(c2)];
    freq[static_cast<std::size_t>(c2)] = 0;
    for (++codesize[static_cast<std::size_t>(c1)]; others[static_cast<std::size_t>(c1)] >= 0;
         ++codesize[static_cast<std::size_t>(c1)]) {
      c1 = others[static_cast<std::size_t>(c1)];
    }
    others[static_cast<std::size_t>(c1)] = c2;
    for (++codesize[static_cast<std::size_t>(c2)]; others[static_cast<std::size_t>(c2)] >= 0;
         ++codesize[static_cast<std::size_t>(c2)]) {
      c2 = others[static_cast<std::size_t>(c2)];
    }
  }

  std::array<int, 33> bits{};
  for (int i = 0; i <= 256; ++i) {
    if (codesize[static_cast<std::size_t>(i)] > 0) ++bits[static_cast<std::size_t>(codesize[static_cast<std::size_t>(i)])];
  }
  // Fold code lengths > 16 (JPEG limit) back into shorter lengths.
  for (int i = 32; i > 16; --i) {
    while (bits[static_cast<std::size_t>(i)] > 0) {
      int j = i - 2;
      while (bits[static_cast<std::size_t>(j)] == 0) --j;
      bits[static_cast<std::size_t>(i)] -= 2;
      ++bits[static_cast<std::size_t>(i - 1)];
      bits[static_cast<std::size_t>(j + 1)] += 2;
      --bits[static_cast<std::size_t>(j)];
    }
  }
  // Remove the reserved symbol's slot from the longest used length.
  int longest = 16;
  while (longest > 0 && bits[static_cast<std::size_t>(longest)] == 0) --longest;
  if (longest > 0) --bits[static_cast<std::size_t>(longest)];

  TableSpec out;
  for (int i = 1; i <= 16; ++i) out.bits[static_cast<std::size_t>(i - 1)] = static_cast<std::uint8_t>(bits[static_cast<std::size_t>(i)]);
  // HUFFVAL: symbols ordered by code size then symbol value.
  for (int size = 1; size <= 32; ++size) {
    for (int sym = 0; sym < 256; ++sym) {
      if (codesize[static_cast<std::size_t>(sym)] == size) out.vals.push_back(static_cast<std::uint8_t>(sym));
    }
  }
  return out;
}

/// Bit category of a coefficient value (T.81 F.1.2.1.2).
int category(int v) noexcept {
  int a = v < 0 ? -v : v;
  int s = 0;
  while (a != 0) {
    a >>= 1;
    ++s;
  }
  return s;
}

/// Value bits: negative values encode as v-1 in ssss low bits.
std::uint32_t value_bits(int v, int ssss) noexcept {
  return static_cast<std::uint32_t>(v >= 0 ? v : v + (1 << ssss) - 1);
}

void emit_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v & 0xFF));
}

void emit_marker(std::vector<std::uint8_t>& out, std::uint8_t marker) {
  out.push_back(0xFF);
  out.push_back(marker);
}

void emit_dqt(std::vector<std::uint8_t>& out, int table_id,
              const std::array<std::uint16_t, kBlockSize>& q) {
  emit_marker(out, 0xDB);
  emit_u16(out, 2 + 1 + 64);
  out.push_back(static_cast<std::uint8_t>(table_id));  // Pq=0 (8-bit), Tq=id
  for (int i = 0; i < kBlockSize; ++i) {
    out.push_back(static_cast<std::uint8_t>(q[kZigZag[static_cast<std::size_t>(i)]]));
  }
}

void emit_dht(std::vector<std::uint8_t>& out, int cls, int id, const TableSpec& spec) {
  emit_marker(out, 0xC4);
  emit_u16(out, static_cast<std::uint16_t>(2 + 1 + 16 + spec.vals.size()));
  out.push_back(static_cast<std::uint8_t>((cls << 4) | id));
  for (auto b : spec.bits) out.push_back(b);
  for (auto v : spec.vals) out.push_back(v);
}

/// One quantized block in zig-zag order, tagged with its component.
struct Block {
  std::array<int, 64> zz;
  std::uint8_t comp;  ///< 0 = Y, 1 = Cb, 2 = Cr (DC prediction is per component)
};

/// Walks the block sequence exactly as the entropy coder will, invoking
/// `dc(cls, ssss, diff)` and `ac(cls, sym, value, size)` per symbol. Shared
/// by the statistics pass and the emit pass so they can never diverge.
template <typename DcFn, typename AcFn, typename RestartFn>
void scan_symbols(const std::vector<Block>& blocks, int blocks_per_mcu, int restart_interval,
                  DcFn&& dc, AcFn&& ac, RestartFn&& restart) {
  int dc_pred[3] = {0, 0, 0};
  int mcu = 0, in_mcu = 0;
  for (const Block& b : blocks) {
    if (in_mcu == 0 && restart_interval > 0 && mcu > 0 && mcu % restart_interval == 0) {
      restart();
      dc_pred[0] = dc_pred[1] = dc_pred[2] = 0;
    }
    const int cls = b.comp == 0 ? 0 : 1;  // table class: luma vs chroma
    const int diff = b.zz[0] - dc_pred[b.comp];
    dc_pred[b.comp] = b.zz[0];
    dc(cls, category(diff), diff);
    int run = 0;
    for (int k = 1; k < 64; ++k) {
      if (b.zz[static_cast<std::size_t>(k)] == 0) {
        ++run;
        continue;
      }
      while (run >= 16) {
        ac(cls, 0xF0, 0, 0);  // ZRL
        run -= 16;
      }
      const int v = b.zz[static_cast<std::size_t>(k)];
      const int s = category(v);
      ac(cls, (run << 4) | s, v, s);
      run = 0;
    }
    if (run > 0) ac(cls, 0x00, 0, 0);  // EOB
    if (++in_mcu == blocks_per_mcu) {
      in_mcu = 0;
      ++mcu;
    }
  }
}

/// Extracts, level-shifts, transforms and quantizes one block from a plane.
Block quantize_block(const std::vector<float>& plane, int pw, int ph, int bx, int by,
                     const std::array<std::uint16_t, kBlockSize>& quant, std::uint8_t comp) {
  float block[64];
  for (int y = 0; y < 8; ++y) {
    const int sy = std::min(by + y, ph - 1);
    for (int x = 0; x < 8; ++x) {
      const int sx = std::min(bx + x, pw - 1);
      block[y * 8 + x] = plane[static_cast<std::size_t>(sy) * static_cast<std::size_t>(pw) +
                               static_cast<std::size_t>(sx)] -
                         128.0f;
    }
  }
  float coeffs[64];
  fdct8x8(block, coeffs);
  Block out;
  out.comp = comp;
  for (int i = 0; i < 64; ++i) {
    const int nat = kZigZag[static_cast<std::size_t>(i)];
    out.zz[static_cast<std::size_t>(i)] = static_cast<int>(
        std::lround(coeffs[nat] / static_cast<float>(quant[static_cast<std::size_t>(nat)])));
  }
  return out;
}

}  // namespace
}  // namespace jpeg

std::vector<std::uint8_t> encode_jpeg(const Image& img, const JpegEncodeOptions& opts) {
  using namespace jpeg;
  if (img.empty()) throw std::invalid_argument("encode_jpeg: empty image");
  // SOF0 and DRI carry these as 16-bit fields; a larger value would be
  // written truncated and decode as a different image or stream.
  if (img.width() > 65535 || img.height() > 65535) {
    throw std::invalid_argument("encode_jpeg: width and height must be at most 65535");
  }
  if (opts.restart_interval_mcus > 65535) {
    throw std::invalid_argument("encode_jpeg: restart_interval_mcus must be at most 65535");
  }
  const bool gray = img.channels() == 1;
  // Luma sampling factors per subsampling mode (chroma is always 1x1).
  const int hy = !gray && opts.subsampling != Subsampling::k444 ? 2 : 1;
  const int vy = !gray && opts.subsampling == Subsampling::k420 ? 2 : 1;
  const int w = img.width(), h = img.height();

  // Quality-scaled quantization tables (natural order).
  std::array<std::uint16_t, kBlockSize> luma_q{}, chroma_q{};
  for (int i = 0; i < kBlockSize; ++i) {
    luma_q[static_cast<std::size_t>(i)] =
        scale_quant(kLumaQuant[static_cast<std::size_t>(i)], opts.quality);
    chroma_q[static_cast<std::size_t>(i)] =
        scale_quant(kChromaQuant[static_cast<std::size_t>(i)], opts.quality);
  }

  // Color conversion to planar YCbCr.
  const auto npix = static_cast<std::size_t>(w) * static_cast<std::size_t>(h);
  std::vector<float> yp(npix), cb, cr;
  if (!gray) {
    cb.resize(npix);
    cr.resize(npix);
  }
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      const auto i = static_cast<std::size_t>(y) * static_cast<std::size_t>(w) +
                     static_cast<std::size_t>(x);
      if (gray) {
        yp[i] = static_cast<float>(img.at(x, y, 0));
      } else {
        const float r = img.at(x, y, 0), g = img.at(x, y, 1), b = img.at(x, y, 2);
        yp[i] = 0.299f * r + 0.587f * g + 0.114f * b;
        cb[i] = -0.168736f * r - 0.331264f * g + 0.5f * b + 128.0f;
        cr[i] = 0.5f * r - 0.418688f * g - 0.081312f * b + 128.0f;
      }
    }
  }

  // Chroma subsampling by box filter (hy x vy).
  int cw = w, ch = h;
  if (!gray && (hy > 1 || vy > 1)) {
    cw = (w + hy - 1) / hy;
    ch = (h + vy - 1) / vy;
    std::vector<float> scb(static_cast<std::size_t>(cw) * static_cast<std::size_t>(ch));
    std::vector<float> scr(scb.size());
    for (int y = 0; y < ch; ++y) {
      for (int x = 0; x < cw; ++x) {
        float sb = 0.0f, sr = 0.0f;
        int n = 0;
        for (int dy = 0; dy < vy; ++dy) {
          for (int dx = 0; dx < hy; ++dx) {
            const int sy = vy * y + dy, sx = hy * x + dx;
            if (sy < h && sx < w) {
              const auto i = static_cast<std::size_t>(sy) * static_cast<std::size_t>(w) +
                             static_cast<std::size_t>(sx);
              sb += cb[i];
              sr += cr[i];
              ++n;
            }
          }
        }
        const auto o = static_cast<std::size_t>(y) * static_cast<std::size_t>(cw) +
                       static_cast<std::size_t>(x);
        scb[o] = sb / static_cast<float>(n);
        scr[o] = sr / static_cast<float>(n);
      }
    }
    cb = std::move(scb);
    cr = std::move(scr);
  }

  // --- pass A: quantize every block in MCU order ---
  const int mcu_w = 8 * hy, mcu_h = 8 * vy;
  const int mcus_x = (w + mcu_w - 1) / mcu_w;
  const int mcus_y = (h + mcu_h - 1) / mcu_h;
  const int blocks_per_mcu = gray ? 1 : hy * vy + 2;
  std::vector<Block> blocks;
  blocks.reserve(static_cast<std::size_t>(mcus_x) * static_cast<std::size_t>(mcus_y) *
                 static_cast<std::size_t>(blocks_per_mcu));
  for (int my = 0; my < mcus_y; ++my) {
    for (int mx = 0; mx < mcus_x; ++mx) {
      for (int by = 0; by < vy; ++by) {
        for (int bx = 0; bx < hy; ++bx) {
          blocks.push_back(quantize_block(yp, w, h, mx * mcu_w + bx * 8, my * mcu_h + by * 8,
                                          luma_q, 0));
        }
      }
      if (!gray) {
        blocks.push_back(quantize_block(cb, cw, ch, mx * 8, my * 8, chroma_q, 1));
        blocks.push_back(quantize_block(cr, cw, ch, mx * 8, my * 8, chroma_q, 2));
      }
    }
  }

  // --- Huffman tables: Annex K defaults or per-image optimal ---
  TableSpec dc_spec[2] = {from_annex_k(kLumaDc), from_annex_k(kChromaDc)};
  TableSpec ac_spec[2] = {from_annex_k(kLumaAc), from_annex_k(kChromaAc)};
  if (opts.optimize_huffman) {
    std::array<std::uint64_t, 256> dc_freq[2] = {{}, {}};
    std::array<std::uint64_t, 256> ac_freq[2] = {{}, {}};
    scan_symbols(
        blocks, blocks_per_mcu, opts.restart_interval_mcus,
        [&](int cls, int ssss, int) { ++dc_freq[cls][static_cast<std::size_t>(ssss)]; },
        [&](int cls, int sym, int, int) { ++ac_freq[cls][static_cast<std::size_t>(sym)]; },
        [] {});
    dc_spec[0] = build_optimal_table(dc_freq[0]);
    ac_spec[0] = build_optimal_table(ac_freq[0]);
    if (!gray) {
      dc_spec[1] = build_optimal_table(dc_freq[1]);
      ac_spec[1] = build_optimal_table(ac_freq[1]);
    }
  }
  const EncodeTable dc_enc[2] = {build_encode_table(dc_spec[0]), build_encode_table(dc_spec[1])};
  const EncodeTable ac_enc[2] = {build_encode_table(ac_spec[0]), build_encode_table(ac_spec[1])};

  // --- headers ---
  std::vector<std::uint8_t> out;
  out.reserve(npix / 4 + 1024);
  emit_marker(out, 0xD8);  // SOI
  emit_marker(out, 0xE0);  // APP0 / JFIF 1.01
  emit_u16(out, 16);
  const char jfif[5] = {'J', 'F', 'I', 'F', '\0'};
  out.insert(out.end(), jfif, jfif + 5);
  out.insert(out.end(), {0x01, 0x01, 0x00, 0x00, 0x01, 0x00, 0x01, 0x00, 0x00});
  emit_dqt(out, 0, luma_q);
  if (!gray) emit_dqt(out, 1, chroma_q);
  emit_marker(out, 0xC0);  // SOF0 (baseline)
  const int ncomp = gray ? 1 : 3;
  emit_u16(out, static_cast<std::uint16_t>(8 + 3 * ncomp));
  out.push_back(8);  // sample precision
  emit_u16(out, static_cast<std::uint16_t>(h));
  emit_u16(out, static_cast<std::uint16_t>(w));
  out.push_back(static_cast<std::uint8_t>(ncomp));
  out.insert(out.end(), {0x01, static_cast<std::uint8_t>((hy << 4) | vy), 0x00});
  if (!gray) {
    out.insert(out.end(), {0x02, 0x11, 0x01});
    out.insert(out.end(), {0x03, 0x11, 0x01});
  }
  emit_dht(out, 0, 0, dc_spec[0]);
  emit_dht(out, 1, 0, ac_spec[0]);
  if (!gray) {
    emit_dht(out, 0, 1, dc_spec[1]);
    emit_dht(out, 1, 1, ac_spec[1]);
  }
  if (opts.restart_interval_mcus > 0) {
    emit_marker(out, 0xDD);  // DRI
    emit_u16(out, 4);
    emit_u16(out, static_cast<std::uint16_t>(opts.restart_interval_mcus));
  }
  emit_marker(out, 0xDA);  // SOS
  emit_u16(out, static_cast<std::uint16_t>(6 + 2 * ncomp));
  out.push_back(static_cast<std::uint8_t>(ncomp));
  out.insert(out.end(), {0x01, 0x00});
  if (!gray) {
    out.insert(out.end(), {0x02, 0x11});
    out.insert(out.end(), {0x03, 0x11});
  }
  out.insert(out.end(), {0x00, 0x3F, 0x00});  // Ss, Se, Ah/Al

  // --- pass B: entropy-code the stored blocks ---
  BitWriter bw{out};
  int rst_index = 0;
  scan_symbols(
      blocks, blocks_per_mcu, opts.restart_interval_mcus,
      [&](int cls, int ssss, int diff) {
        bw.put_bits(dc_enc[cls].code[static_cast<std::size_t>(ssss)],
                    dc_enc[cls].length[static_cast<std::size_t>(ssss)]);
        if (ssss > 0) bw.put_bits(value_bits(diff, ssss), ssss);
      },
      [&](int cls, int sym, int value, int size) {
        bw.put_bits(ac_enc[cls].code[static_cast<std::size_t>(sym)],
                    ac_enc[cls].length[static_cast<std::size_t>(sym)]);
        if (size > 0) bw.put_bits(value_bits(value, size), size);
      },
      [&] {
        bw.finish();
        emit_marker(out, static_cast<std::uint8_t>(0xD0 + (rst_index++ & 7)));
      });
  bw.finish();
  emit_marker(out, 0xD9);  // EOI
  return out;
}

}  // namespace serve::codec
