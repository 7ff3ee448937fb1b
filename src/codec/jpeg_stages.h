// The two stages of a baseline JPEG decode:
//
//  - EntropyStage (stage A): header parse, then entropy decoding of each
//    MCU row into dequantized coefficient blocks (a CoeffRow);
//  - PixelStage (stage B): IDCT of those blocks into one MCU row of
//    samples, then chroma upsample and colour conversion into 8-bit rows.
//
// On one thread the stages alternate per block, so a block's coefficients
// stay in L1 between them (decode_jpeg, and BatchPreprocessor when every
// thread has images of its own). BatchPreprocessor runs a lone image's
// stages on two threads, handing off one MCU row at a time, and feeds stage
// B's rows straight into a RowResizer and normalization. Internal to the
// codec library.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "codec/bit_io.h"
#include "codec/jpeg_huffman.h"
#include "codec/jpeg_tables.h"
#include "codec/simd_kernels.h"

namespace serve::codec::jpeg {

/// Component geometry shared by both stages.
struct ComponentLayout {
  int h = 1, v = 1;             ///< sampling factors
  int blocks_w = 0;             ///< plane width in 8x8 blocks (MCU-padded)
  std::size_t first_block = 0;  ///< this component's first block within an MCU
};

/// Frame geometry, fixed once the headers are parsed.
struct FrameLayout {
  int width = 0, height = 0;
  int hmax = 1, vmax = 1;
  int mcu_w = 8, mcu_h = 8;
  int mcus_x = 0, mcus_y = 0;
  std::vector<ComponentLayout> comps;
  std::size_t blocks_per_mcu = 0;

  /// Image rows that MCU row `my` covers (the last one may be short).
  [[nodiscard]] int rows_in(int my) const noexcept {
    const int left = height - my * mcu_h;
    return left < mcu_h ? left : mcu_h;
  }
};

/// The coefficient blocks of one MCU row, in stream order: block (bx, by)
/// of component `c` in MCU `mx` sits at index
/// `mx * blocks_per_mcu + comps[c].first_block + by * h + bx`.
struct CoeffRow {
  /// 64 floats per block in natural order, dequantized. On the fast IDCT
  /// path they are prescaled and coefficient 0 carries the +128 level shift.
  std::vector<float> coeffs;
  /// 1 when the block has no AC coefficient (its coefficients past 0 are
  /// then stale on the fast path, and zero on the reference path).
  std::vector<std::uint8_t> dc_only;
};

struct ScanComponent {
  int id = 0;
  int h = 1, v = 1;
  int quant_id = 0;
  int dc_table = 0, ac_table = 0;
  int dc_pred = 0;
  /// Dequantization table in natural order. On the fast path the AAN IDCT's
  /// per-coefficient prescale is folded in, so entropy decode writes
  /// IDCT-ready coefficients directly.
  std::array<float, kBlockSize> dequant{};
};

struct DecoderState {
  int width = 0, height = 0;
  std::vector<ScanComponent> comps;
  std::array<std::array<std::uint16_t, kBlockSize>, 4> quant{};
  std::array<bool, 4> quant_present{};
  std::array<DecodeTable, 4> dc_tables;
  std::array<DecodeTable, 4> ac_tables;
  int restart_interval = 0;
  bool have_sof = false;
  std::size_t scan_start = 0;  ///< offset of entropy data after SOS header
};

/// Parses markers up to SOS. Throws CodecError on malformed input.
[[nodiscard]] DecoderState parse_headers(std::span<const std::uint8_t> data);

class PixelStage;

/// Stage A. `data` must outlive the stage.
class EntropyStage {
 public:
  /// Parses the headers and checks the quantization tables; throws
  /// CodecError as decode_jpeg does. `fast_idct` picks the coefficient form
  /// PixelStage's matching mode expects.
  EntropyStage(std::span<const std::uint8_t> data, bool fast_idct);

  [[nodiscard]] const FrameLayout& layout() const noexcept { return layout_; }
  [[nodiscard]] int components() const noexcept { return static_cast<int>(st_.comps.size()); }

  /// A row buffer sized for this frame.
  [[nodiscard]] CoeffRow make_row() const;

  /// Entropy-decodes the next MCU row into `out`. Throws CodecError on
  /// corrupt entropy data.
  void decode_row(CoeffRow& out);

  /// The one-thread schedule: entropy-decodes the next MCU row and has
  /// `pixels` transform each block as soon as it is decoded, so the IDCT of
  /// one block overlaps the entropy decoding of the next. Throws as the
  /// overload above.
  void decode_row(PixelStage& pixels);

 private:
  /// Decodes the next MCU row: `dest(i)` gives the storage of its i-th
  /// block, then `done(i, component, mx, bx, by, coeffs, dc_only)` takes it.
  template <typename Dest, typename Done>
  void decode_blocks(Dest&& dest, Done&& done);

  DecoderState st_;
  FrameLayout layout_;
  bool fast_idct_;
  BitReader br_;
  int mcu_count_ = 0;
};

/// Stage B. Holds one MCU row of samples per component; allocation-free and
/// non-throwing once constructed.
class PixelStage {
 public:
  PixelStage(const FrameLayout& layout, bool fast_idct);

  /// Transforms the MCU row `in` into the current row's samples.
  void idct_row(const CoeffRow& in) noexcept;

  /// Transforms block (bx, by) of component `ci` in MCU `mx` of the current
  /// MCU row.
  void idct_block(std::size_t ci, int mx, int bx, int by, const float* coeffs,
                  bool dc_only) noexcept;

  /// Colour-converts the current MCU row, number `my`, into
  /// `layout.rows_in(my)` image rows of `width * components` bytes each,
  /// `stride` bytes apart. Every MCU of the row must have been transformed.
  void colour_row(int my, std::uint8_t* out, std::size_t stride) noexcept;

 private:
  FrameLayout layout_;
  bool fast_idct_;
  const simd::KernelTable* kernels_;
  /// Per component, `v * 8` sample rows of `blocks_w * 8` floats (one MCU
  /// row), then the full-resolution rows for horizontal upsampling.
  std::vector<float> samples_;
  std::array<float*, 3> band_{};
  std::array<std::size_t, 3> band_stride_{};  ///< floats per band row
  float* upsampled_ = nullptr;
};

}  // namespace serve::codec::jpeg
