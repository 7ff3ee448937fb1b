#include "codec/png.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>

#include "codec/deflate.h"

namespace serve::codec {

using jpeg::CodecError;

namespace {

constexpr std::array<std::uint8_t, 8> kSignature{137, 'P', 'N', 'G', 13, 10, 26, 10};

std::uint32_t crc32(const std::uint8_t* data, std::size_t len,
                    std::uint32_t crc = 0xFFFFFFFFu) noexcept {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  for (std::size_t i = 0; i < len; ++i) crc = table[(crc ^ data[i]) & 0xFF] ^ (crc >> 8);
  return crc;
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 24));
  out.push_back(static_cast<std::uint8_t>((v >> 16) & 0xFF));
  out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xFF));
  out.push_back(static_cast<std::uint8_t>(v & 0xFF));
}

void put_chunk(std::vector<std::uint8_t>& out, const char type[4],
               std::span<const std::uint8_t> payload) {
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  const std::size_t type_at = out.size();
  out.insert(out.end(), type, type + 4);
  out.insert(out.end(), payload.begin(), payload.end());
  const std::uint32_t crc =
      crc32(out.data() + type_at, 4 + payload.size()) ^ 0xFFFFFFFFu;
  put_u32(out, crc);
}

int paeth(int a, int b, int c) noexcept {
  const int p = a + b - c;
  const int pa = std::abs(p - a), pb = std::abs(p - b), pc = std::abs(p - c);
  if (pa <= pb && pa <= pc) return a;
  if (pb <= pc) return b;
  return c;
}

/// Applies filter `type` to one row into `dst` (without the leading filter
/// byte). `prev` is the previous unfiltered row (nullptr on the first row).
void filter_row(int type, const std::uint8_t* row, const std::uint8_t* prev, int bytes, int bpp,
                std::uint8_t* dst) {
  for (int i = 0; i < bytes; ++i) {
    const int left = i >= bpp ? row[i - bpp] : 0;
    const int up = prev != nullptr ? prev[i] : 0;
    const int ul = (prev != nullptr && i >= bpp) ? prev[i - bpp] : 0;
    int v = row[i];
    switch (type) {
      case 0: break;
      case 1: v -= left; break;
      case 2: v -= up; break;
      case 3: v -= (left + up) / 2; break;
      case 4: v -= paeth(left, up, ul); break;
      default: throw CodecError("png: bad filter type");
    }
    dst[i] = static_cast<std::uint8_t>(v & 0xFF);
  }
}

/// Reverses filter `type` in place; `row` holds filtered bytes on entry.
void unfilter_row(int type, std::uint8_t* row, const std::uint8_t* prev, int bytes, int bpp) {
  for (int i = 0; i < bytes; ++i) {
    const int left = i >= bpp ? row[i - bpp] : 0;
    const int up = prev != nullptr ? prev[i] : 0;
    const int ul = (prev != nullptr && i >= bpp) ? prev[i - bpp] : 0;
    int v = row[i];
    switch (type) {
      case 0: break;
      case 1: v += left; break;
      case 2: v += up; break;
      case 3: v += (left + up) / 2; break;
      case 4: v += paeth(left, up, ul); break;
      default: throw CodecError("png: bad filter type in stream");
    }
    row[i] = static_cast<std::uint8_t>(v & 0xFF);
  }
}

struct ChunkReader {
  std::span<const std::uint8_t> data;
  std::size_t pos = 0;

  struct Chunk {
    char type[5];
    std::span<const std::uint8_t> payload;
  };

  Chunk next() {
    if (pos + 12 > data.size()) throw CodecError("png: truncated chunk");
    const std::uint32_t len = (static_cast<std::uint32_t>(data[pos]) << 24) |
                              (static_cast<std::uint32_t>(data[pos + 1]) << 16) |
                              (static_cast<std::uint32_t>(data[pos + 2]) << 8) |
                              static_cast<std::uint32_t>(data[pos + 3]);
    if (pos + 12 + len > data.size()) throw CodecError("png: chunk length beyond stream");
    Chunk c{};
    std::memcpy(c.type, data.data() + pos + 4, 4);
    c.type[4] = '\0';
    c.payload = data.subspan(pos + 8, len);
    const std::uint32_t stored = (static_cast<std::uint32_t>(data[pos + 8 + len]) << 24) |
                                 (static_cast<std::uint32_t>(data[pos + 9 + len]) << 16) |
                                 (static_cast<std::uint32_t>(data[pos + 10 + len]) << 8) |
                                 static_cast<std::uint32_t>(data[pos + 11 + len]);
    if ((crc32(data.data() + pos + 4, 4 + len) ^ 0xFFFFFFFFu) != stored) {
      throw CodecError("png: chunk CRC mismatch");
    }
    pos += 12 + len;
    return c;
  }
};

PngInfo parse_ihdr(std::span<const std::uint8_t> p) {
  if (p.size() != 13) throw CodecError("png: bad IHDR length");
  PngInfo info;
  info.width = static_cast<int>((p[0] << 24) | (p[1] << 16) | (p[2] << 8) | p[3]);
  info.height = static_cast<int>((p[4] << 24) | (p[5] << 16) | (p[6] << 8) | p[7]);
  const int depth = p[8], color = p[9], interlace = p[12];
  if (info.width <= 0 || info.height <= 0) throw CodecError("png: bad dimensions");
  // Cap total pixels so a corrupted IHDR cannot demand a multi-gigabyte
  // allocation before inflation even starts.
  if (static_cast<std::int64_t>(info.width) * info.height > (std::int64_t{1} << 26)) {
    throw CodecError("png: image dimensions exceed decoder limit");
  }
  if (depth != 8) throw CodecError("png: only 8-bit depth supported");
  if (color == 0) {
    info.channels = 1;
  } else if (color == 2) {
    info.channels = 3;
  } else {
    throw CodecError("png: unsupported color type (palette/alpha)");
  }
  if (p[10] != 0 || p[11] != 0) throw CodecError("png: bad compression/filter method");
  if (interlace != 0) throw CodecError("png: interlaced images unsupported");
  return info;
}

}  // namespace

std::vector<std::uint8_t> encode_png(const Image& img, const PngEncodeOptions& opts) {
  if (img.empty()) throw std::invalid_argument("encode_png: empty image");
  const int bpp = img.channels();
  const int row_bytes = img.width() * bpp;

  // Filter all scanlines into the raw stream (filter byte + row data each).
  std::vector<std::uint8_t> raw;
  raw.reserve(static_cast<std::size_t>(img.height()) *
              (static_cast<std::size_t>(row_bytes) + 1));
  std::vector<std::uint8_t> candidate(static_cast<std::size_t>(row_bytes));
  std::vector<std::uint8_t> best(static_cast<std::size_t>(row_bytes));
  for (int y = 0; y < img.height(); ++y) {
    const std::uint8_t* row = img.data().data() + static_cast<std::size_t>(y) *
                                                      static_cast<std::size_t>(row_bytes);
    const std::uint8_t* prev =
        y > 0 ? img.data().data() + static_cast<std::size_t>(y - 1) *
                                        static_cast<std::size_t>(row_bytes)
              : nullptr;
    int best_type = 0;
    if (!opts.adaptive_filters) {
      filter_row(0, row, prev, row_bytes, bpp, best.data());
    } else {
      long best_score = -1;
      for (int type = 0; type < 5; ++type) {
        filter_row(type, row, prev, row_bytes, bpp, candidate.data());
        long score = 0;
        for (int i = 0; i < row_bytes; ++i) {
          // Sum of absolute values interpreting bytes as signed deltas.
          const auto v = static_cast<std::int8_t>(candidate[static_cast<std::size_t>(i)]);
          score += std::abs(static_cast<int>(v));
        }
        if (best_score < 0 || score < best_score) {
          best_score = score;
          best_type = type;
          std::swap(best, candidate);
        }
      }
    }
    raw.push_back(static_cast<std::uint8_t>(best_type));
    raw.insert(raw.end(), best.begin(), best.end());
  }

  std::vector<std::uint8_t> out(kSignature.begin(), kSignature.end());
  std::vector<std::uint8_t> ihdr;
  put_u32(ihdr, static_cast<std::uint32_t>(img.width()));
  put_u32(ihdr, static_cast<std::uint32_t>(img.height()));
  ihdr.push_back(8);                                        // bit depth
  ihdr.push_back(img.channels() == 3 ? 2 : 0);              // color type
  ihdr.insert(ihdr.end(), {0, 0, 0});                       // compression/filter/interlace
  put_chunk(out, "IHDR", ihdr);
  const auto idat = zlib_compress(raw);
  put_chunk(out, "IDAT", idat);
  put_chunk(out, "IEND", {});
  return out;
}

PngInfo peek_png_info(std::span<const std::uint8_t> data) {
  if (data.size() < kSignature.size() ||
      !std::equal(kSignature.begin(), kSignature.end(), data.begin())) {
    throw CodecError("png: bad signature");
  }
  ChunkReader reader{data, kSignature.size()};
  const auto chunk = reader.next();
  if (std::strcmp(chunk.type, "IHDR") != 0) throw CodecError("png: first chunk is not IHDR");
  return parse_ihdr(chunk.payload);
}

Image decode_png(std::span<const std::uint8_t> data) {
  if (data.size() < kSignature.size() ||
      !std::equal(kSignature.begin(), kSignature.end(), data.begin())) {
    throw CodecError("png: bad signature");
  }
  ChunkReader reader{data, kSignature.size()};
  PngInfo info;
  bool have_ihdr = false;
  std::vector<std::uint8_t> idat;
  while (true) {
    const auto chunk = reader.next();
    if (std::strcmp(chunk.type, "IHDR") == 0) {
      info = parse_ihdr(chunk.payload);
      have_ihdr = true;
    } else if (std::strcmp(chunk.type, "IDAT") == 0) {
      if (!have_ihdr) throw CodecError("png: IDAT before IHDR");
      idat.insert(idat.end(), chunk.payload.begin(), chunk.payload.end());
    } else if (std::strcmp(chunk.type, "IEND") == 0) {
      break;
    } else if (!(chunk.type[0] & 0x20)) {
      // Unknown *critical* chunk: refuse. Ancillary chunks are skipped.
      throw CodecError("png: unknown critical chunk");
    }
  }
  if (!have_ihdr || idat.empty()) throw CodecError("png: missing IHDR or IDAT");

  const int bpp = info.channels;
  const int row_bytes = info.width * bpp;
  const std::size_t expected =
      static_cast<std::size_t>(info.height) * (static_cast<std::size_t>(row_bytes) + 1);
  auto raw = zlib_decompress(idat, expected);
  if (raw.size() != expected) throw CodecError("png: decompressed size mismatch");

  Image img{info.width, info.height, info.channels};
  const std::uint8_t* prev = nullptr;
  for (int y = 0; y < info.height; ++y) {
    std::uint8_t* src = raw.data() + static_cast<std::size_t>(y) *
                                         (static_cast<std::size_t>(row_bytes) + 1);
    const int type = *src++;
    unfilter_row(type, src, prev, row_bytes, bpp);
    std::memcpy(img.data().data() +
                    static_cast<std::size_t>(y) * static_cast<std::size_t>(row_bytes),
                src, static_cast<std::size_t>(row_bytes));
    prev = src;
  }
  return img;
}

}  // namespace serve::codec
