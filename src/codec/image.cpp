#include "codec/image.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>

namespace serve::codec {

double mean_abs_diff(const Image& a, const Image& b) {
  if (a.width() != b.width() || a.height() != b.height() || a.channels() != b.channels()) {
    throw std::invalid_argument("mean_abs_diff: shape mismatch");
  }
  if (a.data().empty()) return 0.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    sum += std::abs(static_cast<int>(a.data()[i]) - static_cast<int>(b.data()[i]));
  }
  return sum / static_cast<double>(a.data().size());
}

double psnr(const Image& a, const Image& b) {
  if (a.width() != b.width() || a.height() != b.height() || a.channels() != b.channels()) {
    throw std::invalid_argument("psnr: shape mismatch");
  }
  double mse = 0.0;
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    const double d = static_cast<double>(a.data()[i]) - static_cast<double>(b.data()[i]);
    mse += d * d;
  }
  mse /= static_cast<double>(a.data().size());
  if (mse == 0.0) return std::numeric_limits<double>::infinity();
  return 10.0 * std::log10(255.0 * 255.0 / mse);
}

void write_pnm(const Image& img, const std::filesystem::path& path) {
  if (img.empty()) throw std::invalid_argument("write_pnm: empty image");
  std::ofstream out{path, std::ios::binary};
  if (!out) throw std::runtime_error("write_pnm: cannot open " + path.string());
  out << (img.channels() == 3 ? "P6" : "P5") << '\n'
      << img.width() << ' ' << img.height() << "\n255\n";
  out.write(reinterpret_cast<const char*>(img.data().data()),
            static_cast<std::streamsize>(img.data().size()));
  out.flush();  // the last buffered bytes can still fail (e.g. a full disk)
  if (!out) throw std::runtime_error("write_pnm: write failed for " + path.string());
}

Image read_pnm(const std::filesystem::path& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) throw std::runtime_error("read_pnm: cannot open " + path.string());
  std::string magic;
  in >> magic;
  int channels = 0;
  if (magic == "P6") {
    channels = 3;
  } else if (magic == "P5") {
    channels = 1;
  } else {
    throw std::runtime_error("read_pnm: unsupported magic '" + magic + "'");
  }
  int width = 0, height = 0, maxval = 0;
  in >> width >> height >> maxval;
  if (!in || maxval != 255) throw std::runtime_error("read_pnm: bad header");
  in.get();  // single whitespace after header
  Image img{width, height, channels};
  in.read(reinterpret_cast<char*>(img.data().data()),
          static_cast<std::streamsize>(img.data().size()));
  if (!in) throw std::runtime_error("read_pnm: truncated pixel data");
  return img;
}

}  // namespace serve::codec
