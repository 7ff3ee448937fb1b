#include "codec/image.h"

#include <cmath>
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

}  // namespace serve::codec
