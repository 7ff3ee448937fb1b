#include "workload/popularity.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <utility>

namespace serve::workload {

PopularityModel PopularityModel::zipf(std::size_t distinct, double skew) {
  if (distinct == 0) throw std::invalid_argument("PopularityModel: need at least one item");
  if (!std::isfinite(skew) || skew < 0.0) {
    throw std::invalid_argument("PopularityModel: skew must be finite and non-negative");
  }
  PopularityModel m;
  m.cdf_.resize(distinct);
  double total = 0.0;
  for (std::size_t i = 0; i < distinct; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), skew);
    m.cdf_[i] = total;
  }
  for (double& c : m.cdf_) c /= total;
  m.cdf_.back() = 1.0;  // guard against accumulated rounding
  return m;
}

std::size_t PopularityModel::sample(sim::Rng& rng) const {
  const double u = rng.uniform();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  const auto idx = static_cast<std::size_t>(it - cdf_.begin());
  return std::min(idx, cdf_.size() - 1);
}

double PopularityModel::mass(std::size_t i) const {
  if (i >= cdf_.size()) throw std::out_of_range("PopularityModel::mass: index out of range");
  return i == 0 ? cdf_[0] : cdf_[i] - cdf_[i - 1];
}

serving::ImageSource popular_corpus_source(std::vector<CorpusEntry> corpus,
                                           PopularityModel popularity) {
  if (corpus.empty()) throw std::invalid_argument("popular_corpus_source: empty corpus");
  if (popularity.size() != corpus.size()) {
    throw std::invalid_argument(
        "popular_corpus_source: popularity model size must match corpus size");
  }
  // shared_ptr captures keep the returned std::function copyable.
  auto data = std::make_shared<std::vector<CorpusEntry>>(std::move(corpus));
  auto pop = std::make_shared<PopularityModel>(std::move(popularity));
  return [data, pop](sim::Rng& rng) {
    const CorpusEntry& e = (*data)[pop->sample(rng)];
    return serving::RequestDesc{e.spec, e.content_hash};
  };
}

}  // namespace serve::workload
