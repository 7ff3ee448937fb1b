// Zipf-skewed corpus popularity.
//
// Ingress-cache hit rates must be workload-driven, not synthetic: real
// request streams over an image corpus are heavily skewed (a few hot images
// dominate), which is what makes a content-addressed preprocess cache pay
// off (Kang et al.). PopularityModel samples corpus indices from a Zipf
// distribution with tunable skew; skew 0 degenerates to uniform.
#pragma once

#include <cstddef>
#include <vector>

#include "serving/client.h"
#include "sim/rng.h"
#include "workload/corpus.h"

namespace serve::workload {

class PopularityModel {
 public:
  /// Zipf over `distinct` items: weight(i) = 1 / (i + 1)^skew, normalized.
  /// Item 0 is the most popular. `skew` 0 is uniform; larger concentrates
  /// mass on the head. The inverse CDF is precomputed so sampling is a
  /// deterministic binary search per draw.
  [[nodiscard]] static PopularityModel zipf(std::size_t distinct, double skew);

  [[nodiscard]] static PopularityModel uniform(std::size_t distinct) {
    return zipf(distinct, 0.0);
  }

  /// Draws a corpus index in [0, size()).
  [[nodiscard]] std::size_t sample(sim::Rng& rng) const;

  [[nodiscard]] std::size_t size() const noexcept { return cdf_.size(); }

  /// Normalized popularity mass of item `i`.
  [[nodiscard]] double mass(std::size_t i) const;

 private:
  std::vector<double> cdf_;  ///< cdf_[i] = P(index <= i); back() == 1.0
};

/// Bridges a corpus + popularity model to the client harnesses: every drawn
/// request carries the sampled entry's geometry and stable content hash (so
/// the ingress cache sees real repeats). The corpus and model are moved into
/// the returned source.
[[nodiscard]] serving::ImageSource popular_corpus_source(std::vector<CorpusEntry> corpus,
                                                         PopularityModel popularity);

}  // namespace serve::workload
