#include "asyncit/linalg/norms.hpp"

#include <algorithm>
#include <cmath>

#include "asyncit/support/check.hpp"

namespace asyncit::la {

double block_distance(const Partition& partition, std::span<const double> x,
                      std::span<const double> y, BlockId b) {
  ASYNCIT_CHECK(x.size() == y.size());
  return block_distance(partition.block_span(x, b), partition.block_span(y, b));
}

double block_distance(std::span<const double> xb, std::span<const double> yb) {
  ASYNCIT_CHECK(xb.size() == yb.size());
  double s = 0.0;
  for (std::size_t c = 0; c < xb.size(); ++c) {
    const double d = xb[c] - yb[c];
    s += d * d;
  }
  return std::sqrt(s);
}

WeightedMaxNorm::WeightedMaxNorm(Partition partition)
    : partition_(std::move(partition)),
      weights_(partition_.num_blocks(), 1.0) {}

WeightedMaxNorm::WeightedMaxNorm(Partition partition, Vector weights)
    : partition_(std::move(partition)), weights_(std::move(weights)) {
  ASYNCIT_CHECK(weights_.size() == partition_.num_blocks());
  for (double w : weights_) ASYNCIT_CHECK(w > 0.0);
}

double WeightedMaxNorm::operator()(std::span<const double> x) const {
  double best = 0.0;
  for (BlockId b = 0; b < partition_.num_blocks(); ++b)
    best = std::max(best, block_norm(x, b));
  return best;
}

double WeightedMaxNorm::distance(std::span<const double> x,
                                 std::span<const double> y) const {
  double best = 0.0;
  for (BlockId b = 0; b < partition_.num_blocks(); ++b)
    best = std::max(best, block_distance(x, y, b));
  return best;
}

double WeightedMaxNorm::block_norm(std::span<const double> x,
                                   BlockId b) const {
  return norm2(partition_.block_span(x, b)) / weights_[b];
}

double WeightedMaxNorm::block_distance(std::span<const double> x,
                                       std::span<const double> y,
                                       BlockId b) const {
  return la::block_distance(partition_, x, y, b) / weights_[b];
}

}  // namespace asyncit::la
