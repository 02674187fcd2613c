#include "asyncit/train/sgd.hpp"

#include <cmath>

#include "asyncit/support/check.hpp"

namespace asyncit::train {

namespace {

double sigmoid(double t) {
  return t >= 0.0 ? 1.0 / (1.0 + std::exp(-t))
                  : std::exp(t) / (1.0 + std::exp(t));
}

/// log(1 + exp(t)) without overflow.
double log1pexp(double t) {
  return t > 0.0 ? t + std::log1p(std::exp(-t)) : std::log1p(std::exp(t));
}

}  // namespace

DeltaSpan sgd_minibatch_delta(const Dataset& data, la::BlockRange shard,
                              std::size_t batch_size, double learning_rate,
                              std::span<const double> x, Rng& rng,
                              std::span<double> delta) {
  const std::size_t n = data.features();
  ASYNCIT_CHECK(x.size() == n && delta.size() == n);
  ASYNCIT_CHECK(batch_size >= 1 && shard.size() >= 1);
  for (double& d : delta) d = 0.0;
  const double inv_batch = 1.0 / static_cast<double>(batch_size);
  for (std::size_t s = 0; s < batch_size; ++s) {
    const std::size_t h = shard.begin + rng.uniform_index(shard.size());
    const double z = static_cast<double>(data.labels[h]);
    const double margin = z * data.design.row_dot(h, x);
    // dℓ/dx = −z σ(−z⟨a,x⟩) a_h, averaged over the batch.
    const double coeff = -z * sigmoid(-margin) * inv_batch;
    const std::span<const std::uint32_t> cols = data.design.row_cols(h);
    const std::span<const double> vals = data.design.row_values(h);
    for (std::size_t k = 0; k < cols.size(); ++k)
      delta[cols[k]] += coeff * vals[k];
  }
  // delta = −lr (g_batch + ridge x); fused so the scratch is written once.
  for (std::size_t i = 0; i < n; ++i)
    delta[i] = -learning_rate * (delta[i] + data.ridge * x[i]);
  // Nonzero support — at a zeros start (or ridge = 0) the batch touches a
  // strict sub-range and the frame ships only that. Entries outside the
  // support are exactly 0.0, so dropping them is bit-identical.
  std::size_t lo = 0;
  while (lo < n && delta[lo] == 0.0) ++lo;
  if (lo == n) return {0, 0};
  std::size_t hi = n;
  while (delta[hi - 1] == 0.0) --hi;
  return {static_cast<std::uint32_t>(lo), static_cast<std::uint32_t>(hi - lo)};
}

Eval dataset_eval(const Dataset& data, std::span<const double> x,
                  std::span<double> margins) {
  const std::size_t m = data.samples();
  ASYNCIT_CHECK(margins.size() == m);
  data.design.matvec(x, margins);
  double sum = 0.0;
  std::size_t correct = 0;
  for (std::size_t h = 0; h < m; ++h) {
    const double z = static_cast<double>(data.labels[h]);
    sum += log1pexp(-z * margins[h]);
    const int predicted = margins[h] >= 0.0 ? 1 : -1;
    correct += predicted == data.labels[h];
  }
  double sq = 0.0;
  for (const double xi : x) sq += xi * xi;
  return {sum / static_cast<double>(m) + 0.5 * data.ridge * sq,
          static_cast<double>(correct) / static_cast<double>(m)};
}

}  // namespace asyncit::train
