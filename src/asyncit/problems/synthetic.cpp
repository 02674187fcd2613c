#include "asyncit/problems/synthetic.hpp"

#include <cmath>

#include "asyncit/support/check.hpp"

namespace asyncit::problems {

la::CsrMatrix make_design_matrix(std::size_t m, std::size_t n, double density,
                                 Rng& rng) {
  ASYNCIT_CHECK(m >= 1 && n >= 1);
  ASYNCIT_CHECK(density > 0.0 && density <= 1.0);
  const double scale = 1.0 / std::sqrt(static_cast<double>(m));
  // Sized once, for the expected entry count plus six standard deviations
  // and one entry per row and per column for the fix-ups below: growing
  // by doubling would copy the vector and leave freed blocks behind, which
  // a set-up repeated in one process pays for in peak RSS.
  const double expected =
      density * static_cast<double>(m) * static_cast<double>(n);
  std::vector<la::Triplet> triplets;
  triplets.reserve(static_cast<std::size_t>(expected +
                                            6.0 * std::sqrt(expected)) +
                   m + n);
  for (std::uint32_t r = 0; r < m; ++r) {
    bool placed = false;
    for (std::uint32_t c = 0; c < n; ++c) {
      if (rng.bernoulli(density)) {
        triplets.push_back({r, c, rng.normal() * scale});
        placed = true;
      }
    }
    if (!placed) {
      const auto c = static_cast<std::uint32_t>(rng.uniform_index(n));
      triplets.push_back({r, c, rng.normal() * scale});
    }
  }
  // Ensure no dead column (a never-observed feature would make that
  // coordinate's update trivially x_c -> prox(x_c), still fine, but dead
  // columns make accuracy/recovery metrics meaningless).
  std::vector<bool> seen(n, false);
  for (const auto& t : triplets) seen[t.col] = true;
  for (std::uint32_t c = 0; c < n; ++c) {
    if (!seen[c]) {
      const auto r = static_cast<std::uint32_t>(rng.uniform_index(m));
      triplets.push_back({r, c, rng.normal() * scale});
    }
  }
  return la::CsrMatrix::from_triplets(m, n, std::move(triplets));
}

SyntheticLasso make_synthetic_lasso(const LassoConfig& cfg, Rng& rng) {
  ASYNCIT_CHECK(cfg.support <= cfg.features);
  la::CsrMatrix a = make_design_matrix(cfg.samples, cfg.features,
                                       cfg.density, rng);

  la::Vector truth(cfg.features, 0.0);
  for (std::size_t k = 0; k < cfg.support; ++k) {
    std::size_t c = rng.uniform_index(cfg.features);
    while (truth[c] != 0.0) c = rng.uniform_index(cfg.features);
    truth[c] = rng.bernoulli(0.5) ? rng.uniform(0.5, 2.0)
                                  : -rng.uniform(0.5, 2.0);
  }

  la::Vector y(cfg.samples);
  a.matvec(truth, y);
  for (auto& v : y) v += cfg.noise * rng.normal();

  SyntheticLasso out;
  out.ground_truth = truth;
  out.problem.f = std::make_shared<LeastSquaresFunction>(std::move(a),
                                                         std::move(y),
                                                         cfg.ridge);
  out.problem.g = cfg.lambda1 > 0.0
                      ? std::shared_ptr<const op::ProxOperator>(
                            op::make_l1_prox(cfg.lambda1))
                      : std::shared_ptr<const op::ProxOperator>(
                            op::make_zero_prox());
  out.problem.name = cfg.lambda1 > 0.0 ? "lasso" : "ridge";
  return out;
}

LogisticData make_logistic_data(const LogisticConfig& cfg, Rng& rng) {
  LogisticData out;
  out.design = make_design_matrix(cfg.samples, cfg.features, cfg.density,
                                  rng);

  out.ground_truth.resize(cfg.features);
  for (auto& v : out.ground_truth) v = cfg.separation * rng.normal();

  out.labels.resize(cfg.samples);
  la::Vector margins(cfg.samples);
  out.design.matvec(out.ground_truth, margins);
  for (std::size_t h = 0; h < cfg.samples; ++h) {
    out.labels[h] = margins[h] >= 0.0 ? 1 : -1;
    if (rng.bernoulli(cfg.label_noise)) out.labels[h] = -out.labels[h];
  }
  return out;
}

SyntheticLogistic make_synthetic_logistic(const LogisticConfig& cfg,
                                          Rng& rng) {
  LogisticData data = make_logistic_data(cfg, rng);
  SyntheticLogistic out;
  out.ground_truth = std::move(data.ground_truth);
  auto logistic = std::make_shared<LogisticFunction>(std::move(data.design),
                                                     std::move(data.labels),
                                                     cfg.ridge);
  out.logistic = logistic.get();
  out.problem.f = std::move(logistic);
  out.problem.g = cfg.lambda1 > 0.0
                      ? std::shared_ptr<const op::ProxOperator>(
                            op::make_l1_prox(cfg.lambda1))
                      : std::shared_ptr<const op::ProxOperator>(
                            op::make_zero_prox());
  out.problem.name = "logistic";
  return out;
}

}  // namespace asyncit::problems
