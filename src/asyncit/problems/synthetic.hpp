// Synthetic data generators for the ML instances of problem (4).
//
// The paper's experiments ran on testbeds we do not have; these generators
// produce datasets with *controlled conditioning* (mu and L enter Theorem
// 1's rate explicitly), which is precisely what makes the bound auditable.
// See DESIGN.md §2 for the substitution rationale.
//
// The logistic generator comes in two layers. make_logistic_data is the
// raw seeded draw (design, labels, truth); make_synthetic_logistic wraps
// it in the solver-side LogisticFunction. The training dataset
// (train/dataset.cpp) filters the raw draw directly, so it never pays for
// that function's transpose and spectral norm.
#pragma once

#include <cstddef>
#include <vector>

#include "asyncit/problems/composite.hpp"
#include "asyncit/problems/lasso.hpp"
#include "asyncit/problems/logistic.hpp"
#include "asyncit/support/rng.hpp"

namespace asyncit::problems {

struct LassoConfig {
  std::size_t samples = 200;       ///< m
  std::size_t features = 100;      ///< n
  double density = 0.2;            ///< nonzero fraction of the design
  std::size_t support = 10;        ///< nonzeros in the ground truth
  double noise = 0.01;             ///< observation noise stddev
  double ridge = 0.1;              ///< strong convexity mu
  double lambda1 = 0.05;           ///< l1 weight (0 => ridge regression)
};

struct SyntheticLasso {
  CompositeProblem problem;
  la::Vector ground_truth;
};

SyntheticLasso make_synthetic_lasso(const LassoConfig& cfg, Rng& rng);

struct LogisticConfig {
  std::size_t samples = 400;
  std::size_t features = 80;
  double density = 0.25;
  double separation = 2.0;  ///< margin scale of the true hyperplane
  double label_noise = 0.05;
  double ridge = 0.1;
  double lambda1 = 0.0;
};

/// The raw logistic draw, before any function is built on it.
struct LogisticData {
  la::CsrMatrix design;      ///< m×n
  std::vector<int> labels;   ///< m entries in {−1, +1}, after label noise
  la::Vector ground_truth;   ///< hyperplane the PRE-noise labels follow
};

/// Draws design, truth and labels (sign of the true margin, then each
/// label flipped with probability label_noise). The one draw both
/// generators below share: make_synthetic_logistic wraps it in a
/// LogisticFunction, train::make_synthetic_dataset filters its rows.
LogisticData make_logistic_data(const LogisticConfig& cfg, Rng& rng);

struct SyntheticLogistic {
  CompositeProblem problem;
  la::Vector ground_truth;
  /// Borrowed view of the concrete function (owned by problem.f) for
  /// accuracy reporting.
  const LogisticFunction* logistic = nullptr;
};

/// make_logistic_data wrapped in a LogisticFunction (which computes its
/// transpose and Lipschitz constant) plus the optional l1 prox.
SyntheticLogistic make_synthetic_logistic(const LogisticConfig& cfg,
                                          Rng& rng);

/// Random sparse design matrix with ~density*m*n N(0, 1/sqrt(m)) entries
/// (at least one entry per row and per column so no variable is dead).
la::CsrMatrix make_design_matrix(std::size_t m, std::size_t n, double density,
                                 Rng& rng);

}  // namespace asyncit::problems
