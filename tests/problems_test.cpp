// Tests for the problem substrates: linear systems, quadratics, lasso,
// logistic regression (gradients checked against finite differences;
// the raw draw and the wrapped generator consume the RNG identically),
// convex network flow (feasibility, duality), the obstacle problem
// (feasibility + complementarity), and PageRank.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>

#include "asyncit/linalg/norms.hpp"
#include "asyncit/operators/contraction.hpp"
#include "asyncit/operators/operator.hpp"
#include "asyncit/problems/composite.hpp"
#include "asyncit/problems/lasso.hpp"
#include "asyncit/problems/linear_system.hpp"
#include "asyncit/problems/logistic.hpp"
#include "asyncit/problems/markov.hpp"
#include "asyncit/problems/network_flow.hpp"
#include "asyncit/problems/obstacle.hpp"
#include "asyncit/problems/quadratic.hpp"
#include "asyncit/problems/synthetic.hpp"
#include "asyncit/support/check.hpp"
#include "asyncit/train/dataset.hpp"

namespace asyncit::problems {
namespace {

/// Central finite-difference gradient check.
void expect_gradient_matches_fd(const op::SmoothFunction& f,
                                const la::Vector& x, double h = 1e-6,
                                double tol = 1e-4) {
  la::Vector g(f.dim());
  f.gradient(x, g);
  la::Vector xp = x, xm = x;
  for (std::size_t c = 0; c < f.dim(); ++c) {
    xp[c] += h;
    xm[c] -= h;
    const double fd = (f.value(xp) - f.value(xm)) / (2.0 * h);
    EXPECT_NEAR(g[c], fd, tol) << f.name() << " coordinate " << c;
    // partial() must agree with gradient()
    EXPECT_NEAR(f.partial(c, x), g[c], 1e-10);
    xp[c] = x[c];
    xm[c] = x[c];
  }
  // partial_block must agree with gradient slices
  la::Vector block(f.dim());
  f.partial_block(0, f.dim(), x, block);
  for (std::size_t c = 0; c < f.dim(); ++c)
    EXPECT_NEAR(block[c], g[c], 1e-10);
}

// ----------------------------------------------------------- linear system

TEST(LinearSystems, DiagDominantIsJacobiContraction) {
  Rng rng(1);
  auto sys = make_diagonally_dominant_system(40, 5, 1.5, rng);
  // row dominance: |a_ii| > sum off
  for (std::size_t r = 0; r < sys.dim(); ++r) {
    const auto cols = sys.a.row_cols(r);
    const auto vals = sys.a.row_values(r);
    double off = 0.0, diag = 0.0;
    for (std::size_t k = 0; k < cols.size(); ++k) {
      if (cols[k] == r)
        diag = std::abs(vals[k]);
      else
        off += std::abs(vals[k]);
    }
    EXPECT_GT(diag, off) << "row " << r;
  }
}

TEST(LinearSystems, DiagDominantRowsMatchTripletBuild) {
  // The generator fills its rows in place; replaying the same draw into
  // triplets must give the same matrix, bit for bit, and the same b. The
  // small shapes repeat columns within a row, up to several times.
  struct Shape {
    std::size_t n, k;
    double dominance;
    std::uint64_t seed;
  };
  for (const Shape& s : {Shape{4, 3, 1.5, 1}, Shape{10, 8, 2.0, 3},
                         Shape{100, 6, 1.5, 7}, Shape{300, 3, 8.0, 11},
                         Shape{std::size_t{1} << 18, 8, 2.0, 1}}) {
    Rng gen_rng(s.seed), replay(s.seed);
    const LinearSystem sys =
        make_diagonally_dominant_system(s.n, s.k, s.dominance, gen_rng);
    std::vector<la::Triplet> t;
    for (std::uint32_t row = 0; row < s.n; ++row) {
      double off_sum = 0.0;
      for (std::size_t j = 0; j < s.k; ++j) {
        std::uint32_t col = row;
        while (col == row)
          col = static_cast<std::uint32_t>(replay.uniform_index(s.n));
        const double v = replay.uniform(-1.0, 1.0);
        off_sum += std::abs(v);
        t.push_back({row, col, v});
      }
      t.push_back({row, row, s.dominance * off_sum + 1e-3});
    }
    const la::CsrMatrix a = la::CsrMatrix::from_triplets(s.n, s.n, t);
    la::Vector b(s.n);
    for (auto& v : b) v = replay.uniform(-1.0, 1.0);
    EXPECT_TRUE(std::ranges::equal(sys.a.row_ptr(), a.row_ptr()))
        << "n " << s.n;
    EXPECT_TRUE(std::ranges::equal(sys.a.col_idx(), a.col_idx()))
        << "n " << s.n;
    EXPECT_TRUE(std::ranges::equal(sys.a.values(), a.values(),
                                   [](double x, double y) {
                                     return std::bit_cast<std::uint64_t>(x) ==
                                            std::bit_cast<std::uint64_t>(y);
                                   }))
        << "n " << s.n;
    EXPECT_EQ(sys.b, b) << "n " << s.n;
    EXPECT_EQ(gen_rng.next(), replay.next()) << "n " << s.n;
  }
}

TEST(LinearSystems, TridiagonalStructure) {
  Rng rng(2);
  auto sys = make_tridiagonal_system(10, 0.5, rng);
  EXPECT_EQ(sys.a.nnz(), 3 * 10u - 2);
  EXPECT_DOUBLE_EQ(sys.a.at(0, 0), 2.5);
  EXPECT_DOUBLE_EQ(sys.a.at(3, 4), -1.0);
  EXPECT_DOUBLE_EQ(sys.a.at(4, 3), -1.0);
}

TEST(LinearSystems, Laplacian2dRowSums) {
  auto sys = make_laplacian_2d_system(4, 4, 0.0, 1.0);
  EXPECT_EQ(sys.dim(), 16u);
  // interior point (1,1) -> id 5 has 4 neighbours
  EXPECT_DOUBLE_EQ(sys.a.at(5, 5), 4.0);
  EXPECT_DOUBLE_EQ(sys.a.at(5, 4), -1.0);
  EXPECT_DOUBLE_EQ(sys.a.at(5, 6), -1.0);
  EXPECT_DOUBLE_EQ(sys.a.at(5, 1), -1.0);
  EXPECT_DOUBLE_EQ(sys.a.at(5, 9), -1.0);
}

// -------------------------------------------------------------- quadratics

TEST(SeparableQuadratic, GradientAndMinimizer) {
  Rng rng(3);
  auto f = make_separable_quadratic(12, 0.5, 3.0, rng);
  EXPECT_DOUBLE_EQ(f->mu(), 0.5);
  EXPECT_DOUBLE_EQ(f->lipschitz(), 3.0);
  la::Vector x(12);
  for (auto& v : x) v = rng.normal();
  expect_gradient_matches_fd(*f, x);
  // minimizer has zero gradient
  la::Vector g(12);
  f->gradient(f->minimizer(), g);
  EXPECT_LT(la::norm_inf(g), 1e-12);
  EXPECT_DOUBLE_EQ(f->value(f->minimizer()), 0.0);
}

TEST(SeparableQuadratic, SuggestedStepInAdmissibleRange) {
  Rng rng(4);
  auto f = make_separable_quadratic(6, 1.0, 4.0, rng);
  EXPECT_DOUBLE_EQ(f->suggested_step(), 0.4);  // 2/(1+4)
}

TEST(SparseQuadratic, GradientMatchesFiniteDifferences) {
  Rng rng(5);
  auto f = make_sparse_quadratic(15, 3, 2.0, rng);
  la::Vector x(15);
  for (auto& v : x) v = rng.normal();
  expect_gradient_matches_fd(*f, x, 1e-5, 1e-4);
  EXPECT_GT(f->mu(), 0.0);
  EXPECT_GE(f->lipschitz(), f->mu());
}

TEST(SparseQuadratic, MirroredEntriesAreSymmetricBitForBit) {
  // Every draw adds one value to (i, j) and to (j, i) in the same input
  // order, so summing repeats in input order keeps Q exactly symmetric.
  // Six rows with eight draws each repeat every pair about three times.
  Rng rng(9);
  const auto f = make_sparse_quadratic(6, 8, 2.0, rng);
  const la::CsrMatrix& q = f->q();
  for (std::size_t r = 0; r < 6; ++r)
    for (std::size_t c = 0; c < r; ++c)
      EXPECT_EQ(std::bit_cast<std::uint64_t>(q.at(r, c)),
                std::bit_cast<std::uint64_t>(q.at(c, r)))
          << "(" << r << "," << c << ")";
}

// ------------------------------------------------------------------ lasso

TEST(LeastSquares, GradientMatchesFiniteDifferences) {
  Rng rng(6);
  LassoConfig cfg;
  cfg.samples = 30;
  cfg.features = 12;
  auto lasso = make_synthetic_lasso(cfg, rng);
  la::Vector x(12);
  for (auto& v : x) v = rng.normal();
  expect_gradient_matches_fd(*lasso.problem.f, x, 1e-6, 1e-4);
}

TEST(LeastSquares, LipschitzBoundsGradientVariation) {
  Rng rng(7);
  LassoConfig cfg;
  cfg.samples = 40;
  cfg.features = 10;
  auto lasso = make_synthetic_lasso(cfg, rng);
  const auto& f = *lasso.problem.f;
  la::Vector x(10), y(10), gx(10), gy(10);
  for (int trial = 0; trial < 50; ++trial) {
    for (auto& v : x) v = rng.normal();
    for (auto& v : y) v = rng.normal();
    f.gradient(x, gx);
    f.gradient(y, gy);
    EXPECT_LE(la::dist2(gx, gy), f.lipschitz() * la::dist2(x, y) + 1e-9);
  }
}

TEST(LeastSquares, TransposeIsExact) {
  Rng rng(8);
  auto a = make_design_matrix(9, 7, 0.4, rng);
  auto at = transpose(a);
  EXPECT_EQ(at.rows(), 7u);
  EXPECT_EQ(at.cols(), 9u);
  for (std::size_t r = 0; r < 9; ++r)
    for (std::size_t c = 0; c < 7; ++c)
      EXPECT_DOUBLE_EQ(a.at(r, c), at.at(c, r));
}

TEST(Lasso, ReferenceMinimizerIsStationary) {
  Rng rng(9);
  LassoConfig cfg;
  cfg.samples = 50;
  cfg.features = 20;
  cfg.lambda1 = 0.05;
  auto lasso = make_synthetic_lasso(cfg, rng);
  const la::Vector x = lasso.problem.reference_minimizer(100000, 1e-13);
  // objective cannot be improved by coordinate perturbations
  const double fx = lasso.problem.objective(x);
  la::Vector y = x;
  Rng perturb(10);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t c = perturb.uniform_index(20);
    const double old = y[c];
    y[c] += perturb.uniform(-1e-4, 1e-4);
    EXPECT_GE(lasso.problem.objective(y) + 1e-12, fx);
    y[c] = old;
  }
}

TEST(Lasso, RecoversSupportApproximately) {
  Rng rng(11);
  LassoConfig cfg;
  cfg.samples = 150;
  cfg.features = 40;
  cfg.support = 5;
  cfg.noise = 0.001;
  cfg.ridge = 0.01;
  cfg.lambda1 = 0.01;
  auto lasso = make_synthetic_lasso(cfg, rng);
  const la::Vector x = lasso.problem.reference_minimizer(200000, 1e-12);
  // large true coefficients should come out clearly nonzero
  for (std::size_t c = 0; c < 40; ++c) {
    if (std::abs(lasso.ground_truth[c]) > 0.5) {
      EXPECT_GT(std::abs(x[c]), 0.05) << "lost true support at " << c;
    }
  }
}

// --------------------------------------------------------------- logistic

TEST(Logistic, GradientMatchesFiniteDifferences) {
  Rng rng(12);
  LogisticConfig cfg;
  cfg.samples = 40;
  cfg.features = 10;
  auto logit = make_synthetic_logistic(cfg, rng);
  la::Vector x(10);
  for (auto& v : x) v = 0.3 * rng.normal();
  expect_gradient_matches_fd(*logit.problem.f, x, 1e-6, 1e-4);
}

TEST(Logistic, TrainingImprovesAccuracy) {
  Rng rng(13);
  LogisticConfig cfg;
  cfg.samples = 300;
  cfg.features = 20;
  cfg.label_noise = 0.02;
  auto logit = make_synthetic_logistic(cfg, rng);
  const double acc0 = logit.logistic->accuracy(la::zeros(20));
  const la::Vector x = logit.problem.reference_minimizer(50000, 1e-10);
  const double acc = logit.logistic->accuracy(x);
  EXPECT_GT(acc, 0.85);
  EXPECT_GT(acc, acc0);
}

TEST(Logistic, ValueIsConvexAlongSegments) {
  Rng rng(14);
  LogisticConfig cfg;
  cfg.samples = 30;
  cfg.features = 8;
  auto logit = make_synthetic_logistic(cfg, rng);
  const auto& f = *logit.problem.f;
  la::Vector a(8), b(8), mid(8);
  for (int trial = 0; trial < 50; ++trial) {
    for (std::size_t c = 0; c < 8; ++c) {
      a[c] = rng.normal();
      b[c] = rng.normal();
      mid[c] = 0.5 * (a[c] + b[c]);
    }
    EXPECT_LE(f.value(mid), 0.5 * (f.value(a) + f.value(b)) + 1e-9);
  }
}

TEST(Logistic, RawDrawAndWrappedGeneratorShareOneDraw) {
  LogisticConfig cfg;
  cfg.samples = 120;
  cfg.features = 24;
  cfg.label_noise = 0.1;
  for (const std::uint64_t seed : {16u, 17u}) {
    Rng raw_rng(seed), wrapped_rng(seed);
    const LogisticData raw = make_logistic_data(cfg, raw_rng);
    const SyntheticLogistic wrapped = make_synthetic_logistic(cfg, wrapped_rng);
    const la::CsrMatrix& a = wrapped.logistic->design();
    EXPECT_TRUE(std::ranges::equal(raw.design.row_ptr(), a.row_ptr()));
    EXPECT_TRUE(std::ranges::equal(raw.design.col_idx(), a.col_idx()));
    EXPECT_TRUE(std::ranges::equal(raw.design.values(), a.values()));
    EXPECT_EQ(raw.labels, wrapped.logistic->labels());
    EXPECT_EQ(raw.ground_truth, wrapped.ground_truth);
    // Both consumed the stream identically: their next draws agree.
    EXPECT_EQ(raw_rng.next(), wrapped_rng.next()) << "seed " << seed;
  }
}

TEST(Logistic, TrainingDatasetRequiresPositiveRidge) {
  LogisticConfig cfg;
  cfg.ridge = 0.0;
  EXPECT_THROW(train::make_synthetic_dataset(cfg, 1), CheckError);
}

// ------------------------------------------------------------ network flow

class NetworkFixture : public ::testing::Test {
 protected:
  NetworkFixture() : rng_(15), net_(make_random_network(12, 10, rng_)) {}
  Rng rng_;
  NetworkFlowProblem net_;
};

TEST_F(NetworkFixture, SuppliesBalance) {
  double total = 0.0;
  for (double s : net_.supplies()) total += s;
  EXPECT_NEAR(total, 0.0, 1e-9);
}

TEST_F(NetworkFixture, FlowsRespectCapacities) {
  la::Vector p(net_.num_nodes());
  for (auto& v : p) v = rng_.normal();
  const la::Vector x = net_.flows(p);
  for (std::size_t e = 0; e < net_.num_arcs(); ++e) {
    EXPECT_GE(x[e], 0.0);
    EXPECT_LE(x[e], net_.arcs()[e].cap);
  }
}

TEST_F(NetworkFixture, RelaxNodeZeroesItsExcess) {
  la::Vector p(net_.num_nodes(), 0.0);
  for (std::size_t i = 1; i < net_.num_nodes(); ++i) {
    const double new_price = net_.relax_node(i, p);
    p[i] = new_price;
    EXPECT_NEAR(net_.excess(i, p), 0.0, 1e-6) << "node " << i;
  }
}

TEST_F(NetworkFixture, SequentialRelaxationDrivesFeasibility) {
  NetworkFlowDualOperator relax(net_);
  la::Vector p = op::picard_solve(relax, la::zeros(net_.num_nodes()),
                                  3000, 1e-12);
  EXPECT_LT(net_.max_excess(p), 1e-6);
  EXPECT_NEAR(p[0], 0.0, 1e-15);  // reference node pinned
}

TEST_F(NetworkFixture, WeakDualityAndOptimalityGap) {
  NetworkFlowDualOperator relax(net_);
  la::Vector p = op::picard_solve(relax, la::zeros(net_.num_nodes()),
                                  3000, 1e-12);
  const la::Vector x = net_.flows(p);
  const double primal = net_.primal_cost(x);
  const double dual = net_.dual_value(p);
  // at the (near-)optimal prices the primal flow is (near-)feasible and
  // the duality gap closes
  EXPECT_NEAR(primal, dual, 1e-4 * std::max(1.0, std::abs(primal)));
}

TEST(NetworkFlow, GridNetworkIsFeasibleAndSolvable) {
  Rng rng(16);
  auto net = make_grid_network(4, 5, rng);
  EXPECT_EQ(net.num_nodes(), 20u);
  NetworkFlowDualOperator relax(net);
  la::Vector p = op::picard_solve(relax, la::zeros(net.num_nodes()), 5000,
                                  1e-12);
  EXPECT_LT(net.max_excess(p), 1e-6);
}

TEST(NetworkFlow, RejectsUnbalancedSupplies) {
  std::vector<Arc> arcs{{0, 1, 1.0, 0.0, 5.0}};
  EXPECT_THROW(NetworkFlowProblem(2, arcs, la::Vector{1.0, 1.0}),
               CheckError);
}

TEST(NetworkFlow, RejectsNonConvexCosts) {
  std::vector<Arc> arcs{{0, 1, 0.0, 0.0, 5.0}};
  EXPECT_THROW(NetworkFlowProblem(2, arcs, la::Vector{0.0, 0.0}),
               CheckError);
}

// --------------------------------------------------------------- obstacle

class ObstacleFixture : public ::testing::Test {
 protected:
  ObstacleFixture() : prob_(16, -30.0, -0.05, 1.0) {}
  ObstacleProblem prob_;
};

TEST_F(ObstacleFixture, ReferenceSolutionIsFeasible) {
  const la::Vector u = prob_.reference_solution(100000, 1e-12);
  EXPECT_LT(prob_.feasibility_violation(u), 1e-12);
}

TEST_F(ObstacleFixture, ReferenceSolutionSatisfiesComplementarity) {
  const la::Vector u = prob_.reference_solution(100000, 1e-12);
  EXPECT_LT(prob_.complementarity_residual(u), 1e-8);
}

TEST_F(ObstacleFixture, ContactSetIsNontrivial) {
  const la::Vector u = prob_.reference_solution(100000, 1e-12);
  const std::size_t contact = prob_.contact_count(u);
  EXPECT_GT(contact, 0u) << "obstacle never touches: test setup wrong";
  EXPECT_LT(contact, prob_.dim()) << "membrane glued to obstacle everywhere";
}

TEST_F(ObstacleFixture, ProjectedJacobiFixedPointMatchesReference) {
  auto op_ptr = prob_.make_operator(la::Partition::scalar(prob_.dim()));
  const la::Vector u_jac = op::picard_solve(*op_ptr, la::zeros(prob_.dim()),
                                            200000, 1e-12);
  const la::Vector u_ref = prob_.reference_solution(200000, 1e-13);
  EXPECT_LT(la::dist_inf(u_jac, u_ref), 1e-7);
}

// ---------------------------------------------------------------- PageRank

TEST(PageRank, ReferenceIsFixedPointAndStochastic) {
  Rng rng(17);
  auto pr = make_random_web(50, 4.0, 0.85, rng);
  const la::Vector x = pr.reference_solution();
  EXPECT_LT(pr.residual(x), 1e-12);
  double sum = 0.0;
  for (double v : x) {
    EXPECT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(PageRank, OperatorContractsInStationaryWeightedNorm) {
  Rng rng(18);
  auto pr = make_random_web(40, 3.0, 0.85, rng);
  PageRankOperator op_pr(pr);
  const la::Vector pi = pr.reference_solution();
  // weights = stationary solution (strictly positive thanks to teleport)
  la::Vector weights = pi;
  la::WeightedMaxNorm norm(op_pr.partition(), weights);
  const auto est = op::estimate_contraction(op_pr, pi, norm, rng, 64, 0.1);
  EXPECT_LE(est.max_factor, 0.85 + 1e-6);
}

TEST(PageRank, DanglingFreeGraphHasOutLinks) {
  Rng rng(19);
  auto pr = make_random_web(30, 2.0, 0.9, rng);
  // column sums of P^T (= row sums of P) are 1: every node has out-links
  la::Vector ones(30, 1.0);
  const la::Vector colsum = pr.pt().matvec_transpose(ones);
  for (double v : colsum) EXPECT_NEAR(v, 1.0, 1e-12);
}

// --------------------------------------------------------------- composite

TEST(CompositeProblem, ObjectiveAndGammaWiring) {
  Rng rng(20);
  LassoConfig cfg;
  cfg.samples = 20;
  cfg.features = 8;
  cfg.support = 4;
  auto lasso = make_synthetic_lasso(cfg, rng);
  const la::Vector x = la::zeros(8);
  EXPECT_DOUBLE_EQ(lasso.problem.objective(x),
                   lasso.problem.f->value(x) + lasso.problem.g->value(x));
  EXPECT_GT(lasso.problem.suggested_gamma(), 0.0);
  EXPECT_LE(lasso.problem.suggested_gamma(),
            2.0 / lasso.problem.f->mu());
}

}  // namespace
}  // namespace asyncit::problems
