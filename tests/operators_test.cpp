// Tests for the operator layer: prox library (with nonexpansiveness
// property sweeps), Jacobi / projected Jacobi, gradient, the paper's
// Definition-4 backward-forward operator, the classic forward-backward,
// Krasnoselskii-Mann averaging, the contraction estimator, the read
// sets a Jacobi partition carries (and its wrappers inherit), and the
// reference solve's parallel sweep.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "asyncit/linalg/norms.hpp"
#include "asyncit/operators/contraction.hpp"
#include "asyncit/operators/gradient.hpp"
#include "asyncit/operators/jacobi.hpp"
#include "asyncit/operators/krasnoselskii.hpp"
#include "asyncit/operators/projected_jacobi.hpp"
#include "asyncit/operators/prox.hpp"
#include "asyncit/operators/prox_gradient.hpp"
#include "asyncit/operators/relaxation.hpp"
#include "asyncit/problems/linear_system.hpp"
#include "asyncit/problems/quadratic.hpp"
#include "asyncit/support/check.hpp"
#include "asyncit/support/rng.hpp"
#include "counting_operator.hpp"

namespace asyncit::op {
namespace {

using problems::LinearSystem;
using problems::make_diagonally_dominant_system;
using problems::make_separable_quadratic;

// ------------------------------------------------------------------- prox

TEST(Prox, SoftThreshold) {
  EXPECT_DOUBLE_EQ(soft_threshold(3.0, 1.0), 2.0);
  EXPECT_DOUBLE_EQ(soft_threshold(-3.0, 1.0), -2.0);
  EXPECT_DOUBLE_EQ(soft_threshold(0.5, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(soft_threshold(-0.5, 1.0), 0.0);
}

TEST(Prox, L1MatchesSoftThreshold) {
  auto g = make_l1_prox(2.0);
  EXPECT_DOUBLE_EQ(g->prox(0, 5.0, 0.5), 4.0);  // threshold = 0.5*2 = 1
  EXPECT_DOUBLE_EQ(g->value(la::Vector{1.0, -2.0}), 6.0);
}

TEST(Prox, SquaredL2Shrinks) {
  auto g = make_squared_l2_prox(3.0);
  EXPECT_DOUBLE_EQ(g->prox(0, 4.0, 1.0), 1.0);  // 4 / (1+3)
  EXPECT_DOUBLE_EQ(g->value(la::Vector{2.0}), 6.0);
}

TEST(Prox, BoxProjects) {
  auto g = make_box_prox(-1.0, 2.0);
  EXPECT_DOUBLE_EQ(g->prox(0, 5.0, 1.0), 2.0);
  EXPECT_DOUBLE_EQ(g->prox(0, -5.0, 1.0), -1.0);
  EXPECT_DOUBLE_EQ(g->prox(0, 0.5, 1.0), 0.5);
}

TEST(Prox, LowerBoundPerCoordinate) {
  auto g = make_lower_bound_prox({0.0, 1.0});
  EXPECT_DOUBLE_EQ(g->prox(0, -2.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(g->prox(1, 0.5, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(g->prox(1, 3.0, 1.0), 3.0);
}

TEST(Prox, ElasticNetComposesThresholdAndShrink) {
  auto g = make_elastic_net_prox(1.0, 1.0);
  // gamma=1: soft(4,1)/(1+1) = 3/2
  EXPECT_DOUBLE_EQ(g->prox(0, 4.0, 1.0), 1.5);
}

TEST(Prox, ZeroIsIdentity) {
  auto g = make_zero_prox();
  EXPECT_DOUBLE_EQ(g->prox(0, 1.25, 0.7), 1.25);
  EXPECT_DOUBLE_EQ(g->value(la::Vector{9.0}), 0.0);
}

// Property: prox operators of convex functions are nonexpansive per
// coordinate: |prox(u) - prox(v)| <= |u - v|.
class ProxNonexpansive : public ::testing::TestWithParam<const char*> {};

std::unique_ptr<ProxOperator> make_prox(const std::string& which) {
  if (which == "zero") return make_zero_prox();
  if (which == "l1") return make_l1_prox(0.7);
  if (which == "l2") return make_squared_l2_prox(1.3);
  if (which == "elastic") return make_elastic_net_prox(0.5, 0.8);
  if (which == "box") return make_box_prox(-2.0, 1.5);
  if (which == "lower") return make_lower_bound_prox(la::Vector(1, 0.25));
  return nullptr;
}

TEST_P(ProxNonexpansive, CoordinatewiseNonexpansive) {
  auto g = make_prox(GetParam());
  ASSERT_NE(g, nullptr);
  Rng rng(21);
  for (int trial = 0; trial < 500; ++trial) {
    const double u = rng.uniform(-10.0, 10.0);
    const double v = rng.uniform(-10.0, 10.0);
    const double gamma = rng.uniform(0.01, 3.0);
    const double pu = g->prox(0, u, gamma);
    const double pv = g->prox(0, v, gamma);
    EXPECT_LE(std::abs(pu - pv), std::abs(u - v) + 1e-12)
        << g->name() << " at u=" << u << " v=" << v;
  }
}

INSTANTIATE_TEST_SUITE_P(AllProx, ProxNonexpansive,
                         ::testing::Values("zero", "l1", "l2", "elastic",
                                           "box", "lower"));

// Property: prox minimizes g(v) + (1/2γ)|v-x|²; perturbing the output
// must not reduce the objective (first-order optimality spot check).
class ProxOptimality : public ::testing::TestWithParam<const char*> {};

TEST_P(ProxOptimality, OutputIsMinimizer) {
  const std::string which = GetParam();
  auto g = make_prox(which);
  ASSERT_NE(g, nullptr);
  Rng rng(22);
  auto objective = [&](double v, double x, double gamma) {
    // g restricted to one coordinate
    double gval = 0.0;
    if (which == "l1") gval = 0.7 * std::abs(v);
    if (which == "l2") gval = 0.5 * 1.3 * v * v;
    if (which == "elastic") gval = 0.5 * std::abs(v) + 0.5 * 0.8 * v * v;
    if (which == "box") {
      if (v < -2.0 || v > 1.5) return 1e100;
    }
    if (which == "lower") {
      if (v < 0.25) return 1e100;
    }
    return gval + (v - x) * (v - x) / (2.0 * gamma);
  };
  for (int trial = 0; trial < 200; ++trial) {
    const double x = rng.uniform(-5.0, 5.0);
    const double gamma = rng.uniform(0.1, 2.0);
    const double p = g->prox(0, x, gamma);
    const double fp = objective(p, x, gamma);
    for (double eps : {-1e-3, 1e-3, -0.1, 0.1}) {
      EXPECT_LE(fp, objective(p + eps, x, gamma) + 1e-9)
          << which << " x=" << x << " gamma=" << gamma;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllProx, ProxOptimality,
                         ::testing::Values("zero", "l1", "l2", "elastic",
                                           "box", "lower"));

// ----------------------------------------------------------------- Jacobi

class JacobiFixture : public ::testing::Test {
 protected:
  JacobiFixture() : rng_(42) {
    sys_ = make_diagonally_dominant_system(30, 4, 2.0, rng_);
  }
  Rng rng_;
  LinearSystem sys_;
};

TEST_F(JacobiFixture, FixedPointSolvesSystem) {
  JacobiOperator jac(sys_.a, sys_.b, la::Partition::scalar(sys_.dim()));
  const la::Vector x = picard_solve(jac, la::zeros(sys_.dim()), 5000, 1e-14);
  // residual A x - b
  la::Vector ax(sys_.dim());
  sys_.a.matvec(x, ax);
  for (std::size_t i = 0; i < sys_.dim(); ++i)
    EXPECT_NEAR(ax[i], sys_.b[i], 1e-9);
  EXPECT_LT(fixed_point_residual(jac, x), 1e-10);
}

TEST_F(JacobiFixture, ContractionBoundBelowOneAndObserved) {
  JacobiOperator jac(sys_.a, sys_.b, la::Partition::scalar(sys_.dim()));
  const double bound = jac.contraction_bound();
  EXPECT_LT(bound, 1.0);
  EXPECT_GT(bound, 0.0);
  const la::Vector x_star =
      picard_solve(jac, la::zeros(sys_.dim()), 5000, 1e-14);
  la::WeightedMaxNorm norm(jac.partition());
  const auto est = estimate_contraction(jac, x_star, norm, rng_, 64, 2.0);
  EXPECT_LE(est.max_factor, bound + 1e-9);
}

TEST_F(JacobiFixture, BlockPartitionGivesSameFixedPoint) {
  JacobiOperator scalar(sys_.a, sys_.b, la::Partition::scalar(sys_.dim()));
  JacobiOperator blocked(sys_.a, sys_.b,
                         la::Partition::balanced(sys_.dim(), 5));
  const la::Vector xs = picard_solve(scalar, la::zeros(sys_.dim()), 5000,
                                     1e-14);
  const la::Vector xb = picard_solve(blocked, la::zeros(sys_.dim()), 5000,
                                     1e-14);
  EXPECT_LT(la::dist_inf(xs, xb), 1e-10);
}

TEST(Jacobi, RejectsZeroDiagonal) {
  auto a = la::CsrMatrix::from_triplets(2, 2, {{0, 0, 1.0}, {0, 1, 1.0},
                                               {1, 0, 1.0}});
  EXPECT_THROW(JacobiOperator(a, la::Vector{1.0, 1.0},
                              la::Partition::scalar(2)),
               CheckError);
}

TEST(ProjectedJacobi, RespectsLowerBoundEverywhere) {
  Rng rng(7);
  LinearSystem sys = make_diagonally_dominant_system(20, 3, 2.0, rng);
  la::Vector lower(20, 0.5);
  ProjectedJacobiOperator proj(sys.a, sys.b, lower,
                               la::Partition::scalar(20));
  const la::Vector x = picard_solve(proj, la::zeros(20), 5000, 1e-13);
  for (double v : x) EXPECT_GE(v, 0.5 - 1e-12);
  EXPECT_LT(fixed_point_residual(proj, x), 1e-10);
}

// --------------------------------------------------------------- gradient

TEST(GradientOperator, FixedPointIsMinimizer) {
  Rng rng(3);
  auto f = make_separable_quadratic(16, 0.5, 4.0, rng);
  GradientOperator grad(*f, f->suggested_step(),
                        la::Partition::scalar(f->dim()));
  const la::Vector x = picard_solve(grad, la::zeros(f->dim()), 10000, 1e-14);
  EXPECT_LT(la::dist_inf(x, f->minimizer()), 1e-10);
}

TEST(GradientOperator, ContractionFactorMatchesTheoryOnSeparable) {
  Rng rng(5);
  auto f = make_separable_quadratic(24, 1.0, 9.0, rng);
  const double gamma = f->suggested_step();  // 2/(mu+L) = 0.2
  GradientOperator grad(*f, gamma, la::Partition::scalar(f->dim()));
  // theory: factor = (L-mu)/(L+mu) = 0.8 = 1 - gamma*mu
  const double expected = (f->lipschitz() - f->mu()) /
                          (f->lipschitz() + f->mu());
  EXPECT_NEAR(grad.contraction_factor(), expected, 1e-12);
  la::WeightedMaxNorm norm(grad.partition());
  const auto est = estimate_contraction(grad, f->minimizer(), norm, rng,
                                        128, 3.0);
  EXPECT_LE(est.max_factor, expected + 1e-9);
  // the bound is tight on separable problems (the extreme curvature
  // coordinate attains it)
  EXPECT_GT(est.max_factor, expected - 0.05);
}

TEST(GradientOperator, RejectsNonpositiveStep) {
  Rng rng(5);
  auto f = make_separable_quadratic(4, 1.0, 2.0, rng);
  EXPECT_THROW(GradientOperator(*f, 0.0, la::Partition::scalar(4)),
               CheckError);
}

// --------------------------------------------- backward-forward (Def. 4)

class ProxGradFixture : public ::testing::Test {
 protected:
  ProxGradFixture() : rng_(11) {
    f_ = make_separable_quadratic(20, 0.8, 5.0, rng_);
    g_ = make_l1_prox(0.3);
    gamma_ = f_->suggested_step();
  }
  Rng rng_;
  std::unique_ptr<problems::SeparableQuadratic> f_;
  std::unique_ptr<ProxOperator> g_;
  double gamma_ = 0.0;
};

TEST_F(ProxGradFixture, BackwardForwardFixedPointRecoversMinimizer) {
  BackwardForwardOperator bf(*f_, *g_, gamma_,
                             la::Partition::scalar(f_->dim()));
  ForwardBackwardOperator fb(*f_, *g_, gamma_,
                             la::Partition::scalar(f_->dim()));
  const la::Vector x_bar = picard_solve(bf, la::zeros(f_->dim()), 20000,
                                        1e-14);
  const la::Vector z = bf.solution_from_fixed_point(x_bar);
  const la::Vector x_fb = picard_solve(fb, la::zeros(f_->dim()), 20000,
                                       1e-14);
  // prox of the BF fixed point is the FB fixed point = the minimizer
  EXPECT_LT(la::dist_inf(z, x_fb), 1e-9);
}

TEST_F(ProxGradFixture, SeparableMinimizerSatisfiesSubgradientCondition) {
  // For separable quadratic + l1 the minimizer is the soft-thresholded
  // center: x_i = soft(c_i, lambda/a_i).
  ForwardBackwardOperator fb(*f_, *g_, gamma_,
                             la::Partition::scalar(f_->dim()));
  const la::Vector x = picard_solve(fb, la::zeros(f_->dim()), 20000, 1e-14);
  for (std::size_t i = 0; i < f_->dim(); ++i) {
    const double expected = soft_threshold(
        f_->minimizer()[i], 0.3 / f_->curvatures()[i]);
    EXPECT_NEAR(x[i], expected, 1e-9) << "coordinate " << i;
  }
}

TEST_F(ProxGradFixture, BackwardForwardContractsWithRho) {
  BackwardForwardOperator bf(*f_, *g_, gamma_,
                             la::Partition::scalar(f_->dim()));
  EXPECT_NEAR(bf.rho(), gamma_ * f_->mu(), 1e-15);
  const la::Vector x_bar = picard_solve(bf, la::zeros(f_->dim()), 20000,
                                        1e-14);
  la::WeightedMaxNorm norm(bf.partition());
  const auto est = estimate_contraction(bf, x_bar, norm, rng_, 128, 2.0);
  EXPECT_LE(est.max_factor, 1.0 - bf.rho() + 1e-9);
}

TEST_F(ProxGradFixture, RejectsStepOutsideAdmissibleRange) {
  EXPECT_THROW(BackwardForwardOperator(*f_, *g_, 2.0 * gamma_,
                                       la::Partition::scalar(f_->dim())),
               CheckError);
}

TEST_F(ProxGradFixture, ZeroProxReducesToGradientDescent) {
  auto zero = make_zero_prox();
  BackwardForwardOperator bf(*f_, *zero, gamma_,
                             la::Partition::scalar(f_->dim()));
  GradientOperator grad(*f_, gamma_, la::Partition::scalar(f_->dim()));
  Rng rng(2);
  la::Vector x(f_->dim());
  for (auto& v : x) v = rng.normal();
  la::Vector y1(f_->dim()), y2(f_->dim());
  bf.apply(x, y1);
  grad.apply(x, y2);
  EXPECT_LT(la::dist_inf(y1, y2), 1e-14);
}

// ------------------------------------------------------------------- KM

TEST(KrasnoselskiiMann, EtaOneIsInnerOperator) {
  Rng rng(13);
  auto f = make_separable_quadratic(8, 1.0, 3.0, rng);
  GradientOperator grad(*f, f->suggested_step(), la::Partition::scalar(8));
  KrasnoselskiiMannOperator km(grad, 1.0);
  la::Vector x(8, 1.0), y1(8), y2(8);
  km.apply(x, y1);
  grad.apply(x, y2);
  EXPECT_LT(la::dist_inf(y1, y2), 1e-15);
}

TEST(KrasnoselskiiMann, DampingPreservesFixedPoint) {
  Rng rng(17);
  auto f = make_separable_quadratic(12, 1.0, 6.0, rng);
  GradientOperator grad(*f, f->suggested_step(), la::Partition::scalar(12));
  KrasnoselskiiMannOperator km(grad, 0.4);
  const la::Vector x = picard_solve(km, la::zeros(12), 40000, 1e-14);
  EXPECT_LT(la::dist_inf(x, f->minimizer()), 1e-9);
}

TEST(KrasnoselskiiMann, RejectsBadEta) {
  Rng rng(17);
  auto f = make_separable_quadratic(4, 1.0, 2.0, rng);
  GradientOperator grad(*f, 0.1, la::Partition::scalar(4));
  EXPECT_THROW(KrasnoselskiiMannOperator(grad, 0.0), CheckError);
  EXPECT_THROW(KrasnoselskiiMannOperator(grad, 1.5), CheckError);
}

// ------------------------------------------------------------ read sets

TEST(ReadSets, JacobiReadsTheBlocksItsRowsHaveColumnsIn) {
  // Tridiagonal 6x6 in three blocks of two rows: the middle block reads
  // both neighbours, the end blocks one each.
  std::vector<la::Triplet> t;
  for (std::uint32_t i = 0; i < 6; ++i) {
    t.push_back({i, i, 4.0});
    if (i > 0) t.push_back({i, i - 1, -1.0});
    if (i + 1 < 6) t.push_back({i, i + 1, -1.0});
  }
  const la::CsrMatrix a = la::CsrMatrix::from_triplets(6, 6, std::move(t));
  JacobiOperator jacobi(a, la::Vector(6, 1.0), la::Partition::balanced(6, 3));
  const la::Partition& p = jacobi.partition();
  ASSERT_TRUE(p.has_reads());
  using Blocks = std::vector<la::BlockId>;
  auto list = [](std::span<const la::BlockId> s) {
    return Blocks(s.begin(), s.end());
  };
  EXPECT_EQ(list(p.reads(0)), (Blocks{0, 1}));
  EXPECT_EQ(list(p.reads(1)), (Blocks{0, 1, 2}));
  EXPECT_EQ(list(p.reads(2)), (Blocks{1, 2}));
  EXPECT_EQ(list(p.readers(0)), (Blocks{0, 1}));
  EXPECT_EQ(list(p.readers(1)), (Blocks{0, 1, 2}));
  EXPECT_EQ(list(p.readers(2)), (Blocks{1, 2}));
  // Copies share the read sets; a partition built directly has none.
  const la::Partition copy = p;
  EXPECT_TRUE(copy.has_reads());
  EXPECT_FALSE(la::Partition::balanced(6, 3).has_reads());
}

/// A prox step on the inner operator's output (the c15 wrapper's shape):
/// it forwards the inner partition, and so inherits its read sets.
class SoftThresholdedJacobi final : public BlockOperator {
 public:
  SoftThresholdedJacobi(const JacobiOperator& inner, double tau)
      : inner_(inner), tau_(tau) {}
  const la::Partition& partition() const override {
    return inner_.partition();
  }
  using BlockOperator::apply_block;
  void apply_block(la::BlockId b, std::span<const double> x,
                   std::span<double> out, Workspace& ws) const override {
    inner_.apply_block(b, x, out, ws);
    for (double& v : out) v = soft_threshold(v, tau_);
  }
  std::string name() const override { return "soft-thresholded-jacobi"; }

 private:
  const JacobiOperator& inner_;
  double tau_;
};

/// The read-set contract: for every block b and every block c outside
/// reads(b), perturbing block c leaves apply_block(b) bit-identical.
/// Returns how many (b, c) pairs it perturbed.
std::size_t expect_reads_cover_dependencies(const BlockOperator& op) {
  const la::Partition& p = op.partition();
  EXPECT_TRUE(p.has_reads()) << op.name();
  if (!p.has_reads()) return 0;
  Rng rng(23);
  la::Vector x(op.dim());
  for (double& v : x) v = rng.uniform(-1.0, 1.0);
  std::size_t pairs = 0;
  for (la::BlockId b = 0; b < p.num_blocks(); ++b) {
    la::Vector base(p.range(b).size());
    op.apply_block(b, x, base);
    const auto reads = p.reads(b);
    for (la::BlockId c = 0; c < p.num_blocks(); ++c) {
      if (std::binary_search(reads.begin(), reads.end(), c)) continue;
      la::Vector y = x;
      for (double& v : p.block_span(std::span<double>(y), c))
        v += rng.uniform(1.0, 2.0);
      la::Vector out(base.size());
      op.apply_block(b, y, out);
      EXPECT_EQ(out, base) << op.name() << ": block " << b
                           << " changed when block " << c << " moved";
      ++pairs;
    }
  }
  return pairs;
}

TEST(ReadSets, JacobiAndItsPartitionForwardingWrappersReadOnlyTheirSets) {
  // The c14 world's generator: 3 random off-diagonals per row, so each
  // block of four rows reads a handful of the 24 blocks.
  Rng rng(97);
  const LinearSystem sys = make_diagonally_dominant_system(96, 3, 8.0, rng);
  const la::Partition partition = la::Partition::balanced(96, 24);
  la::Vector lower(96);
  for (double& v : lower) v = rng.uniform(-0.5, 0.5);
  JacobiOperator jacobi(sys.a, sys.b, partition);
  SorJacobiOperator sor(sys.a, sys.b, 0.7, partition);
  ProjectedJacobiOperator projected(sys.a, sys.b, lower, partition);
  KrasnoselskiiMannOperator km(jacobi, 0.5);
  SoftThresholdedJacobi prox(jacobi, 0.05);
  for (const BlockOperator* op :
       std::initializer_list<const BlockOperator*>{&jacobi, &sor, &projected,
                                                   &km, &prox})
    EXPECT_GT(expect_reads_cover_dependencies(*op), 24u) << op->name();
}

TEST(ReadSets, OperatorsThatBuildTheirOwnPartitionReportNone) {
  Rng rng(5);
  auto f = make_separable_quadratic(12, 1.0, 4.0, rng);
  auto g = make_l1_prox(0.1);
  const la::Partition partition = la::Partition::balanced(12, 4);
  GradientOperator grad(*f, f->suggested_step(), partition);
  BackwardForwardOperator bf(*f, *g, f->suggested_step(), partition);
  KrasnoselskiiMannOperator km(grad, 0.5);
  EXPECT_FALSE(grad.partition().has_reads());
  EXPECT_FALSE(bf.partition().has_reads());
  EXPECT_FALSE(km.partition().has_reads());
}


// ------------------------------------------------ parallel reference solve

// picard_solve takes a further sweep thread per 2^14 rows, so these
// systems of 2^16 rows sweep on min(CPUs, blocks, 4) threads.
constexpr std::size_t kParallelRows = std::size_t{1} << 16;

/// The loop picard_solve ran before its sweep was split across threads:
/// one full application, the residual over both full vectors, a swap.
la::Vector serial_picard(const BlockOperator& op, la::Vector x,
                         std::size_t max_iters, double tol,
                         std::size_t& sweeps) {
  la::Vector y(x.size());
  sweeps = 0;
  for (std::size_t it = 0; it < max_iters; ++it) {
    op.apply(x, y);
    const double r = la::dist_inf(x, y);
    x.swap(y);
    ++sweeps;
    if (r < tol) break;
  }
  return x;
}

/// Entries whose bits differ (0.0 and -0.0 differ; equal NaNs do not).
std::size_t bits_differ(const la::Vector& a, const la::Vector& b) {
  EXPECT_EQ(a.size(), b.size());
  std::size_t n = 0;
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i)
    n += std::bit_cast<std::uint64_t>(a[i]) !=
         std::bit_cast<std::uint64_t>(b[i]);
  return n;
}

/// A parallel solve of `op` against the serial loop: x and the sweep
/// count. On a host with two or more CPUs it must also have left the
/// calling thread, or the parallel sweep was never exercised.
void expect_serial_bits(const BlockOperator& op, std::size_t max_iters) {
  std::size_t serial_sweeps = 0;
  const la::Vector expected =
      serial_picard(op, la::zeros(op.dim()), max_iters, 1e-14, serial_sweeps);
  const CountingOperator counted(op);
  const la::Vector x =
      picard_solve(counted, la::zeros(op.dim()), max_iters, 1e-14);
  EXPECT_EQ(bits_differ(x, expected), 0u)
      << op.name() << ", " << op.num_blocks() << " blocks, max_iters "
      << max_iters;
  EXPECT_EQ(counted.total_calls(), serial_sweeps * op.num_blocks());
  for (la::BlockId b = 0; b < op.num_blocks(); ++b)
    EXPECT_EQ(counted.calls(b), serial_sweeps) << "block " << b;
  if (std::thread::hardware_concurrency() >= 2 && serial_sweeps > 0) {
    EXPECT_TRUE(counted.left_the_caller()) << "every sweep ran on one thread";
  }
}

TEST(PicardSolve, ParallelSweepKeepsTheSerialLoopsBits) {
  Rng rng(5);
  const LinearSystem sys =
      make_diagonally_dominant_system(kParallelRows, 8, 2.0, rng);
  // 7 blocks split unevenly over the threads; 2 are fewer than the CPUs.
  // The capped runs compare every sweep, not only the fixed point.
  for (const std::size_t blocks : {7u, 2u}) {
    const JacobiOperator jacobi(
        sys.a, sys.b, la::Partition::balanced(kParallelRows, blocks));
    for (const std::size_t max_iters : {50000u, 3u, 0u})
      expect_serial_bits(jacobi, max_iters);
  }
}

/// x_i <- rate x_i + 1, with rate 0.9 on block `slow` and 0.1 on every
/// other block: only the thread that sweeps `slow` is slow to settle.
class OneSlowBlock final : public BlockOperator {
 public:
  OneSlowBlock(la::Partition partition, la::BlockId slow)
      : partition_(std::move(partition)), slow_(slow) {}
  const la::Partition& partition() const override { return partition_; }
  using BlockOperator::apply_block;
  void apply_block(la::BlockId b, std::span<const double> x,
                   std::span<double> out, Workspace&) const override {
    const la::BlockRange r = partition_.range(b);
    const double rate = b == slow_ ? 0.9 : 0.1;
    for (std::size_t i = 0; i < r.size(); ++i)
      out[i] = rate * x[r.begin + i] + 1.0;
  }
  std::string name() const override {
    return "slow block " + std::to_string(slow_);
  }

 private:
  la::Partition partition_;
  la::BlockId slow_;
};

TEST(PicardSolve, StopTestWaitsForTheSlowestThread) {
  // The stop test is the maximum over every thread's blocks: a solve that
  // stopped on one thread's residual would end hundreds of sweeps early.
  for (const la::BlockId slow : {0u, 6u})
    expect_serial_bits(
        OneSlowBlock(la::Partition::balanced(kParallelRows, 7), slow), 50000);
}

TEST(PicardSolve, ScratchBorrowingBlocksKeepTheirBits) {
  // Each backward-forward block borrows a full-dimension Scratch from the
  // workspace it is given, so every sweep thread must have its own.
  Rng rng(9);
  auto f = make_separable_quadratic(kParallelRows, 1.0, 2.0, rng);
  auto g = make_l1_prox(0.1);
  const BackwardForwardOperator bf(*f, *g, f->suggested_step(),
                                   la::Partition::balanced(kParallelRows, 7));
  expect_serial_bits(bf, 50000);
  expect_serial_bits(bf, 3);
}

TEST(PicardSolve, BlockExceptionIsRethrownOnTheCallerAfterItsSweep) {
  // Blocks 1 and 5 throw on sweep 3. Block 5 runs off the caller whenever
  // the sweep is split, and the serial loop would have thrown block 1's.
  Rng rng(13);
  const LinearSystem sys =
      make_diagonally_dominant_system(kParallelRows, 8, 2.0, rng);
  const JacobiOperator jacobi(sys.a, sys.b,
                              la::Partition::balanced(kParallelRows, 7));
  const CountingOperator failing(jacobi, {5, 1}, 3);
  try {
    (void)picard_solve(failing, la::zeros(kParallelRows), 50000, 1e-14);
    ADD_FAILURE() << "nothing was rethrown";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "block 1 sweep 3");
  }
  // The solve ended with the sweep that threw.
  for (la::BlockId b = 0; b < failing.num_blocks(); ++b)
    EXPECT_LE(failing.calls(b), 3u) << "block " << b;
  EXPECT_EQ(failing.calls(5), 3u);
}

}  // namespace
}  // namespace asyncit::op
