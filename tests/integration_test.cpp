// Integration tests across layers: the same problems solved by the exact
// model engine, the discrete-event simulator, and the threaded runtime
// must agree with the sequential reference; the full-feature distributed
// scenario (heterogeneous machines, non-FIFO lossy channels, flexible
// communication, detection) must hold all its invariants at once; and
// Theorem 1 must hold across the admissible step-size range.
#include <gtest/gtest.h>

#include <cmath>

#include "asyncit/asyncit.hpp"

namespace asyncit {
namespace {

using model::Step;

// ---------------------------------------------------- cross-executor

class CrossExecutor : public ::testing::Test {
 protected:
  CrossExecutor() : rng_(101) {
    sys_ = problems::make_diagonally_dominant_system(48, 4, 2.0, rng_);
    partition_ = la::Partition::balanced(48, 12);
    jacobi_ = std::make_unique<op::JacobiOperator>(sys_.a, sys_.b,
                                                   partition_);
    x_star_ = op::picard_solve(*jacobi_, la::zeros(48), 100000, 1e-14);
  }
  Rng rng_;
  problems::LinearSystem sys_;
  la::Partition partition_;
  std::unique_ptr<op::JacobiOperator> jacobi_;
  la::Vector x_star_;
};

TEST_F(CrossExecutor, ModelEngineSimAndThreadsAgree) {
  // model engine
  auto steering = model::make_cyclic_steering(12);
  auto delays = model::make_uniform_delay(6);
  engine::ModelEngineOptions eopt;
  eopt.max_steps = 200000;
  eopt.tol = 1e-9;
  eopt.x_star = x_star_;
  eopt.record_error_every = 12;
  auto em = engine::run_model_engine(*jacobi_, *steering, *delays,
                                     la::zeros(48), eopt);
  ASSERT_TRUE(em.converged);
  EXPECT_LT(la::dist_inf(em.x, x_star_), 1e-8);

  // simulator
  std::vector<std::unique_ptr<sim::ComputeTimeModel>> fleet;
  for (int p = 0; p < 4; ++p)
    fleet.push_back(sim::make_uniform_compute(0.5, 1.5));
  auto latency = sim::make_uniform_latency(0.1, 0.5);
  sim::SimOptions sopt;
  sopt.tol = 1e-9;
  sopt.x_star = x_star_;
  sopt.max_steps = 400000;
  auto sm = sim::run_async_sim(*jacobi_, la::zeros(48), std::move(fleet),
                               *latency, sopt);
  ASSERT_TRUE(sm.converged);
  EXPECT_LT(la::dist_inf(sm.x, x_star_), 1e-8);

  // threads
  rt::RuntimeOptions ropt;
  ropt.workers = 2;
  ropt.tol = 1e-9;
  ropt.x_star = x_star_;
  ropt.max_seconds = 30.0;
  auto tm = rt::run_async_threads(*jacobi_, la::zeros(48), ropt);
  ASSERT_TRUE(tm.converged);
  EXPECT_LT(la::dist_inf(tm.x, x_star_), 1e-8);
}

TEST_F(CrossExecutor, LassoAcrossExecutors) {
  Rng rng(5);
  problems::LassoConfig cfg;
  cfg.samples = 100;
  cfg.features = 48;
  cfg.support = 8;
  cfg.ridge = 0.3;
  cfg.lambda1 = 0.03;
  auto lasso = problems::make_synthetic_lasso(cfg, rng);
  const la::Vector x_min = lasso.problem.reference_minimizer(200000, 1e-13);

  op::BackwardForwardOperator bf(*lasso.problem.f, *lasso.problem.g,
                                 lasso.problem.suggested_gamma(),
                                 la::Partition::balanced(48, 12));
  const la::Vector x_bar = op::picard_solve(bf, la::zeros(48), 200000,
                                            1e-14);
  // the minimizer is recovered through the prox of the BF fixed point
  EXPECT_LT(la::dist_inf(bf.solution_from_fixed_point(x_bar), x_min),
            1e-9);

  // model engine with flexible communication
  auto steering = model::make_random_subset_steering(12, 1);
  auto delays = model::make_uniform_delay(8);
  engine::ModelEngineOptions eopt;
  eopt.max_steps = 400000;
  eopt.tol = 1e-9;
  eopt.x_star = x_bar;
  eopt.inner_steps = 2;
  eopt.publish_partials = true;
  eopt.record_error_every = 12;
  auto em = engine::run_model_engine(bf, *steering, *delays, la::zeros(48),
                                     eopt);
  ASSERT_TRUE(em.converged);
  EXPECT_LT(la::dist_inf(bf.solution_from_fixed_point(em.x), x_min), 1e-7);

  // simulator with flexible communication
  std::vector<std::unique_ptr<sim::ComputeTimeModel>> fleet;
  for (int p = 0; p < 3; ++p)
    fleet.push_back(sim::make_uniform_compute(0.8, 1.2));
  auto latency = sim::make_uniform_latency(0.1, 0.4);
  sim::SimOptions sopt;
  sopt.tol = 1e-9;
  sopt.x_star = x_bar;
  sopt.inner_steps = 2;
  sopt.publish_partials = true;
  sopt.max_steps = 400000;
  auto sm = sim::run_async_sim(bf, la::zeros(48), std::move(fleet),
                               *latency, sopt);
  ASSERT_TRUE(sm.converged);
  EXPECT_LT(la::dist_inf(bf.solution_from_fixed_point(sm.x), x_min), 1e-7);
}

// ------------------------------------------------ PageRank / Markov

TEST(PageRankAsync, ConvergesInStationaryWeightedNorm) {
  // The "Markov systems" application of §III: the PageRank operator
  // contracts with factor = damping in the ‖·‖_pi weighted max norm, so
  // totally asynchronous iterations converge from any schedule.
  Rng rng(21);
  auto pr = problems::make_random_web(60, 4.0, 0.85, rng);
  problems::PageRankOperator op_pr(pr);
  const la::Vector pi = pr.reference_solution();

  auto steering = model::make_random_subset_steering(60, 3);
  auto delays = model::make_uniform_delay(12);
  engine::ModelEngineOptions opt;
  opt.max_steps = 400000;
  opt.tol = 1e-10;
  opt.x_star = pi;
  opt.norm_weights = pi;  // the natural norm for Markov chains
  opt.record_error_every = 60;
  auto r = engine::run_model_engine(op_pr, *steering, *delays,
                                    pr.teleport(), opt);
  ASSERT_TRUE(r.converged);
  EXPECT_LT(pr.residual(r.x), 1e-8);
  // measured macro rate must beat the damping-factor contraction
  const double rate = engine::measured_macro_rate(r);
  EXPECT_GT(rate, 0.0);
  EXPECT_LE(rate, 0.85 + 0.05);
}

// ------------------------------------------- full-feature distributed

TEST(FullFeature, EverythingAtOnceHoldsAllInvariants) {
  Rng rng(23);
  problems::LassoConfig cfg;
  cfg.samples = 100;
  cfg.features = 32;
  cfg.support = 6;
  cfg.ridge = 0.4;
  cfg.lambda1 = 0.02;
  auto lasso = problems::make_synthetic_lasso(cfg, rng);
  op::BackwardForwardOperator bf(*lasso.problem.f, *lasso.problem.g,
                                 lasso.problem.suggested_gamma(),
                                 la::Partition::balanced(32, 8));
  const la::Vector x_bar = op::picard_solve(bf, la::zeros(32), 200000,
                                            1e-14);

  std::vector<std::unique_ptr<sim::ComputeTimeModel>> fleet;
  fleet.push_back(sim::make_linear_compute(0.05));
  fleet.push_back(sim::make_slow_then_fast_compute(3.0, 0.5, 30));
  fleet.push_back(sim::make_pareto_compute(0.5, 2.0));
  fleet.push_back(sim::make_uniform_compute(0.5, 1.5));
  auto latency = sim::make_uniform_latency(0.1, 2.0);

  sim::SimOptions opt;
  opt.tol = 1e-8;
  opt.x_star = x_bar;
  opt.inner_steps = 2;
  opt.publish_partials = true;
  opt.fifo = false;
  opt.drop_prob = 0.02;
  opt.max_steps = 2000000;
  opt.recording = model::LabelRecording::kFull;
  auto r = sim::run_async_sim(bf, la::zeros(32), std::move(fleet),
                              *latency, opt);

  ASSERT_TRUE(r.converged);
  EXPECT_GT(r.partials_sent, 0u);
  EXPECT_GT(r.messages_dropped, 0u);
  EXPECT_TRUE(model::audit_condition_a(r.trace).holds);
  EXPECT_TRUE(model::audit_condition_c(r.trace).fair);
  EXPECT_GT(r.macro_boundaries.size(), 1u);
  EXPECT_GT(r.epoch_boundaries.size(), 1u);
  // every processor contributed
  for (std::size_t p = 0; p < r.updates_per_processor.size(); ++p)
    EXPECT_GT(r.updates_per_processor[p], 0u) << "processor " << p;
}

// ------------------------------------------------- Theorem 1 gamma sweep

class GammaSweep : public ::testing::TestWithParam<double> {};

TEST_P(GammaSweep, Theorem1HoldsAcrossAdmissibleSteps) {
  const double fraction = GetParam();  // of the max step 2/(mu+L)
  Rng rng(31);
  auto f = problems::make_separable_quadratic(16, 1.0, 8.0, rng);
  auto g = op::make_l1_prox(0.15);
  const double gamma = fraction * f->suggested_step();
  op::BackwardForwardOperator bf(*f, *g, gamma,
                                 la::Partition::scalar(16));
  const la::Vector x_bar = op::picard_solve(bf, la::zeros(16), 400000,
                                            1e-15);
  auto steering = model::make_cyclic_steering(16);
  auto delays = model::make_uniform_delay(8);
  engine::ModelEngineOptions opt;
  opt.max_steps = 400000;
  opt.tol = 1e-10;
  opt.x_star = x_bar;
  auto r = engine::run_model_engine(bf, *steering, *delays, la::zeros(16),
                                    opt);
  ASSERT_TRUE(r.converged);
  const auto report = engine::audit_theorem1(r, bf.rho());
  EXPECT_TRUE(report.holds) << "gamma fraction " << fraction
                            << " worst ratio " << report.worst_ratio;
}

INSTANTIATE_TEST_SUITE_P(StepSizes, GammaSweep,
                         ::testing::Values(0.25, 0.5, 0.75, 1.0));

// ------------------------------------------------- obstacle via sim

TEST(ObstacleSim, ExchangeFrequencyRunConverges) {
  problems::ObstacleProblem prob(12, -30.0, -0.05, 1.0);
  const la::Vector u_ref = prob.reference_solution(200000, 1e-12);
  auto oper = prob.make_operator(la::Partition::balanced(prob.dim(), 12));

  std::vector<std::unique_ptr<sim::ComputeTimeModel>> fleet;
  for (int p = 0; p < 3; ++p)
    fleet.push_back(sim::make_fixed_compute(1.0));
  auto latency = sim::make_uniform_latency(0.1, 0.4);
  sim::SimOptions opt;
  opt.tol = 1e-8;
  opt.x_star = u_ref;
  opt.inner_steps = 4;
  opt.publish_partials = true;
  opt.max_steps = 2000000;
  auto r = sim::run_async_sim(*oper, la::zeros(prob.dim()),
                              std::move(fleet), *latency, opt);
  ASSERT_TRUE(r.converged);
  EXPECT_LT(prob.feasibility_violation(r.x), 1e-9);
  EXPECT_LT(prob.complementarity_residual(r.x), 1e-6);
}

}  // namespace
}  // namespace asyncit
