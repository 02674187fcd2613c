// Tests for simulator option edge cases: time budget cutoff, trace ring
// capacity and the untraced default, error-recording cadence, running
// without an oracle, sync-sim round budgets, and processor/block
// validation.
#include <gtest/gtest.h>

#include "asyncit/operators/jacobi.hpp"
#include "asyncit/problems/linear_system.hpp"
#include "asyncit/sim/sim_engine.hpp"
#include "asyncit/support/check.hpp"

namespace asyncit::sim {
namespace {

class SimOptionsFixture : public ::testing::Test {
 protected:
  SimOptionsFixture() : rng_(47) {
    sys_ = problems::make_diagonally_dominant_system(12, 3, 2.0, rng_);
    jacobi_ = std::make_unique<op::JacobiOperator>(
        sys_.a, sys_.b, la::Partition::scalar(12));
    x_star_ = op::picard_solve(*jacobi_, la::zeros(12), 20000, 1e-14);
  }
  std::vector<std::unique_ptr<ComputeTimeModel>> fleet(std::size_t procs) {
    std::vector<std::unique_ptr<ComputeTimeModel>> v;
    for (std::size_t p = 0; p < procs; ++p)
      v.push_back(make_fixed_compute(1.0));
    return v;
  }
  Rng rng_;
  problems::LinearSystem sys_;
  std::unique_ptr<op::JacobiOperator> jacobi_;
  la::Vector x_star_;
};

TEST_F(SimOptionsFixture, MaxTimeCutsTheRunShort) {
  auto latency = make_fixed_latency(0.1);
  SimOptions opt;
  opt.max_time = 10.0;  // ~10 phases per processor
  opt.max_steps = 1000000;
  opt.stop_on_oracle = false;
  auto r = run_async_sim(*jacobi_, la::zeros(12), fleet(3), *latency, opt);
  EXPECT_LE(r.virtual_time, 10.5);
  EXPECT_LT(r.steps, 100u);
  EXPECT_FALSE(r.converged);
}

TEST_F(SimOptionsFixture, SmallRingCountsItsDropsAndKeepsTheSchedule) {
  auto latency = make_fixed_latency(0.1);
  SimOptions opt;
  opt.max_steps = 4000;  // ~20,000 events, past 3 x 4,096 slots
  opt.stop_on_oracle = false;
  opt.trace_level = obs::TraceLevel::kFull;
  auto r = run_async_sim(*jacobi_, la::zeros(12), fleet(3), *latency, opt);
  std::vector<obs::Event> events;
  obs::TraceRecorder::instance().snapshot(&events);
  const obs::RecorderStats stats = obs::TraceRecorder::instance().stats();
  EXPECT_GT(stats.dropped, 0u);
  EXPECT_EQ(events.size() + stats.dropped, stats.recorded);
  // ...but the SCHEDULE trace (the math) is never truncated
  EXPECT_EQ(r.trace.steps(), 4000u);
}

TEST_F(SimOptionsFixture, UntracedRunRecordsNoEvents) {
  auto latency = make_fixed_latency(0.1);
  SimOptions opt;
  opt.max_steps = 500;
  opt.stop_on_oracle = false;
  opt.trace_level = obs::TraceLevel::kFull;
  run_async_sim(*jacobi_, la::zeros(12), fleet(2), *latency, opt);
  std::vector<obs::Event> events;
  obs::TraceRecorder::instance().snapshot(&events);  // drain the rings
  const std::uint64_t recorded =
      obs::TraceRecorder::instance().stats().recorded;
  ASSERT_GT(recorded, 0u);

  opt.trace_level = SimOptions{}.trace_level;  // the default: off
  run_async_sim(*jacobi_, la::zeros(12), fleet(2), *latency, opt);
  events.clear();
  EXPECT_EQ(obs::TraceRecorder::instance().snapshot(&events), 0u);
  EXPECT_EQ(obs::TraceRecorder::instance().stats().recorded, recorded);
}

TEST_F(SimOptionsFixture, ErrorRecordingCadenceInSim) {
  auto latency = make_fixed_latency(0.1);
  SimOptions opt;
  opt.max_steps = 500;
  opt.stop_on_oracle = false;
  opt.x_star = x_star_;
  opt.record_error_every = 50;
  auto r = run_async_sim(*jacobi_, la::zeros(12), fleet(2), *latency, opt);
  for (const auto& [j, err] : r.error_history) {
    const bool cadence = j % 50 == 0;
    const bool boundary =
        std::find(r.macro_boundaries.begin(), r.macro_boundaries.end(),
                  j) != r.macro_boundaries.end();
    EXPECT_TRUE(cadence || boundary) << "sample at " << j;
  }
  // error_vs_time aligned with error_history
  EXPECT_EQ(r.error_history.size(), r.error_vs_time.size());
}

TEST_F(SimOptionsFixture, RunsWithoutOracleToStepBudget) {
  auto latency = make_fixed_latency(0.1);
  SimOptions opt;
  opt.max_steps = 300;
  auto r = run_async_sim(*jacobi_, la::zeros(12), fleet(2), *latency, opt);
  EXPECT_EQ(r.steps, 300u);
  EXPECT_TRUE(r.error_history.empty());
  EXPECT_FALSE(r.converged);
  // the iterate still made progress toward the solution
  EXPECT_LT(la::dist_inf(r.x, x_star_), la::norm_inf(x_star_) + 1.0);
}

TEST_F(SimOptionsFixture, SyncSimRespectsTimeBudget) {
  auto latency = make_fixed_latency(0.1);
  SimOptions opt;
  opt.max_time = 25.0;
  opt.max_steps = 10000000;
  auto r = run_sync_sim(*jacobi_, la::zeros(12), fleet(3), *latency, opt);
  EXPECT_GT(r.rounds, 0u);
  // overshoot is at most one full round: 4 owned blocks x 1.0 compute
  // + latency
  EXPECT_LE(r.virtual_time, 25.0 + 4.5);
}

TEST_F(SimOptionsFixture, RejectsMoreProcessorsThanBlocks) {
  auto latency = make_fixed_latency(0.1);
  SimOptions opt;
  EXPECT_THROW(run_async_sim(*jacobi_, la::zeros(12), fleet(13), *latency,
                             opt),
               CheckError);
  EXPECT_THROW(run_sync_sim(*jacobi_, la::zeros(12), fleet(13), *latency,
                            opt),
               CheckError);
}

TEST_F(SimOptionsFixture, UpdateSharePerProcessorBalancedWhenHomogeneous) {
  auto latency = make_fixed_latency(0.1);
  SimOptions opt;
  opt.max_steps = 3000;
  opt.stop_on_oracle = false;
  auto r = run_async_sim(*jacobi_, la::zeros(12), fleet(3), *latency, opt);
  ASSERT_EQ(r.updates_per_processor.size(), 3u);
  for (std::size_t p = 0; p < 3; ++p) {
    EXPECT_NEAR(static_cast<double>(r.updates_per_processor[p]),
                3000.0 / 3.0, 5.0)
        << "processor " << p;
  }
}

TEST_F(SimOptionsFixture, PartialTagsAcceptedUnderNewestTagPolicy) {
  // Flexible + newest-tag filtering: partials carry the previous update's
  // tag, and must still be accepted when equal to the stored tag.
  auto latency = make_fixed_latency(0.3);
  SimOptions opt;
  opt.max_steps = 100000;
  opt.tol = 1e-8;
  opt.x_star = x_star_;
  opt.inner_steps = 3;
  opt.publish_partials = true;
  opt.overwrite = net::OverwritePolicy::kNewestTagWins;
  auto r = run_async_sim(*jacobi_, la::zeros(12), fleet(3), *latency, opt);
  EXPECT_TRUE(r.converged);
  EXPECT_GT(r.partials_sent, 0u);
}

}  // namespace
}  // namespace asyncit::sim
