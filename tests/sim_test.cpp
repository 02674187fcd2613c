// Tests for the discrete-event simulator: time models, the double-scan
// termination detector, convergence and determinism of the async
// simulation, measured out-of-order labels on non-FIFO channels, flexible
// communication, fault injection, the ring trace of a run, termination
// detection end-to-end, and the synchronous baseline (including the
// async-beats-sync shape under heterogeneity, claim C1 at test scale).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "asyncit/model/admissibility.hpp"
#include "asyncit/operators/jacobi.hpp"
#include "asyncit/problems/linear_system.hpp"
#include "asyncit/sim/sim_engine.hpp"
#include "asyncit/sim/termination.hpp"
#include "asyncit/sim/time_models.hpp"
#include "asyncit/support/check.hpp"

namespace asyncit::sim {
namespace {

using model::Step;

// ------------------------------------------------------------ time models

TEST(TimeModels, FixedComputeIsConstant) {
  auto m = make_fixed_compute(2.5);
  Rng rng(1);
  for (std::size_t k = 1; k <= 10; ++k)
    EXPECT_DOUBLE_EQ(m->phase_duration(k, rng), 2.5);
}

TEST(TimeModels, LinearComputeMatchesBaudetExample) {
  auto m = make_linear_compute(1.0);
  Rng rng(1);
  EXPECT_DOUBLE_EQ(m->phase_duration(1, rng), 1.0);
  EXPECT_DOUBLE_EQ(m->phase_duration(7, rng), 7.0);
}

TEST(TimeModels, SlowThenFastSwitches) {
  auto m = make_slow_then_fast_compute(10.0, 1.0, 5);
  Rng rng(1);
  EXPECT_DOUBLE_EQ(m->phase_duration(4, rng), 10.0);
  EXPECT_DOUBLE_EQ(m->phase_duration(5, rng), 1.0);
}

TEST(TimeModels, UniformComputeWithinRange) {
  auto m = make_uniform_compute(1.0, 3.0);
  Rng rng(7);
  for (int k = 1; k <= 200; ++k) {
    const double t = m->phase_duration(static_cast<std::size_t>(k), rng);
    EXPECT_GE(t, 1.0);
    EXPECT_LT(t, 3.0);
  }
}

TEST(TimeModels, LatenciesNonnegative) {
  Rng rng(3);
  auto fix = make_fixed_latency(0.4);
  auto uni = make_uniform_latency(0.1, 0.5);
  auto par = make_pareto_latency(0.1, 2.0);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(fix->latency(rng), 0.4);
    EXPECT_GE(uni->latency(rng), 0.1);
    EXPECT_GE(par->latency(rng), 0.1);
  }
}

// --------------------------------------------------------------- detector

TEST(DoubleScanDetector, RequiresTwoCleanScansWithStableCounts) {
  DoubleScanDetector d;
  using R = DoubleScanDetector::Reply;
  // not all converged
  EXPECT_FALSE(d.scan({R{false, 5, 5}, R{true, 3, 3}}));
  // converged but counts unbalanced (message in flight)
  EXPECT_FALSE(d.scan({R{true, 5, 4}, R{true, 3, 3}}));
  // first clean scan
  EXPECT_FALSE(d.scan({R{true, 5, 5}, R{true, 3, 3}}));
  // second clean scan, same counters: certified
  EXPECT_TRUE(d.scan({R{true, 5, 5}, R{true, 3, 3}}));
  EXPECT_TRUE(d.certified());
}

TEST(DoubleScanDetector, ActivityBetweenScansResets) {
  DoubleScanDetector d;
  using R = DoubleScanDetector::Reply;
  EXPECT_FALSE(d.scan({R{true, 5, 5}}));
  // a new message was exchanged between scans: counters moved
  EXPECT_FALSE(d.scan({R{true, 6, 6}}));
  EXPECT_FALSE(d.scan({R{true, 6, 5}}));  // in flight again
  EXPECT_FALSE(d.scan({R{true, 6, 6}}));
  EXPECT_TRUE(d.scan({R{true, 6, 6}}));
}

// --------------------------------------------------------- async sim base

class SimFixture : public ::testing::Test {
 protected:
  SimFixture() : rng_(31) {
    sys_ = problems::make_diagonally_dominant_system(24, 3, 2.0, rng_);
    jacobi_ = std::make_unique<op::JacobiOperator>(
        sys_.a, sys_.b, la::Partition::scalar(sys_.dim()));
    x_star_ = op::picard_solve(*jacobi_, la::zeros(sys_.dim()), 20000,
                               1e-14);
  }

  std::vector<std::unique_ptr<ComputeTimeModel>> homogeneous(
      std::size_t procs, double t) {
    std::vector<std::unique_ptr<ComputeTimeModel>> v;
    for (std::size_t p = 0; p < procs; ++p)
      v.push_back(make_fixed_compute(t));
    return v;
  }

  Rng rng_;
  problems::LinearSystem sys_;
  std::unique_ptr<op::JacobiOperator> jacobi_;
  la::Vector x_star_;
};

TEST_F(SimFixture, ConvergesWithOracleStop) {
  auto latency = make_uniform_latency(0.1, 0.4);
  SimOptions opt;
  opt.tol = 1e-9;
  opt.x_star = x_star_;
  opt.max_steps = 200000;
  auto result = run_async_sim(*jacobi_, la::zeros(sys_.dim()),
                              homogeneous(4, 1.0), *latency, opt);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(la::dist_inf(result.x, x_star_), 1e-8);
  EXPECT_GT(result.steps, 0u);
  EXPECT_GT(result.virtual_time, 0.0);
  EXPECT_GT(result.macro_boundaries.size(), 2u);
  EXPECT_GT(result.epoch_boundaries.size(), 2u);
}

TEST_F(SimFixture, DeterministicGivenSeed) {
  auto run_once = [&]() {
    auto latency = make_uniform_latency(0.1, 0.4);
    SimOptions opt;
    opt.tol = 1e-8;
    opt.x_star = x_star_;
    opt.seed = 99;
    return run_async_sim(*jacobi_, la::zeros(sys_.dim()),
                         homogeneous(3, 1.0), *latency, opt);
  };
  auto r1 = run_once();
  auto r2 = run_once();
  EXPECT_EQ(r1.steps, r2.steps);
  EXPECT_DOUBLE_EQ(r1.virtual_time, r2.virtual_time);
  EXPECT_EQ(la::dist_inf(r1.x, r2.x), 0.0);
  EXPECT_EQ(r1.macro_boundaries, r2.macro_boundaries);
}

TEST_F(SimFixture, TraceSatisfiesConditionAAndFairness) {
  auto latency = make_uniform_latency(0.2, 0.8);
  SimOptions opt;
  opt.tol = 1e-8;
  opt.x_star = x_star_;
  opt.max_steps = 20000;
  auto result = run_async_sim(*jacobi_, la::zeros(sys_.dim()),
                              homogeneous(4, 1.0), *latency, opt);
  EXPECT_TRUE(model::audit_condition_a(result.trace).holds);
  EXPECT_TRUE(model::audit_condition_c(result.trace).fair);
  EXPECT_TRUE(model::audit_condition_b(result.trace).diverging);
}

TEST_F(SimFixture, MeasuredDelaysGrowWithLatency) {
  auto run_with_latency = [&](double lo, double hi) {
    auto latency = make_uniform_latency(lo, hi);
    SimOptions opt;
    opt.x_star = x_star_;
    opt.tol = 1e-8;
    opt.max_steps = 6000;
    opt.stop_on_oracle = false;  // fixed horizon for fair comparison
    auto result = run_async_sim(*jacobi_, la::zeros(sys_.dim()),
                                homogeneous(4, 1.0), *latency, opt);
    return model::audit_condition_d(result.trace).mean;
  };
  const double fast = run_with_latency(0.05, 0.1);
  const double slow = run_with_latency(5.0, 10.0);
  EXPECT_GT(slow, fast);
}

TEST_F(SimFixture, NonFifoLastArrivalWinsProducesLabelInversions) {
  // Reordering is only physically possible when the latency jitter
  // exceeds the spacing between consecutive updates of a block, so use a
  // small problem (2 blocks per processor) and wide jitter.
  Rng rng(77);
  auto sys = problems::make_diagonally_dominant_system(8, 2, 2.0, rng);
  op::JacobiOperator jac(sys.a, sys.b, la::Partition::scalar(8));
  auto latency = make_uniform_latency(0.1, 10.0);
  SimOptions opt;
  opt.max_steps = 6000;
  opt.stop_on_oracle = false;
  opt.fifo = false;
  opt.overwrite = net::OverwritePolicy::kLastArrivalWins;
  opt.recording = model::LabelRecording::kFull;
  auto result = run_async_sim(jac, la::zeros(8), homogeneous(4, 1.0),
                              *latency, opt);
  EXPECT_GT(result.trace.per_machine_label_inversions(), 0u)
      << "non-FIFO channels must manifest out-of-order messages";
  // and the same configuration with FIFO + tag filtering has none
  auto latency2 = make_uniform_latency(0.1, 10.0);
  opt.fifo = true;
  opt.overwrite = net::OverwritePolicy::kNewestTagWins;
  auto fifo_result = run_async_sim(jac, la::zeros(8), homogeneous(4, 1.0),
                                   *latency2, opt);
  EXPECT_EQ(fifo_result.trace.per_machine_label_inversions(), 0u);
}

TEST_F(SimFixture, NewestTagFilteringGivesPerProcessorMonotoneLabels) {
  // With receiver-side tag filtering a processor's view tags never
  // regress, so the label tuples of ITS OWN successive phases are
  // componentwise non-decreasing (the monotone-label assumption of
  // Miellou and of Mishchenko et al.'s epoch analysis). Note the GLOBAL
  // linearization still interleaves processors with different views, so
  // global label inversions are expected — the invariant is per machine.
  auto latency = make_uniform_latency(0.1, 5.0);
  SimOptions opt;
  opt.x_star = x_star_;
  opt.tol = 1e-8;
  opt.max_steps = 8000;
  opt.stop_on_oracle = false;
  opt.fifo = true;
  opt.overwrite = net::OverwritePolicy::kNewestTagWins;
  opt.recording = model::LabelRecording::kFull;
  auto result = run_async_sim(*jacobi_, la::zeros(sys_.dim()),
                              homogeneous(4, 1.0), *latency, opt);
  const auto& trace = result.trace;
  std::vector<std::vector<Step>> last_labels(
      4, std::vector<Step>(trace.num_blocks(), 0));
  std::size_t violations = 0;
  for (Step j = 1; j <= trace.steps(); ++j) {
    const auto& rec = trace.step(j);
    auto& prev = last_labels[rec.machine];
    for (std::size_t h = 0; h < trace.num_blocks(); ++h) {
      if (rec.labels[h] < prev[h]) ++violations;
      prev[h] = rec.labels[h];
    }
  }
  EXPECT_EQ(violations, 0u);
}

TEST_F(SimFixture, DroppedMessagesAreAbsorbed) {
  auto latency = make_uniform_latency(0.1, 0.4);
  SimOptions opt;
  opt.tol = 1e-8;
  opt.x_star = x_star_;
  opt.max_steps = 400000;
  opt.drop_prob = 0.10;
  auto result = run_async_sim(*jacobi_, la::zeros(sys_.dim()),
                              homogeneous(4, 1.0), *latency, opt);
  EXPECT_TRUE(result.converged)
      << "async iterations must absorb transient message loss";
  EXPECT_GT(result.messages_dropped, 0u);
}

TEST_F(SimFixture, FlexibleCommunicationSendsPartialsAndConverges) {
  auto latency = make_uniform_latency(0.2, 0.6);
  SimOptions opt;
  opt.tol = 1e-8;
  opt.x_star = x_star_;
  opt.inner_steps = 4;
  opt.publish_partials = true;
  opt.max_steps = 200000;
  auto result = run_async_sim(*jacobi_, la::zeros(sys_.dim()),
                              homogeneous(3, 2.0), *latency, opt);
  EXPECT_TRUE(result.converged);
  EXPECT_GT(result.partials_sent, 0u);
}

TEST_F(SimFixture, FlexibleBeatsPlainAsyncInVirtualTime) {
  auto run_mode = [&](bool flexible) {
    auto latency = make_uniform_latency(0.2, 0.6);
    SimOptions opt;
    opt.tol = 1e-8;
    opt.x_star = x_star_;
    opt.inner_steps = 4;
    opt.publish_partials = flexible;
    opt.max_steps = 400000;
    opt.seed = 11;
    auto r = run_async_sim(*jacobi_, la::zeros(sys_.dim()),
                           homogeneous(3, 2.0), *latency, opt);
    EXPECT_TRUE(r.converged);
    return r.virtual_time;
  };
  const double plain = run_mode(false);
  const double flexible = run_mode(true);
  EXPECT_LE(flexible, plain * 1.05)
      << "flexible communication should not be slower";
}

// ------------------------------------------------------------ ring trace

// A flexible, lossy, non-FIFO run on uneven processors: every kind of
// event sim/ records.
SimOptions traced_options(const la::Vector& x_star) {
  SimOptions opt;
  opt.tol = 1e-8;
  opt.x_star = x_star;
  opt.max_steps = 300;
  opt.stop_on_oracle = false;
  opt.inner_steps = 3;
  opt.publish_partials = true;
  opt.drop_prob = 0.1;
  opt.recording = model::LabelRecording::kFull;
  opt.seed = 5;
  opt.trace_level = obs::TraceLevel::kFull;
  return opt;
}

std::vector<std::unique_ptr<ComputeTimeModel>> uneven_fleet() {
  std::vector<std::unique_ptr<ComputeTimeModel>> v;
  v.push_back(make_uniform_compute(0.9, 1.1));
  v.push_back(make_uniform_compute(1.6, 2.0));
  v.push_back(make_pareto_compute(0.5, 2.0));
  return v;
}

TEST_F(SimFixture, TheRingTraceIsTheSchedule) {
  auto latency = make_uniform_latency(0.1, 2.0);
  const SimOptions opt = traced_options(x_star_);
  auto result = run_async_sim(*jacobi_, la::zeros(sys_.dim()),
                              uneven_fleet(), *latency, opt);
  EXPECT_EQ(obs::TraceRecorder::instance().level(), obs::TraceLevel::kOff);
  ASSERT_EQ(obs::TraceRecorder::instance().stats().dropped, 0u);
  std::vector<obs::Event> events;
  obs::TraceRecorder::instance().snapshot(&events);

  // One kBlockUpdate sub 0 per step j, in step order, stamped with that
  // step's processor, block and b == j; a processor's phases [t - v, t]
  // never overlap in virtual time.
  Step j = 0;
  std::vector<double> busy_until(3, 0.0);
  std::size_t sends = 0, drops = 0, partials = 0;
  for (const obs::Event& e : events) {
    const double t = double(e.t_ns) * 1e-9;
    if (e.type == obs::EventType::kBlockUpdate && e.sub == 0) {
      ++j;
      ASSERT_LE(j, result.trace.steps());
      const model::StepRecord& step = result.trace.step(j);
      EXPECT_EQ(e.b, j);
      EXPECT_EQ(e.rank, step.machine) << "step " << j;
      EXPECT_EQ(e.a, step.updated[0]) << "step " << j;
      EXPECT_GE(t - e.v, busy_until[e.rank] - 1e-9) << "step " << j;
      busy_until[e.rank] = t;
    }
    partials += e.type == obs::EventType::kBlockUpdate && e.sub == 1;
    sends += e.type == obs::EventType::kFrameSend;
    drops += e.type == obs::EventType::kFrameDrop;
  }
  EXPECT_EQ(j, result.trace.steps());
  // Each message is one kFrameSend or one kFrameDrop at its sender; each
  // partial publish reaches the two other processors.
  EXPECT_EQ(sends + drops, result.messages_sent);
  EXPECT_EQ(drops, result.messages_dropped);
  EXPECT_GT(drops, 0u);
  EXPECT_EQ(2 * partials, result.partials_sent);
}

TEST_F(SimFixture, TracingNeverPerturbsTheRun) {
  SimOptions opt = traced_options(x_star_);
  auto run = [&] {
    auto latency = make_uniform_latency(0.1, 2.0);
    return run_async_sim(*jacobi_, la::zeros(sys_.dim()), uneven_fleet(),
                         *latency, opt);
  };
  const SimResult traced = run();
  opt.trace_level = obs::TraceLevel::kOff;
  const SimResult plain = run();
  EXPECT_EQ(traced.steps, plain.steps);
  EXPECT_EQ(traced.virtual_time, plain.virtual_time);
  ASSERT_EQ(traced.x.size(), plain.x.size());
  EXPECT_EQ(std::memcmp(traced.x.data(), plain.x.data(),
                        plain.x.size() * sizeof(double)),
            0);
  EXPECT_EQ(traced.macro_boundaries, plain.macro_boundaries);
  EXPECT_EQ(traced.epoch_boundaries, plain.epoch_boundaries);
  EXPECT_EQ(traced.messages_sent, plain.messages_sent);
  EXPECT_EQ(traced.messages_dropped, plain.messages_dropped);
  EXPECT_EQ(traced.partials_sent, plain.partials_sent);
  EXPECT_EQ(traced.updates_per_processor, plain.updates_per_processor);
  EXPECT_EQ(traced.error_history, plain.error_history);
}

// ------------------------------------------------- termination detection

TEST_F(SimFixture, DetectionFiresOnlyAfterActualConvergence) {
  auto latency = make_uniform_latency(0.1, 0.3);
  SimOptions opt;
  opt.x_star = x_star_;          // oracle only used for MEASURING error
  opt.stop_on_oracle = false;    // detection is the only stopper
  opt.enable_detection = true;
  opt.local_eps = 1e-10;
  opt.scan_period = 10.0;
  opt.max_steps = 500000;
  auto result = run_async_sim(*jacobi_, la::zeros(sys_.dim()),
                              homogeneous(3, 1.0), *latency, opt);
  ASSERT_TRUE(result.detection_fired);
  EXPECT_TRUE(result.converged);
  // no premature termination: the iterate really is at the fixed point
  EXPECT_LT(result.error_at_detection, 1e-6);
  EXPECT_GT(result.scans, 1u);
}

TEST_F(SimFixture, DetectionRequiresReliableChannels) {
  auto latency = make_fixed_latency(0.2);
  SimOptions opt;
  opt.enable_detection = true;
  opt.drop_prob = 0.1;
  EXPECT_THROW(run_async_sim(*jacobi_, la::zeros(sys_.dim()),
                             homogeneous(2, 1.0), *latency, opt),
               CheckError);
}

// -------------------------------------------------------- sync baseline

TEST_F(SimFixture, SyncSimConverges) {
  auto latency = make_uniform_latency(0.1, 0.3);
  SimOptions opt;
  opt.tol = 1e-9;
  opt.x_star = x_star_;
  opt.max_steps = 400000;
  auto result = run_sync_sim(*jacobi_, la::zeros(sys_.dim()),
                             homogeneous(4, 1.0), *latency, opt);
  EXPECT_TRUE(result.converged);
  EXPECT_GT(result.rounds, 0u);
}

TEST_F(SimFixture, AsyncBeatsSyncUnderHeterogeneity) {
  // One straggler processor 8x slower: the sync barrier pays it every
  // round; async lets fast processors proceed (paper claim C1).
  auto hetero = [&]() {
    std::vector<std::unique_ptr<ComputeTimeModel>> v;
    v.push_back(make_fixed_compute(8.0));  // straggler
    v.push_back(make_fixed_compute(1.0));
    v.push_back(make_fixed_compute(1.0));
    v.push_back(make_fixed_compute(1.0));
    return v;
  };
  auto latency = make_uniform_latency(0.05, 0.15);
  SimOptions opt;
  opt.tol = 1e-8;
  opt.x_star = x_star_;
  opt.max_steps = 500000;
  auto async_result = run_async_sim(*jacobi_, la::zeros(sys_.dim()),
                                    hetero(), *latency, opt);
  auto latency2 = make_uniform_latency(0.05, 0.15);
  auto sync_result = run_sync_sim(*jacobi_, la::zeros(sys_.dim()), hetero(),
                                  *latency2, opt);
  ASSERT_TRUE(async_result.converged);
  ASSERT_TRUE(sync_result.converged);
  EXPECT_LT(async_result.virtual_time, sync_result.virtual_time);
}

TEST_F(SimFixture, SyncRetransmitsOnDrops) {
  auto latency = make_fixed_latency(0.2);
  SimOptions opt;
  opt.tol = 1e-8;
  opt.x_star = x_star_;
  opt.drop_prob = 0.2;
  opt.max_steps = 400000;
  auto result = run_sync_sim(*jacobi_, la::zeros(sys_.dim()),
                             homogeneous(3, 1.0), *latency, opt);
  EXPECT_TRUE(result.converged);
  EXPECT_GT(result.retransmissions, 0u);
}

// --------------------------------------------- Baudet linear-compute case

TEST(SimBaudet, LinearComputeProcessorInducesGrowingDelays) {
  // Two processors on a 2-block problem; P1 takes 1 unit per phase, P2's
  // k-th phase takes k units (the paper's in-text example). The measured
  // delay of P2's block grows without bound while labels still diverge.
  Rng rng(41);
  auto sys = problems::make_diagonally_dominant_system(2, 1, 2.0, rng);
  op::JacobiOperator jac(sys.a, sys.b, la::Partition::scalar(2));
  std::vector<std::unique_ptr<ComputeTimeModel>> compute;
  compute.push_back(make_fixed_compute(1.0));
  compute.push_back(make_linear_compute(1.0));
  auto latency = make_fixed_latency(0.01);
  SimOptions opt;
  opt.max_steps = 2000;
  opt.stop_on_oracle = false;
  opt.recording = model::LabelRecording::kFull;
  auto result = run_async_sim(jac, la::zeros(2), std::move(compute),
                              *latency, opt);
  // delay of block 1 (owned by P2) as read by late steps grows
  const auto& trace = result.trace;
  Step early_delay = 0, late_delay = 0;
  const Step J = trace.steps();
  for (Step j = 2; j <= J / 4; ++j)
    early_delay = std::max(early_delay, trace.delay(1, j));
  for (Step j = 3 * J / 4; j <= J; ++j)
    late_delay = std::max(late_delay, trace.delay(1, j));
  EXPECT_GT(late_delay, early_delay)
      << "delays must grow: unbounded-delay regime";
  // yet condition b) holds: labels diverge
  EXPECT_TRUE(model::audit_condition_b(trace).diverging);
}

}  // namespace
}  // namespace asyncit::sim
