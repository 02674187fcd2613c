// Tests for the threaded shared-memory runtime: the Hogwild iterate store,
// the seqlock block store (including a torn-read stress test), and the
// asynchronous / synchronous executors on real threads.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "asyncit/operators/jacobi.hpp"
#include "asyncit/operators/prox_gradient.hpp"
#include "asyncit/problems/linear_system.hpp"
#include "asyncit/problems/quadratic.hpp"
#include "asyncit/runtime/executors.hpp"
#include "asyncit/runtime/shared_iterate.hpp"
#include "asyncit/support/check.hpp"
#include "asyncit/support/timer.hpp"
#include "counting_operator.hpp"

namespace asyncit::rt {
namespace {

TEST(SharedIterate, LoadStoreSnapshot) {
  SharedIterate s(la::Vector{1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(s.load(1), 2.0);
  s.store(1, 5.0);
  EXPECT_DOUBLE_EQ(s.load(1), 5.0);
  const la::Vector snap = s.snapshot();
  EXPECT_EQ(snap, (la::Vector{1.0, 5.0, 3.0}));
  s.store_block(0, la::Vector{7.0, 8.0});
  EXPECT_DOUBLE_EQ(s.load(0), 7.0);
  EXPECT_DOUBLE_EQ(s.load(1), 8.0);
}

TEST(SeqlockBlockStore, SingleThreadReadWrite) {
  la::Partition p = la::Partition::from_sizes({2, 3});
  SeqlockBlockStore store(p, la::Vector{1, 2, 3, 4, 5});
  la::Vector out(2);
  EXPECT_EQ(store.read_block(0, out), 0u);
  EXPECT_EQ(out, (la::Vector{1, 2}));
  store.write_block(0, la::Vector{9, 8}, 42);
  EXPECT_EQ(store.read_block(0, out), 42u);
  EXPECT_EQ(out, (la::Vector{9, 8}));

  la::Vector all(5);
  std::vector<model::Step> tags(2);
  store.read_all(all, tags);
  EXPECT_EQ(all, (la::Vector{9, 8, 3, 4, 5}));
  EXPECT_EQ(tags, (std::vector<model::Step>{42, 0}));
}

TEST(SeqlockBlockStore, StressNoTornBlockReads) {
  // Writer publishes blocks where ALL elements equal the tag; readers must
  // never observe a mixed block.
  const std::size_t block_size = 8;
  la::Partition p = la::Partition::from_sizes({block_size});
  SeqlockBlockStore store(p, la::Vector(block_size, 0.0));
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> inconsistencies{0};
  std::atomic<std::size_t> reads_done{0};

  std::thread writer([&] {
    // Keep writing until the reader has observed plenty of versions (cap
    // bounds the test even if the reader thread is starved by the OS).
    model::Step t = 1;
    while (reads_done.load(std::memory_order_relaxed) < 2000 &&
           t <= 5000000) {
      store.write_block(0, la::Vector(block_size, double(t)), t);
      ++t;
    }
    stop.store(true);
  });
  std::thread reader([&] {
    la::Vector out(block_size);
    while (!stop.load(std::memory_order_relaxed)) {
      const model::Step tag = store.read_block(0, out);
      for (double v : out) {
        if (v != static_cast<double>(tag))
          inconsistencies.fetch_add(1, std::memory_order_relaxed);
      }
      reads_done.fetch_add(1, std::memory_order_relaxed);
    }
  });
  writer.join();
  reader.join();
  EXPECT_EQ(inconsistencies.load(), 0u);
  EXPECT_GT(reads_done.load(), 0u);
}

class RuntimeFixture : public ::testing::Test {
 protected:
  RuntimeFixture() : rng_(61) {
    sys_ = problems::make_diagonally_dominant_system(128, 4, 2.0, rng_);
    partition_ = la::Partition::balanced(sys_.dim(), 16);
    jacobi_ = std::make_unique<op::JacobiOperator>(sys_.a, sys_.b,
                                                   partition_);
    x_star_ = op::picard_solve(*jacobi_, la::zeros(sys_.dim()), 50000,
                               1e-14);
  }
  Rng rng_;
  problems::LinearSystem sys_;
  la::Partition partition_;
  std::unique_ptr<op::JacobiOperator> jacobi_;
  la::Vector x_star_;
};

TEST_F(RuntimeFixture, AsyncThreadsConverge) {
  RuntimeOptions opt;
  opt.workers = 2;
  opt.tol = 1e-9;
  opt.x_star = x_star_;
  opt.max_seconds = 20.0;
  auto result = run_async_threads(*jacobi_, la::zeros(sys_.dim()), opt);
  EXPECT_TRUE(result.converged)
      << "final error " << result.final_error;
  EXPECT_GT(result.total_updates, 0u);
  EXPECT_EQ(result.updates_per_worker.size(), 2u);
}

TEST_F(RuntimeFixture, SyncThreadsConverge) {
  RuntimeOptions opt;
  opt.workers = 2;
  opt.tol = 1e-9;
  opt.x_star = x_star_;
  opt.max_seconds = 20.0;
  auto result = run_sync_threads(*jacobi_, la::zeros(sys_.dim()), opt);
  EXPECT_TRUE(result.converged);
  EXPECT_GT(result.rounds, 0u);
}

TEST_F(RuntimeFixture, SingleWorkerAsyncMatchesGaussSeidelQuality) {
  RuntimeOptions opt;
  opt.workers = 1;
  opt.tol = 1e-10;
  opt.x_star = x_star_;
  auto result = run_async_threads(*jacobi_, la::zeros(sys_.dim()), opt);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(result.final_error, 1e-9);
}

TEST_F(RuntimeFixture, SlowWorkerDoesFewerUpdates) {
  RuntimeOptions opt;
  opt.workers = 2;
  opt.worker_slowdown = {1.0, 20.0};
  opt.x_star = x_star_;
  opt.tol = 0.0;  // unreachable: run the full wall budget
  // A wall budget of many scheduler slices: over an update budget the run
  // lasted ~20 ms, too few slices for a stable rate.
  opt.max_updates = std::numeric_limits<std::uint64_t>::max();
  opt.max_seconds = 0.4;
  auto result = run_async_threads(*jacobi_, la::zeros(sys_.dim()), opt);
  ASSERT_EQ(result.updates_per_worker.size(), 2u);
  ASSERT_EQ(result.cpu_seconds_per_worker.size(), 2u);
  // the 20x-slower worker must complete far fewer updates per CPU-second
  // — the async executor does not wait for it (load-imbalance tolerance,
  // claim C1). Rates per CPU-second, not per wall second: a descheduled
  // fast worker loses wall time but no CPU time. u0/c0 > 2·u1/c1,
  // cross-multiplied.
  const double u0 = static_cast<double>(result.updates_per_worker[0]);
  const double u1 = static_cast<double>(result.updates_per_worker[1]);
  const double c0 = result.cpu_seconds_per_worker[0];
  const double c1 = result.cpu_seconds_per_worker[1];
  EXPECT_GT(u0 * c1, 2.0 * u1 * c0)
      << "updates " << u0 << " / " << u1 << ", cpu s " << c0 << " / " << c1;
}

TEST_F(RuntimeFixture, InnerStepsAndFlexibleConverge) {
  for (const bool flexible : {false, true}) {
    RuntimeOptions opt;
    opt.workers = 2;
    opt.inner_steps = 4;
    opt.publish_partials = flexible;
    opt.tol = 1e-9;
    opt.x_star = x_star_;
    opt.max_seconds = 20.0;
    auto result = run_async_threads(*jacobi_, la::zeros(sys_.dim()), opt);
    EXPECT_TRUE(result.converged) << "flexible=" << flexible;
  }
}

TEST(RuntimeProxGrad, AsyncSolvesLassoOperator) {
  Rng rng(62);
  auto f = problems::make_separable_quadratic(64, 1.0, 8.0, rng);
  auto g = op::make_l1_prox(0.1);
  la::Partition partition = la::Partition::balanced(64, 16);
  op::BackwardForwardOperator bf(*f, *g, f->suggested_step(), partition);
  const la::Vector x_bar = op::picard_solve(bf, la::zeros(64), 50000,
                                            1e-14);
  RuntimeOptions opt;
  opt.workers = 2;
  opt.tol = 1e-9;
  opt.x_star = x_bar;
  opt.max_seconds = 20.0;
  auto result = run_async_threads(bf, la::zeros(64), opt);
  EXPECT_TRUE(result.converged);
}

TEST_F(RuntimeFixture, DisplacementStoppingWorksWithoutOracle) {
  // The [15]-style practical rule: no x_star, stop when every block's
  // last update moved less than displacement_tol. For a contraction with
  // factor alpha this certifies closeness ~ tol/(1-alpha). Worker 0
  // checks it on a snapshot under either read consistency.
  for (const bool consistent : {false, true}) {
    RuntimeOptions opt;
    opt.workers = 2;
    opt.consistent_reads = consistent;
    opt.displacement_tol = 1e-10;
    opt.max_seconds = 30.0;
    opt.max_updates = 100000000;
    auto result = run_async_threads(*jacobi_, la::zeros(sys_.dim()), opt);
    // stopped by the rule (not by budget): and genuinely near the solution
    SCOPED_TRACE(consistent ? "seqlock reads" : "Hogwild reads");
    EXPECT_LT(result.total_updates, 100000000u);
    EXPECT_LT(result.wall_seconds, opt.max_seconds);
    EXPECT_LT(la::dist_inf(result.x, x_star_), 1e-7);
  }
}

TEST_F(RuntimeFixture, BlockExceptionReachesTheCaller) {
  // Four workers own four blocks each: block 1 runs on worker 0 (the
  // calling thread), block 13 on worker 3. Its third call throws. The
  // other workers must then leave their loops, or the call returns only
  // at the wall budget, and the synchronous executor's barrier too, or
  // it never returns.
  using Executor = RuntimeResult (*)(const op::BlockOperator&,
                                     const la::Vector&,
                                     const RuntimeOptions&);
  const std::pair<const char*, Executor> executors[] = {
      {"async", &run_async_threads}, {"sync", &run_sync_threads}};
  for (const auto& [name, run] : executors) {
    for (const la::BlockId block : {la::BlockId{1}, la::BlockId{13}}) {
      SCOPED_TRACE(std::string(name) + " block " + std::to_string(block));
      const op::CountingOperator failing(*jacobi_, {block}, 3);
      RuntimeOptions opt;
      opt.workers = 4;
      opt.x_star = x_star_;
      opt.tol = 0.0;  // unreachable: only the exception ends the run
      opt.max_updates = std::numeric_limits<std::uint64_t>::max();
      opt.max_seconds = 30.0;
      const WallTimer timer;
      try {
        (void)run(failing, la::zeros(sys_.dim()), opt);
        ADD_FAILURE() << "nothing was rethrown";
      } catch (const std::runtime_error& e) {
        EXPECT_EQ(e.what(), "block " + std::to_string(block) + " sweep 3");
      }
      EXPECT_LT(timer.seconds(), 10.0) << "the workers ran to the budget";
    }
  }
}

TEST(RuntimeValidation, RejectsMoreWorkersThanBlocks) {
  Rng rng(63);
  auto sys = problems::make_diagonally_dominant_system(4, 2, 2.0, rng);
  op::JacobiOperator jac(sys.a, sys.b, la::Partition::balanced(4, 2));
  RuntimeOptions opt;
  opt.workers = 3;  // only 2 blocks
  EXPECT_THROW(run_async_threads(jac, la::zeros(4), opt), CheckError);
}

}  // namespace
}  // namespace asyncit::rt
