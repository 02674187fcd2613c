// Tests for the support substrate: RNG determinism and distributions,
// running statistics, percentiles, slope fitting, table rendering, checks,
// and the thread launcher.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "asyncit/support/check.hpp"
#include "asyncit/support/rng.hpp"
#include "asyncit/support/stats.hpp"
#include "asyncit/support/table.hpp"
#include "asyncit/support/threads.hpp"
#include "asyncit/support/timer.hpp"

namespace asyncit {
namespace {

TEST(Check, ThrowsOnViolation) {
  EXPECT_THROW(ASYNCIT_CHECK(1 == 2), CheckError);
  EXPECT_NO_THROW(ASYNCIT_CHECK(1 == 1));
  try {
    ASYNCIT_CHECK_MSG(false, "context " << 42);
    FAIL() << "should have thrown";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("context 42"), std::string::npos);
  }
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIndexCoversAllValues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform_index(7));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(*seen.rbegin(), 6u);
}

TEST(Rng, NormalMomentsRoughlyStandard) {
  Rng rng(13);
  RunningStats s;
  for (int i = 0; i < 50000; ++i) s.add(rng.normal());
  EXPECT_NEAR(s.mean(), 0.0, 0.03);
  EXPECT_NEAR(s.stddev(), 1.0, 0.03);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i)
    if (rng.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.01);
}

TEST(Rng, ExponentialMean) {
  Rng rng(19);
  RunningStats s;
  for (int i = 0; i < 50000; ++i) s.add(rng.exponential(2.0));
  EXPECT_NEAR(s.mean(), 0.5, 0.02);
}

TEST(Rng, ParetoAboveScale) {
  Rng rng(23);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(rng.pareto(1.5, 2.0), 1.5);
}

TEST(Rng, SplitStreamsIndependent) {
  Rng parent(29);
  Rng child1 = parent.split();
  Rng child2 = parent.split();
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (child1.next() == child2.next()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Rng, ShufflePermutes) {
  Rng rng(31);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7};
  auto orig = v;
  rng.shuffle(v);
  auto sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, orig);
}

TEST(RunningStats, BasicMoments) {
  RunningStats s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
  EXPECT_NEAR(s.variance(), 1.25, 1e-12);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(Percentile, ExactOrderStatistics) {
  std::vector<double> v{5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.25), 2.0);
}

TEST(Percentile, Interpolates) {
  std::vector<double> v{0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 5.0);
}

TEST(LsSlope, RecoversLinearTrend) {
  std::vector<double> x, y;
  for (int i = 0; i < 50; ++i) {
    x.push_back(i);
    y.push_back(3.0 * i - 7.0);
  }
  EXPECT_NEAR(ls_slope(x, y), 3.0, 1e-12);
}

TEST(TextTable, RendersAligned) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22222"});
  const std::string r = t.render();
  EXPECT_NE(r.find("name"), std::string::npos);
  EXPECT_NE(r.find("alpha"), std::string::npos);
  EXPECT_NE(r.find("-----"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(TextTable, RejectsArityMismatch) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), CheckError);
}

TEST(TextTable, NumberFormatting) {
  EXPECT_EQ(TextTable::num(1.23456, 2), "1.23");
  EXPECT_EQ(TextTable::sci(0.000123, 2), "1.23e-04");
}

TEST(WallTimer, MeasuresNonnegativeTime) {
  WallTimer t;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i)
    sink = sink + std::sqrt(static_cast<double>(i));
  EXPECT_GT(t.seconds(), 0.0);
  EXPECT_GE(t.millis(), t.seconds());
}

// ------------------------------------------------------- thread runner

TEST(RunOnThreads, RunsEveryRankOnceWithRankZeroOnTheCaller) {
  constexpr std::size_t kRanks = 5;
  std::vector<std::atomic<int>> runs(kRanks);
  std::vector<std::thread::id> ids(kRanks);
  run_on_threads(kRanks, [&](std::uint32_t r) {
    runs[r].fetch_add(1);
    ids[r] = std::this_thread::get_id();
  });
  for (std::size_t r = 0; r < kRanks; ++r)
    EXPECT_EQ(runs[r].load(), 1) << "rank " << r;
  EXPECT_EQ(ids[0], std::this_thread::get_id());
  std::vector<std::thread::id> sorted(ids.begin(), ids.end());
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end())
      << "two ranks shared a thread";
}

TEST(RunOnThreads, RethrowsTheLowestRankOnlyAfterEveryRankFinished) {
  // Rank 2 throws first, rank 0 once it has; slow rank 1 returns last.
  std::atomic<bool> rank2_threw{false};
  std::atomic<bool> rank1_done{false};
  try {
    run_on_threads(3, [&](std::uint32_t r) {
      if (r == 1) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        rank1_done = true;
        return;
      }
      if (r == 0)
        while (!rank2_threw) std::this_thread::yield();
      if (r == 2) rank2_threw = true;
      throw std::runtime_error("rank " + std::to_string(r));
    });
    ADD_FAILURE() << "nothing was rethrown";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "rank 0");
    EXPECT_TRUE(rank1_done.load());
  }
}

}  // namespace
}  // namespace asyncit
