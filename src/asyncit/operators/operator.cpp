#include "asyncit/operators/operator.hpp"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cmath>
#include <exception>
#include <optional>
#include <thread>
#include <vector>

#include "asyncit/linalg/kernels.hpp"
#include "asyncit/support/check.hpp"
#include "asyncit/support/threads.hpp"

namespace asyncit::op {

namespace {

/// Rows per sweep thread: picard_solve takes a further thread only for
/// each further 2^14 rows, so a small system sweeps on the caller alone.
constexpr std::size_t kSweepGrain = std::size_t{1} << 14;

/// T = min(CPUs, blocks, dim / grain), and at least 1. The row bound
/// comes first, so a small system never asks for the CPU count.
std::size_t sweep_threads(std::size_t dim, std::size_t blocks) {
  const std::size_t bound = std::min(dim / kSweepGrain, blocks);
  if (bound < 2) return 1;
  return std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1,
                                 bound);
}

/// m = max(m, v) for one sweep's residual, which every thread folds its
/// blocks' maximum into.
void fold_max(std::atomic<double>& m, double v) {
  double seen = m.load();
  while (seen < v && !m.compare_exchange_weak(seen, v)) {
  }
}

}  // namespace

void BlockOperator::apply(std::span<const double> x, std::span<double> y,
                          Workspace& ws) const {
  ASYNCIT_CHECK(x.size() == dim() && y.size() == dim());
  for (la::BlockId b = 0; b < num_blocks(); ++b) {
    const la::BlockRange r = partition().range(b);
    apply_block(b, x, y.subspan(r.begin, r.size()), ws);
  }
}

double BlockOperator::apply_block_residual(la::BlockId b,
                                           std::span<const double> x,
                                           std::span<double> out,
                                           Workspace& ws) const {
  const la::BlockRange r = partition().range(b);
  apply_block(b, x, out, ws);
  return std::sqrt(
      la::kern::sq_dist(out.data(), x.data() + r.begin, r.size()));
}

double fixed_point_residual(const BlockOperator& op, std::span<const double> x,
                            Workspace& ws) {
  Scratch fx(ws, op.dim());
  op.apply(x, fx, ws);
  return la::dist_inf(fx.span(), x);
}

double max_block_residual(const BlockOperator& op, std::span<const double> x,
                          Workspace& ws) {
  ASYNCIT_CHECK(x.size() == op.dim());
  const la::Partition& partition = op.partition();
  Scratch fb(ws, partition.max_block_size());
  double worst = 0.0;
  for (la::BlockId b = 0; b < op.num_blocks(); ++b) {
    const la::BlockRange r = partition.range(b);
    worst = std::max(
        worst, op.apply_block_residual(b, x, fb.span().first(r.size()), ws));
  }
  return worst;
}

la::Vector picard_solve(const BlockOperator& op, la::Vector x0,
                        std::size_t max_iters, double tol, Workspace& ws) {
  ASYNCIT_CHECK(x0.size() == op.dim());
  const la::Partition& partition = op.partition();
  const std::size_t m = partition.num_blocks();
  const std::size_t n = sweep_threads(op.dim(), m);
  la::Vector x = std::move(x0);
  Scratch y(ws, x.size());

  // One sweep reads `from` and writes `to`. Only the completion step
  // writes this state, while every thread waits at the barrier; the
  // threads read it after the barrier.
  double* from = x.data();
  double* to = y.data();
  std::size_t sweeps = 0;
  bool done = max_iters == 0;
  std::atomic<double> residual{0.0};
  std::atomic<bool> failed{false};
  auto complete = [&]() noexcept {
    std::swap(from, to);
    ++sweeps;
    done = failed || residual < tol || sweeps == max_iters;
    residual = 0.0;
  };
  std::optional<std::barrier<decltype(complete)>> barrier;
  if (n > 1) barrier.emplace(static_cast<std::ptrdiff_t>(n), complete);
  // Built here, so the sweep threads allocate nothing for an operator
  // whose blocks borrow no scratch.
  std::vector<Workspace> spare(n - 1);

  // Thread t sweeps a contiguous run of blocks, then arrives at the
  // barrier. A thread whose block throws keeps the exception, still
  // arrives, and rethrows it once the loop has ended.
  auto sweep = [&](std::uint32_t t) {
    Workspace& own = t == 0 ? ws : spare[t - 1];
    const auto first = static_cast<la::BlockId>(m * t / n);
    const auto last = static_cast<la::BlockId>(m * (t + 1) / n);
    std::exception_ptr error;
    while (!done) {
      const std::span<const double> in(from, x.size());
      double r = 0.0;
      try {
        for (la::BlockId b = first; b < last; ++b) {
          const la::BlockRange range = partition.range(b);
          const std::span<double> out(to + range.begin, range.size());
          op.apply_block(b, in, out, own);
          r = std::max(r, la::dist_inf(out, in.subspan(range.begin,
                                                       range.size())));
        }
      } catch (...) {
        error = std::current_exception();
        failed = true;
      }
      fold_max(residual, r);
      if (barrier)
        barrier->arrive_and_wait();
      else
        complete();
    }
    if (error) std::rethrow_exception(error);
  };
  // One thread needs no launcher, and so allocates nothing beyond y.
  if (n == 1)
    sweep(0);
  else
    run_on_threads(n, sweep);

  if (from != x.data()) x.swap(y.vec());
  return x;
}

}  // namespace asyncit::op
