// Threaded executors: real wall-clock asynchronous and synchronous
// iterations on shared memory.
//
// run_async_threads — totally asynchronous (Hogwild-style over blocks):
//   each worker sweeps its own blocks without any synchronization, reading
//   the shared iterate in place and publishing block updates as it goes.
//   No barriers, no waiting: the execution the paper's Section II
//   advocates. Worker heterogeneity is injected by making a slow worker
//   repeat its block computation `slowdown` times (emulating a slower
//   CPU or a larger load — the load-imbalance scenario of claim C1).
//
// run_sync_threads — the barrier-synchronized (BSP/Jacobi) baseline: all
//   workers compute one sweep from the same snapshot, meet at a barrier,
//   publish, meet again. Every round costs as much as the SLOWEST worker;
//   heterogeneity translates directly into idle waiting.
//
// Both stop on: oracle error below tol (when x_star given), update budget
// exhausted, or wall-clock budget exhausted. Both start their workers
// through asyncit::run_on_threads (worker 0 on the calling thread). A
// block that throws ends every worker's loop, and the exception reaches
// the caller.
#pragma once

#include <optional>
#include <vector>

#include "asyncit/linalg/norms.hpp"
#include "asyncit/operators/operator.hpp"

namespace asyncit::rt {

struct RuntimeOptions {
  std::size_t workers = 2;
  /// Per-worker compute repetition factors (heterogeneity injection);
  /// empty = all 1.0. A factor f makes the worker redo each block update
  /// ceil(f) times (f=1: normal speed).
  std::vector<double> worker_slowdown;

  std::size_t inner_steps = 1;
  /// Publish inner iterates as they are produced (flexible communication
  /// on shared memory: other workers immediately see partials).
  bool publish_partials = false;

  /// Read consistency of the shared iterate:
  ///   false — Hogwild: workers read the raw shared view in place (block
  ///           values may mix two updates: shared-memory "partial
  ///           updates", the fastest mode);
  ///   true  — seqlock block store: every block read is atomic as a group
  ///           (exact per-block labels), at the cost of copying the
  ///           vector per update. bench/a3_read_consistency measures the
  ///           gap.
  bool consistent_reads = false;

  double tol = 1e-9;
  std::optional<la::Vector> x_star;  ///< oracle stopping + error metric

  /// Practical stopping without a known solution (the macro-residual rule
  /// of ref [15] on shared memory): stop when every block's most recent
  /// update displaced it by less than `displacement_tol` in the Euclidean
  /// block norm. For a contraction with factor α this certifies
  /// ‖x − x*‖ ≤ displacement_tol / (1 − α). 0 disables the rule.
  double displacement_tol = 0.0;

  std::uint64_t max_updates = 1000000;  ///< total block updates budget
  double max_seconds = 30.0;
  /// Stopping check cadence (in own updates) per worker.
  std::uint64_t check_every = 64;

  std::uint64_t seed = 1;
};

struct RuntimeResult {
  la::Vector x;
  double wall_seconds = 0.0;
  bool converged = false;
  std::uint64_t total_updates = 0;  ///< block updates (async) / rounds*m (sync)
  std::size_t rounds = 0;           ///< sync only
  std::vector<std::uint64_t> updates_per_worker;
  /// Async only: thread CPU seconds each worker consumed (ThreadCpuTimer).
  /// A rate per CPU-second does not count time a worker was descheduled.
  std::vector<double> cpu_seconds_per_worker;
  double final_error = -1.0;        ///< oracle error (when x_star given)
};

RuntimeResult run_async_threads(const op::BlockOperator& op,
                                const la::Vector& x0,
                                const RuntimeOptions& options);

RuntimeResult run_sync_threads(const op::BlockOperator& op,
                               const la::Vector& x0,
                               const RuntimeOptions& options);

}  // namespace asyncit::rt
