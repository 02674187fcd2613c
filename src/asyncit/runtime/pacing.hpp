// Worker pacing shared by the threaded executors (rt::) and the
// message-passing ranks (net::, train::).
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <span>

#include "asyncit/operators/operator.hpp"
#include "asyncit/support/check.hpp"

namespace asyncit::rt {

/// CPU-time slice after which a worker voluntarily yields. On machines
/// with fewer cores than workers, a worker otherwise burns its whole OS
/// quantum re-iterating against the other workers' frozen state; yielding
/// after each slice of OWN CPU time keeps the interleaving fine-grained
/// without distorting the update-count ratio between fast and slow
/// workers (every worker gives up the core at the same CPU-consumption
/// cadence, so counts stay proportional to speed). Long enough that the
/// yield is invisible in throughput, short enough that oversubscribed
/// workers alternate many times per contraction step; free when every
/// worker has its own core.
constexpr double kYieldPeriod = 1e-4;

/// Longest wait on Endpoint::wait_for_activity while a message-passing
/// rank (net::Peer, the PSGD server and workers) is blocked in a gate or
/// idle: bounds how long it can miss a stop or its wall budget.
constexpr double kMaxGateWait = 1e-3;

/// Compute repetition count for heterogeneity injection: a slowdown
/// factor f makes the worker redo each block update ceil(f) times
/// (empty = all workers at normal speed).
inline std::size_t slowdown_repetitions(std::span<const double> slowdown,
                                        std::size_t worker) {
  if (slowdown.empty()) return 1;
  ASYNCIT_CHECK(worker < slowdown.size());
  const double f = slowdown[worker];
  ASYNCIT_CHECK(f >= 1.0);
  return static_cast<std::size_t>(std::ceil(f));
}

/// Displacement stopping rule with residual confirmation, shared by the
/// rt:: async executor (worker 0 doubles as the monitor) and every net::
/// rank (gating on its own sweep's displacements, confirming on its
/// private view). All-small recent displacements are only a
/// CANDIDATE signal: on a timesliced machine each worker converges
/// conditionally on the others' frozen blocks within its quantum, so small
/// per-update displacements do not imply a global fixed point. Confirm on
/// a snapshot with the true residual ‖F(x) − x‖ before stopping (same
/// tol/(1−α) certificate, now sound). A failed confirmation costs a full
/// operator sweep, so back off rather than re-running it every check.
class DisplacementStop {
 public:
  /// Returns true when the stop is confirmed. `last_displacement` is the
  /// per-block displacement plane (written via atomic_ref by workers);
  /// `snapshot_into` fills a caller buffer with a consistent copy of the
  /// iterate on demand. Snapshot and residual scratch come from `ws`, so
  /// a poll allocates nothing once the workspace is warm.
  template <class SnapshotIntoFn>
  bool should_stop(std::span<double> last_displacement,
                   const op::BlockOperator& op, double tol,
                   SnapshotIntoFn&& snapshot_into, op::Workspace& ws) {
    if (backoff_ > 0) {
      --backoff_;
      return false;
    }
    double worst = 0.0;
    for (double& d : last_displacement)
      worst = std::max(
          worst, std::atomic_ref<double>(d).load(std::memory_order_relaxed));
    if (worst >= tol) return false;
    op::Scratch snap(ws, op.dim());
    snapshot_into(snap.span());
    if (op::max_block_residual(op, snap, ws) < tol) return true;
    backoff_ = kConfirmBackoff;
    return false;
  }

 private:
  /// Checks skipped after a failed confirmation (25 own sweeps of a net::
  /// rank; 25 · check_every worker-0 updates in rt::).
  static constexpr int kConfirmBackoff = 25;
  int backoff_ = 0;
};

}  // namespace asyncit::rt
