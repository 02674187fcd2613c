// Fixed-point operator interface.
//
// Everything asyncit iterates is an operator F : R^n -> R^n whose
// components are grouped into blocks by a Partition (Definition 1 updates
// "components"; a component here is a block). Implementations compute one
// block of F(x) at a time — exactly the unit of work an asynchronous
// processor performs during an updating phase.
//
// Every hot entry point takes an op::Workspace for scratch so that
// steady-state block updates perform no heap allocations (see
// workspace.hpp); the Workspace-less overloads are conveniences that use
// the calling thread's shared workspace.
#pragma once

#include <span>
#include <string>

#include "asyncit/linalg/partition.hpp"
#include "asyncit/linalg/vector_ops.hpp"
#include "asyncit/operators/workspace.hpp"

namespace asyncit::op {

class BlockOperator {
 public:
  virtual ~BlockOperator() = default;

  virtual const la::Partition& partition() const = 0;
  std::size_t dim() const { return partition().dim(); }
  std::size_t num_blocks() const { return partition().num_blocks(); }

  /// Computes block b of F(x) into `out` (out.size() == block size).
  /// `x` is the full-dimension read view (possibly stale / mixed-label —
  /// the operator itself is oblivious to delays). `ws` provides scratch;
  /// implementations must not allocate in steady state. Calls on distinct
  /// blocks, each thread with a workspace of its own, may run
  /// concurrently: the asynchronous executors and picard_solve make them.
  virtual void apply_block(la::BlockId b, std::span<const double> x,
                           std::span<double> out, Workspace& ws) const = 0;

  /// Convenience overload on the calling thread's shared workspace.
  void apply_block(la::BlockId b, std::span<const double> x,
                   std::span<double> out) const {
    apply_block(b, x, out, thread_workspace());
  }

  /// Fused update + residual: out = F_b(x), returns ‖F_b(x) − x_b‖_2 —
  /// the per-block displacement the stopping rules poll. Default computes
  /// apply_block then one pass over the (contiguous) block.
  virtual double apply_block_residual(la::BlockId b,
                                      std::span<const double> x,
                                      std::span<double> out,
                                      Workspace& ws) const;

  /// Full application y = F(x). Default: loop over blocks.
  virtual void apply(std::span<const double> x, std::span<double> y,
                     Workspace& ws) const;
  void apply(std::span<const double> x, std::span<double> y) const {
    apply(x, y, thread_workspace());
  }

  virtual std::string name() const = 0;
};

/// ‖F(x) − x‖_inf — the fixed-point residual.
double fixed_point_residual(const BlockOperator& op, std::span<const double> x,
                            Workspace& ws);
inline double fixed_point_residual(const BlockOperator& op,
                                   std::span<const double> x) {
  return fixed_point_residual(op, x, thread_workspace());
}

/// max_b ‖F_b(x) − x_b‖_2 — the per-block Euclidean fixed-point residual.
/// The certificate behind the displacement stopping rule of the threaded
/// and message-passing runtimes: for a contraction with factor α, a value
/// below tol implies ‖x − x*‖ ≤ tol / (1 − α).
double max_block_residual(const BlockOperator& op, std::span<const double> x,
                          Workspace& ws);
inline double max_block_residual(const BlockOperator& op,
                                 std::span<const double> x) {
  return max_block_residual(op, x, thread_workspace());
}

/// Synchronous Picard iteration x <- F(x) until the fixed-point residual
/// drops below tol or max_iters is reached. Returns the final iterate.
/// Used to produce high-precision reference solutions for tests/benches.
///
/// A sweep runs on T = min(CPUs, blocks, dim / 2^14) threads, at least
/// 1: the caller, with `ws`, and T - 1 threads started by run_on_threads
/// (support/threads.hpp), each with a workspace of its own. Each thread
/// computes a contiguous run of blocks of F(x), so apply_block runs
/// concurrently on distinct blocks, one workspace per thread. The threads
/// meet at one barrier per sweep. Every block is computed by the same
/// kernel from the previous sweep's x, and the stop test is a maximum, so
/// the sweep count and every bit of the result do not depend on T. A
/// block that throws ends the solve after that sweep; once every thread
/// has joined, the caller gets the exception of the lowest block that
/// threw, which the one-thread loop would have thrown.
la::Vector picard_solve(const BlockOperator& op, la::Vector x0,
                        std::size_t max_iters, double tol, Workspace& ws);
inline la::Vector picard_solve(const BlockOperator& op, la::Vector x0,
                               std::size_t max_iters, double tol) {
  return picard_solve(op, std::move(x0), max_iters, tol, thread_workspace());
}

}  // namespace asyncit::op
