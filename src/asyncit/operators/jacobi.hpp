// Point-Jacobi fixed-point operator for linear systems A x = b:
//
//   F_i(x) = ( b_i − Σ_{k≠i} a_ik x_k ) / a_ii .
//
// For strictly diagonally dominant A this operator is a contraction in the
// maximum norm with factor alpha = max_i Σ_{k≠i} |a_ik| / |a_ii| < 1 — the
// classic setting of Chazan–Miranker chaotic relaxation, and the simplest
// substrate on which all of the paper's asynchronous machinery is exact.
#pragma once

#include "asyncit/linalg/csr_matrix.hpp"
#include "asyncit/linalg/partition.hpp"
#include "asyncit/operators/operator.hpp"

namespace asyncit::op {

class JacobiOperator final : public BlockOperator {
 public:
  /// A must be square with nonzero diagonal; partition.dim() == A.rows().
  /// partition() returns `partition` with the read sets of A's sparsity
  /// attached (block b reads the blocks its rows have columns in).
  JacobiOperator(const la::CsrMatrix& a, la::Vector b,
                 la::Partition partition);

  const la::Partition& partition() const override { return partition_; }
  using BlockOperator::apply_block;
  void apply_block(la::BlockId blk, std::span<const double> x,
                   std::span<double> out, Workspace& ws) const override;
  /// Fused update + displacement: one matrix traversal, no extra pass
  /// re-reading the rows.
  double apply_block_residual(la::BlockId blk, std::span<const double> x,
                              std::span<double> out,
                              Workspace& ws) const override;
  std::string name() const override { return "jacobi"; }

  /// Max-norm contraction bound: max_i Σ_{k≠i} |a_ik| / |a_ii|.
  double contraction_bound() const;

 private:
  const la::CsrMatrix& a_;
  la::Vector b_;
  la::Vector diag_;
  la::Vector inv_diag_;
  la::Partition partition_;
};

}  // namespace asyncit::op
