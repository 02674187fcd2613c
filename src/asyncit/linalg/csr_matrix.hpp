// Compressed sparse row matrix with a row builder and a triplet front end.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "asyncit/linalg/vector_ops.hpp"

namespace asyncit::la {

struct Triplet {
  std::uint32_t row;
  std::uint32_t col;
  double value;
};

class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Builds from row-grouped arrays: row r's entries are
  /// col_idx/values[row_ptr[r], row_ptr[r + 1]), in any column order and
  /// possibly repeating a column. Each row is sorted stably by column and
  /// repeated columns are summed in input order (0.0 + v1 + v2 + ...),
  /// compacting in place; the vectors then move into the matrix. The row
  /// sort is an insertion sort: O(k) on a row of k entries that is
  /// already sorted, O(k²) in the worst case, which suits the rows every
  /// builder emits (sorted, or short).
  static CsrMatrix from_rows(std::size_t rows, std::size_t cols,
                             std::vector<std::size_t> row_ptr,
                             std::vector<std::uint32_t> col_idx,
                             std::vector<double> values);

  /// Builds from triplets in any order; duplicate (row,col) entries are
  /// summed in input order. A stable scatter into rows, then from_rows:
  /// O(nnz) for rows that arrive in column order.
  static CsrMatrix from_triplets(std::size_t rows, std::size_t cols,
                                 std::vector<Triplet> triplets);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nnz() const { return values_.size(); }

  /// y = A x
  void matvec(std::span<const double> x, std::span<double> y) const;
  Vector matvec(std::span<const double> x) const;
  /// y = A^T x
  void matvec_transpose(std::span<const double> x, std::span<double> y) const;
  Vector matvec_transpose(std::span<const double> x) const;

  /// Row-range matvec: y[r - begin] = (A x)_r for r in [begin, end).
  /// The block-granular kernel the asynchronous executors hit per update.
  void matvec_rows(std::size_t begin, std::size_t end,
                   std::span<const double> x, std::span<double> y) const;

  /// Fused Jacobi row-range kernel:
  ///   out[r - begin] = (rhs[r] − A.row(r)·x) · inv_diag[r] + x[r]
  /// which equals the point-Jacobi update (rhs[r] − Σ_{k≠r} a_rk x_k)/a_rr
  /// when inv_diag[r] = 1/a_rr — the diagonal term is handled
  /// algebraically instead of with a per-element branch.
  void jacobi_rows(std::size_t begin, std::size_t end,
                   std::span<const double> rhs,
                   std::span<const double> inv_diag,
                   std::span<const double> x, std::span<double> out) const;

  /// Dot product of row r with x.
  double row_dot(std::size_t r, std::span<const double> x) const;

  /// Entry (r, c); O(log nnz_row) lookup; 0 if absent.
  double at(std::size_t r, std::size_t c) const;

  /// Diagonal (requires square).
  Vector diagonal() const;

  /// Row range accessors for iteration.
  std::span<const std::uint32_t> row_cols(std::size_t r) const;
  std::span<const double> row_values(std::size_t r) const;

  /// Raw CSR arrays (reference kernels and tests; prefer the typed
  /// kernels above for compute).
  std::span<const std::size_t> row_ptr() const { return row_ptr_; }
  std::span<const std::uint32_t> col_idx() const { return col_idx_; }
  std::span<const double> values() const { return values_; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> row_ptr_;
  std::vector<std::uint32_t> col_idx_;
  std::vector<double> values_;
};

/// Largest eigenvalue of A^T A (squared spectral norm of A) via power
/// iteration on v -> A^T (A v). Deterministic start vector.
double gram_spectral_norm(const CsrMatrix& a, int iters = 200);

}  // namespace asyncit::la
