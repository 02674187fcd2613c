// Naive reference kernels — the exact loop shapes the optimized kernels in
// kernels.hpp replaced (single accumulator, per-element index arithmetic,
// branchy diagonal handling).
//
// They exist for two reasons:
//  * tests/kernels_test.cpp pins EVERY dispatch level of the kernel façade
//    (linalg/simd_dispatch.hpp: scalar/AVX2) against them on random
//    inputs — these loops are the semantics ORACLE of the
//    FP-reassociation contract, and the parity tolerance is the spec; and
//  * bench/micro_kernels.cpp measures the optimized-vs-naive gap and
//    records it in BENCH_kernels.json, which scripts/check_bench.py tracks
//    run over run.
//
// Do not "improve" these: their value is being a faithful, boring baseline.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace asyncit::la::ref {

inline double dot(const double* a, const double* b, std::size_t n) {
  double s = 0.0;
  for (std::size_t k = 0; k < n; ++k) s += a[k] * b[k];
  return s;
}

inline double sparse_dot(const double* vals, const std::uint32_t* cols,
                         std::size_t n, const double* x) {
  double s = 0.0;
  for (std::size_t k = 0; k < n; ++k) s += vals[k] * x[cols[k]];
  return s;
}

inline void axpy(double alpha, const double* x, double* y, std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) y[k] += alpha * x[k];
}

inline double sq_dist(const double* a, const double* b, std::size_t n) {
  double s = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    const double d = a[k] - b[k];
    s += d * d;
  }
  return s;
}

/// Pre-PR CSR matvec: per-row loop indexing row_ptr bounds each iteration.
inline void csr_matvec(std::span<const std::size_t> row_ptr,
                       std::span<const std::uint32_t> col_idx,
                       std::span<const double> values,
                       std::span<const double> x, std::span<double> y) {
  const std::size_t rows = y.size();
  for (std::size_t r = 0; r < rows; ++r) {
    double s = 0.0;
    for (std::size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k)
      s += values[k] * x[col_idx[k]];
    y[r] = s;
  }
}

/// Pre-PR Jacobi block update: branch on the diagonal inside the inner
/// loop, one division per row.
inline void jacobi_rows(std::span<const std::size_t> row_ptr,
                        std::span<const std::uint32_t> col_idx,
                        std::span<const double> values,
                        std::span<const double> rhs,
                        std::span<const double> diag, std::size_t begin,
                        std::size_t end, std::span<const double> x,
                        std::span<double> out) {
  for (std::size_t row = begin; row < end; ++row) {
    double s = rhs[row];
    for (std::size_t k = row_ptr[row]; k < row_ptr[row + 1]; ++k) {
      if (col_idx[k] == row) continue;
      s -= values[k] * x[col_idx[k]];
    }
    out[row - begin] = s / diag[row];
  }
}

}  // namespace asyncit::la::ref
