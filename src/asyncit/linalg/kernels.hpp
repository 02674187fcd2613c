// Hot-path kernel façade: the tight inner loops shared by the linalg
// containers and the block operators, routed through the runtime SIMD
// dispatch layer.
//
// Every executor layer (engine/, sim/, runtime/, net/) funnels its
// per-update work through these few entry points. The actual loop bodies
// live in one backend per instruction set —
//
//   kernels_scalar.hpp   4-way unrolled portable floor (always built)
//   kernels_avx2.cpp     4-wide AVX2+FMA; CSR indirection via
//                        broadcast+blend, deliberately NO vgatherdpd
//
// — and simd_dispatch.hpp installs exactly one of them at startup (cpuid
// detection, ASYNCIT_SIMD env override). Each wrapper
// below is a single indirect call through the installed table: no per-call
// branching, no allocation, no re-resolution (pinned by
// tests/alloc_test.cpp).
//
// NOTE on floating point: every backend reorders the summation relative
// to the naive loops (unrolling, vector lanes, horizontal reductions), so
// results may differ from kernels_ref.hpp by rounding — not by magnitude.
// kernels_ref.hpp is the semantics oracle; the relative-error tolerance of
// the ISA-sweep parity suite in tests/kernels_test.cpp is the spec. All
// consumers in this repo are fixed-point iterations that converge to
// tolerances far above that parity band.
#pragma once

#include <cstddef>
#include <cstdint>

#include "asyncit/linalg/simd_dispatch.hpp"

namespace asyncit::la::kern {

/// sum_k a[k] * b[k]
inline double dot(const double* a, const double* b, std::size_t n) {
  return simd::kernels().dot(a, b, n);
}

/// Sparse gather dot: sum_k vals[k] * x[cols[k]]
inline double sparse_dot(const double* vals, const std::uint32_t* cols,
                         std::size_t n, const double* x) {
  return simd::kernels().gather_dot(vals, cols, n, x);
}

/// y[k] += alpha * x[k]
inline void axpy(double alpha, const double* x, double* y, std::size_t n) {
  simd::kernels().axpy(alpha, x, y, n);
}

/// Sparse scatter axpy: y[cols[k]] += alpha * vals[k]
inline void sparse_axpy(double alpha, const double* vals,
                        const std::uint32_t* cols, std::size_t n, double* y) {
  // Deliberately scalar at every dispatch level: scatter targets may alias
  // (duplicate columns inside a vector window would reorder
  // read-modify-writes), so this loop is not legal to widen.
  for (std::size_t k = 0; k < n; ++k) y[cols[k]] += alpha * vals[k];
}

/// sum_k (a[k] - b[k])^2
inline double sq_dist(const double* a, const double* b, std::size_t n) {
  return simd::kernels().sq_dist(a, b, n);
}

/// sum_k a[k]^2
inline double sq_norm(const double* a, std::size_t n) {
  return simd::kernels().sq_norm(a, n);
}

/// Fused CSR row-range matvec (row loop + gather dot in one ISA unit):
/// y[r - begin] = (A x)_r for r in [begin, end).
inline void matvec_rows(const std::size_t* row_ptr, const std::uint32_t* cols,
                        const double* vals, std::size_t begin, std::size_t end,
                        const double* x, double* y) {
  simd::kernels().matvec_rows(row_ptr, cols, vals, begin, end, x, y);
}

/// Fused CSR Jacobi row range:
/// out[r - begin] = (rhs[r] - row_r . x) * inv_diag[r] + x[r].
inline void jacobi_rows(const std::size_t* row_ptr, const std::uint32_t* cols,
                        const double* vals, const double* rhs,
                        const double* inv_diag, std::size_t begin,
                        std::size_t end, const double* x, double* out) {
  simd::kernels().jacobi_rows(row_ptr, cols, vals, rhs, inv_diag, begin, end,
                              x, out);
}

}  // namespace asyncit::la::kern
