// AVX2 + FMA dispatch backend: 256-bit (4-wide) double kernels — the
// ONLY object compiled with -mavx2 -mfma (see the per-source properties in
// CMakeLists.txt), so the vector code cannot leak into TUs that must run
// on pre-AVX2 hardware. The object builds on any x86-64 host; the runtime
// (simd_dispatch.cpp) installs its table only when cpuid reports
// AVX2+FMA.
//
// Implementation shape: multiple independent vector accumulators to break
// the FP add dependency chain, scalar remainder loops (AVX2 has no cheap
// lane masking for doubles), and the horizontal reduction at the end is
// one more summation order, covered by the parity tolerance
// (kernels_ref.hpp is the oracle).
//
// The sparse column indirection deliberately does NOT use vgatherdpd:
// on the wide installed base of Downfall-mitigated parts (Skylake through
// Ice Lake server cores, most cloud VMs) the microcoded gather is several
// times SLOWER than scalar loads. Instead each x lane is fetched with
// vbroadcastsd (a pure load uop) and lanes are combined with vblendpd
// (any-port). That construction is never pathological: it ties the scalar
// backend on narrow cores and wins on wide ones, whatever the microcode.
#include <cstddef>
#include <cstdint>

#include "asyncit/linalg/simd_dispatch.hpp"

#if defined(__AVX2__) && defined(__FMA__)
#define ASYNCIT_SIMD_AVX2_COMPILED 1

#include <immintrin.h>

#if defined(__GNUC__) && !defined(__clang__)
// GCC implements several unmasked AVX/AVX2 intrinsics in terms of
// _mm256_undefined_*() and flags the deliberately-uninitialized source at
// every always_inline site (GCC PR 105593). The kernels below initialize
// every accumulator; suppress the header false positive for this backend
// TU only.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

namespace asyncit::la::simd::avx2 {

namespace {

/// Four x lanes fetched through the column indices with broadcast loads
/// and blends — see the file comment for why this beats vgatherdpd.
inline __m256d gather4(const double* x, const std::uint32_t* c) {
  const __m256d v0 = _mm256_broadcast_sd(x + c[0]);
  const __m256d v1 = _mm256_broadcast_sd(x + c[1]);
  const __m256d v2 = _mm256_broadcast_sd(x + c[2]);
  const __m256d v3 = _mm256_broadcast_sd(x + c[3]);
  return _mm256_blend_pd(_mm256_blend_pd(v0, v1, 0b0010),
                         _mm256_blend_pd(v2, v3, 0b1000), 0b1100);
}

/// Sum of the four lanes (pairwise: (l0+l2) + (l1+l3)).
inline double hsum(__m256d v) {
  __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  lo = _mm_add_pd(lo, hi);
  return _mm_cvtsd_f64(_mm_add_sd(lo, _mm_unpackhi_pd(lo, lo)));
}

double dot(const double* a, const double* b, std::size_t n) {
  __m256d s0 = _mm256_setzero_pd(), s1 = _mm256_setzero_pd();
  __m256d s2 = _mm256_setzero_pd(), s3 = _mm256_setzero_pd();
  std::size_t k = 0;
  for (; k + 16 <= n; k += 16) {
    s0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + k), _mm256_loadu_pd(b + k), s0);
    s1 = _mm256_fmadd_pd(_mm256_loadu_pd(a + k + 4),
                         _mm256_loadu_pd(b + k + 4), s1);
    s2 = _mm256_fmadd_pd(_mm256_loadu_pd(a + k + 8),
                         _mm256_loadu_pd(b + k + 8), s2);
    s3 = _mm256_fmadd_pd(_mm256_loadu_pd(a + k + 12),
                         _mm256_loadu_pd(b + k + 12), s3);
  }
  for (; k + 4 <= n; k += 4)
    s0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + k), _mm256_loadu_pd(b + k), s0);
  double s = hsum(_mm256_add_pd(_mm256_add_pd(s0, s1), _mm256_add_pd(s2, s3)));
  for (; k < n; ++k) s += a[k] * b[k];
  return s;
}

double gather_dot(const double* vals, const std::uint32_t* cols,
                  std::size_t n, const double* x) {
  __m256d s0 = _mm256_setzero_pd(), s1 = _mm256_setzero_pd();
  std::size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    s0 = _mm256_fmadd_pd(_mm256_loadu_pd(vals + k), gather4(x, cols + k), s0);
    s1 = _mm256_fmadd_pd(_mm256_loadu_pd(vals + k + 4),
                         gather4(x, cols + k + 4), s1);
  }
  for (; k + 4 <= n; k += 4)
    s0 = _mm256_fmadd_pd(_mm256_loadu_pd(vals + k), gather4(x, cols + k), s0);
  double s = hsum(_mm256_add_pd(s0, s1));
  for (; k < n; ++k) s += vals[k] * x[cols[k]];
  return s;
}

void axpy(double alpha, const double* x, double* y, std::size_t n) {
  const __m256d av = _mm256_set1_pd(alpha);
  std::size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    _mm256_storeu_pd(
        y + k, _mm256_fmadd_pd(av, _mm256_loadu_pd(x + k),
                               _mm256_loadu_pd(y + k)));
    _mm256_storeu_pd(
        y + k + 4, _mm256_fmadd_pd(av, _mm256_loadu_pd(x + k + 4),
                                   _mm256_loadu_pd(y + k + 4)));
  }
  for (; k + 4 <= n; k += 4)
    _mm256_storeu_pd(
        y + k, _mm256_fmadd_pd(av, _mm256_loadu_pd(x + k),
                               _mm256_loadu_pd(y + k)));
  for (; k < n; ++k) y[k] += alpha * x[k];
}

double sq_dist(const double* a, const double* b, std::size_t n) {
  __m256d s0 = _mm256_setzero_pd(), s1 = _mm256_setzero_pd();
  std::size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    const __m256d d0 =
        _mm256_sub_pd(_mm256_loadu_pd(a + k), _mm256_loadu_pd(b + k));
    const __m256d d1 =
        _mm256_sub_pd(_mm256_loadu_pd(a + k + 4), _mm256_loadu_pd(b + k + 4));
    s0 = _mm256_fmadd_pd(d0, d0, s0);
    s1 = _mm256_fmadd_pd(d1, d1, s1);
  }
  for (; k + 4 <= n; k += 4) {
    const __m256d d =
        _mm256_sub_pd(_mm256_loadu_pd(a + k), _mm256_loadu_pd(b + k));
    s0 = _mm256_fmadd_pd(d, d, s0);
  }
  double s = hsum(_mm256_add_pd(s0, s1));
  for (; k < n; ++k) {
    const double d = a[k] - b[k];
    s += d * d;
  }
  return s;
}

double sq_norm(const double* a, std::size_t n) {
  __m256d s0 = _mm256_setzero_pd(), s1 = _mm256_setzero_pd();
  std::size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    const __m256d v0 = _mm256_loadu_pd(a + k);
    const __m256d v1 = _mm256_loadu_pd(a + k + 4);
    s0 = _mm256_fmadd_pd(v0, v0, s0);
    s1 = _mm256_fmadd_pd(v1, v1, s1);
  }
  for (; k + 4 <= n; k += 4) {
    const __m256d v = _mm256_loadu_pd(a + k);
    s0 = _mm256_fmadd_pd(v, v, s0);
  }
  double s = hsum(_mm256_add_pd(s0, s1));
  for (; k < n; ++k) s += a[k] * a[k];
  return s;
}

void matvec_rows(const std::size_t* row_ptr, const std::uint32_t* cols,
                 const double* vals, std::size_t begin, std::size_t end,
                 const double* x, double* y) {
  std::size_t k = row_ptr[begin];
  for (std::size_t r = begin; r < end; ++r) {
    const std::size_t k_end = row_ptr[r + 1];
    y[r - begin] = gather_dot(vals + k, cols + k, k_end - k, x);
    k = k_end;
  }
}

void jacobi_rows(const std::size_t* row_ptr, const std::uint32_t* cols,
                 const double* vals, const double* rhs,
                 const double* inv_diag, std::size_t begin, std::size_t end,
                 const double* x, double* out) {
  std::size_t k = row_ptr[begin];
  for (std::size_t r = begin; r < end; ++r) {
    const std::size_t k_end = row_ptr[r + 1];
    const double s = gather_dot(vals + k, cols + k, k_end - k, x);
    out[r - begin] = (rhs[r] - s) * inv_diag[r] + x[r];
    k = k_end;
  }
}

}  // namespace
}  // namespace asyncit::la::simd::avx2

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#endif  // __AVX2__ && __FMA__

namespace asyncit::la::simd {

#if defined(ASYNCIT_SIMD_AVX2_COMPILED)
namespace {
constexpr KernelTable kAvx2Table = {
    Level::kAvx2,   &avx2::dot,     &avx2::gather_dot,  &avx2::axpy,
    &avx2::sq_dist, &avx2::sq_norm, &avx2::matvec_rows, &avx2::jacobi_rows,
};
}  // namespace
const KernelTable* avx2_table() { return &kAvx2Table; }
#else
// Foreign architecture (or a toolchain without the flags): the backend is
// not compiled in; dispatch treats a null table as "unsupported".
const KernelTable* avx2_table() { return nullptr; }
#endif

}  // namespace asyncit::la::simd
