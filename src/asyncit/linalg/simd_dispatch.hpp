// Runtime SIMD dispatch for the hot-path kernels.
//
// The level-1 primitives and the fused CSR row kernels exist in one
// implementation per instruction set (kernels_scalar.hpp,
// kernels_avx2.cpp). This layer picks ONE of them at startup and installs
// its function pointers in a single global table; the façade in
// kernels.hpp reads that table with a relaxed atomic pointer load, so the
// steady state pays one indirect call per kernel — no per-call branching,
// no allocation, and no re-resolution (pinned by tests/alloc_test.cpp via
// the resolutions() hook).
//
// Selection order (dispatch()):
//   1. The ASYNCIT_SIMD environment variable, when set to scalar|avx2 AND
//      that level is supported on this host. An unknown value or an
//      unsupported level falls back cleanly to the auto-detected best — a
//      test matrix can force every level on every runner without per-ISA
//      job conditions.
//   2. Otherwise the best supported level: avx2 > scalar on x86-64 (cpuid
//      via __builtin_cpu_supports; avx2 requires AVX2+FMA), scalar
//      everywhere else.
//
// The AVX2 object is compiled with per-TU flags (see CMakeLists.txt), so
// it BUILDS on any x86-64 host and only RUNS when cpuid says it may; a
// backend that is not compiled in reports a null table and is simply not
// supported at runtime.
//
// FP-reassociation contract: every backend is a valid summation order for
// the same mathematical expression. kernels_ref.hpp remains the semantics
// oracle; the parity tolerance of tests/kernels_test.cpp is the spec.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace asyncit::la::simd {

enum class Level : std::uint8_t { kScalar = 0, kAvx2 };
inline constexpr std::size_t kNumLevels = 2;

/// Stable lowercase names, also the ASYNCIT_SIMD vocabulary.
const char* to_string(Level level);
/// Parses a level name; returns false (out untouched) on unknown input.
bool parse_level(std::string_view name, Level& out);

/// The per-ISA kernel surface. One immutable instance per backend; the
/// active one is swapped in wholesale so callers never observe a mix.
struct KernelTable {
  Level level;

  /// sum_k a[k] * b[k]
  double (*dot)(const double* a, const double* b, std::size_t n);
  /// Sparse gather dot: sum_k vals[k] * x[cols[k]]
  double (*gather_dot)(const double* vals, const std::uint32_t* cols,
                       std::size_t n, const double* x);
  /// y[k] += alpha * x[k]
  void (*axpy)(double alpha, const double* x, double* y, std::size_t n);
  /// sum_k (a[k] - b[k])^2
  double (*sq_dist)(const double* a, const double* b, std::size_t n);
  /// sum_k a[k]^2
  double (*sq_norm)(const double* a, std::size_t n);
  /// Fused CSR row-range matvec: y[r - begin] = sum_k vals[k] x[cols[k]]
  /// over row r's [row_ptr[r], row_ptr[r+1]) range — the row loop and the
  /// gather dot live in the SAME ISA unit so there is no per-row
  /// indirection.
  void (*matvec_rows)(const std::size_t* row_ptr, const std::uint32_t* cols,
                      const double* vals, std::size_t begin, std::size_t end,
                      const double* x, double* y);
  /// Fused CSR Jacobi row range:
  ///   out[r - begin] = (rhs[r] - row_r . x) * inv_diag[r] + x[r].
  void (*jacobi_rows)(const std::size_t* row_ptr, const std::uint32_t* cols,
                      const double* vals, const double* rhs,
                      const double* inv_diag, std::size_t begin,
                      std::size_t end, const double* x, double* out);
};

/// Backend tables. scalar_table() is always non-null; avx2_table() is null
/// when its TU was compiled on a foreign architecture (the runtime
/// additionally gates on cpuid before installing it).
const KernelTable* scalar_table();
const KernelTable* avx2_table();

/// Compiled in AND executable on this host.
bool supported(Level level);
/// Highest supported level (detection order above).
Level best_supported();
/// Every supported level, lowest first (always starts with kScalar).
std::vector<Level> supported_levels();

/// Resolves the level (ASYNCIT_SIMD override, then detection) and installs
/// its table. Runs once automatically before main(); callable again by
/// tests. Returns the installed level.
Level dispatch();
/// Test hook: installs `level` if supported and returns true; otherwise
/// leaves the active table untouched and returns false.
bool force(Level level);
/// The level whose table is currently installed.
Level active_level();
/// Number of table installations so far (startup dispatch() counts one).
/// alloc_test pins that steady-state kernel calls never bump this.
std::uint64_t resolutions();

namespace detail {
// Relaxed atomic pointer — a plain load on every target we compile for.
// Constant-initialized to the scalar table, so kernels called from other
// TUs' static initializers (before the startup dispatch()) are already
// correct instead of racing the resolver.
extern std::atomic<const KernelTable*> g_active;
}  // namespace detail

/// The active kernel table (what kernels.hpp routes through).
inline const KernelTable& kernels() {
  return *detail::g_active.load(std::memory_order_relaxed);
}

}  // namespace asyncit::la::simd
