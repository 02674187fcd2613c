// Runtime dispatch resolution: capability detection, the ASYNCIT_SIMD
// override, and the one global table installation. See simd_dispatch.hpp
// for the selection contract.
#include "asyncit/linalg/simd_dispatch.hpp"

#include <cstdlib>

#include "asyncit/linalg/kernels_scalar.hpp"

namespace asyncit::la::simd {

namespace detail {
// Constant-initialized (no static-init-order hazard): any kernel call that
// happens before the startup resolver below runs goes through the scalar
// table, which is correct on every host.
constinit std::atomic<const KernelTable*> g_active{&scalar::kTable};
}  // namespace detail

namespace {

std::atomic<std::uint64_t> g_resolutions{0};

const KernelTable* table_for(Level level) {
  switch (level) {
    case Level::kScalar: return scalar_table();
    case Level::kAvx2: return avx2_table();
  }
  return nullptr;
}

/// Does the CPU we are running on execute this level's instructions?
/// (Whether the backend was COMPILED is a separate question — table_for.)
bool cpu_supports(Level level) {
  switch (level) {
    case Level::kScalar:
      return true;
    case Level::kAvx2:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
      return false;
#endif
  }
  return false;
}

void install(const KernelTable* table) {
  detail::g_active.store(table, std::memory_order_relaxed);
  g_resolutions.fetch_add(1, std::memory_order_relaxed);
}

// Resolve once before main() so every executor starts on the best level.
// (Code running during OTHER TUs' static initialization may still see the
// scalar table — correct, just not yet vectorized.)
const bool g_startup_resolved = [] {
  dispatch();
  return true;
}();

}  // namespace

const char* to_string(Level level) {
  switch (level) {
    case Level::kScalar: return "scalar";
    case Level::kAvx2: return "avx2";
  }
  return "?";
}

bool parse_level(std::string_view name, Level& out) {
  for (std::size_t i = 0; i < kNumLevels; ++i) {
    const Level level = static_cast<Level>(i);
    if (name == to_string(level)) {
      out = level;
      return true;
    }
  }
  return false;
}

const KernelTable* scalar_table() { return &scalar::kTable; }

bool supported(Level level) {
  return table_for(level) != nullptr && cpu_supports(level);
}

Level best_supported() {
  return supported(Level::kAvx2) ? Level::kAvx2 : Level::kScalar;
}

std::vector<Level> supported_levels() {
  std::vector<Level> levels;
  for (std::size_t i = 0; i < kNumLevels; ++i)
    if (supported(static_cast<Level>(i)))
      levels.push_back(static_cast<Level>(i));
  return levels;
}

Level dispatch() {
  Level level = best_supported();
  if (const char* env = std::getenv("ASYNCIT_SIMD")) {
    Level requested;
    // Unknown names and unsupported levels both fall back to the detected
    // best: a CI matrix can export ASYNCIT_SIMD=avx2 on every runner and
    // the ones without AVX2 still run, just at their own best.
    if (parse_level(env, requested) && supported(requested))
      level = requested;
  }
  install(table_for(level));
  return level;
}

bool force(Level level) {
  if (!supported(level)) return false;
  install(table_for(level));
  return true;
}

Level active_level() {
  return detail::g_active.load(std::memory_order_relaxed)->level;
}

std::uint64_t resolutions() {
  return g_resolutions.load(std::memory_order_relaxed);
}

}  // namespace asyncit::la::simd
