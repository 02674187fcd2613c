#include "asyncit/support/threads.hpp"

#include <exception>
#include <thread>
#include <vector>

#include "asyncit/support/check.hpp"

namespace asyncit {

void run_on_threads(std::size_t n,
                    const std::function<void(std::uint32_t)>& body) {
  // Rank 0 runs on the calling thread, not a spawned one, because each
  // thread that allocates takes its own glibc malloc arena. A draft that
  // spawned all n raised psgd_tap_inproc's peak RSS from 47.0-48.0 MB to
  // 60.2-73.6 MB (four 6 s runs on a 4-vCPU host; 34.4 MB with
  // MALLOC_ARENA_MAX=1), where rank 0 on the caller leaves it unchanged.
  ASYNCIT_CHECK(n >= 1);
  std::vector<std::exception_ptr> errors(n);
  auto run = [&](std::uint32_t r) {
    try {
      body(r);
    } catch (...) {
      errors[r] = std::current_exception();
    }
  };
  {
    // jthreads join when the scope ends, also if a spawn throws.
    std::vector<std::jthread> threads;
    threads.reserve(n - 1);
    for (std::uint32_t r = 1; r < n; ++r) threads.emplace_back(run, r);
    run(0);
  }
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
}

}  // namespace asyncit
