// Wall-clock timing for benchmarks.
#pragma once

#include <chrono>

#if defined(__unix__) || defined(__APPLE__)
#include <ctime>
#define ASYNCIT_HAS_THREAD_CPU_CLOCK 1
#endif

namespace asyncit {

class WallTimer {
 public:
  WallTimer() : start_(clock::now()) {}
  virtual ~WallTimer() = default;

  void reset() { start_ = clock::now(); }

  /// Elapsed seconds since construction / last reset. Virtual so a run
  /// clock can be substituted wholesale: simnet::SimClock overrides this
  /// with virtual time, turning every wall-clock budget (solve
  /// max_seconds, gate timeouts) into a deterministic virtual budget.
  /// One indirect call per read is noise next to the clock_gettime
  /// underneath.
  virtual double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

  double millis() const { return seconds() * 1e3; }

  /// Whether seconds() is simulated time, which moves only when the
  /// caller yields to a scheduler (simnet::SimClock overrides this). The
  /// ranks on such a clock are fibers of one OS thread, so that thread's
  /// CPU time is every rank's, and no other thread waits for it.
  virtual bool simulated() const { return false; }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// CPU time consumed by the CALLING thread (not wall time). Used by the
/// threaded executors to pace voluntary yields: on an oversubscribed
/// machine, wall time advances while a thread is descheduled, so a
/// wall-clock yield cadence collapses into yielding at every check; CPU
/// time only advances while the thread actually runs. Falls back to wall
/// time on platforms without a per-thread CPU clock.
class ThreadCpuTimer {
 public:
  ThreadCpuTimer() : start_(now()) {}

  void reset() { start_ = now(); }

  /// CPU seconds this thread has consumed since construction / reset.
  double seconds() const { return now() - start_; }

 private:
  static double now() {
#ifdef ASYNCIT_HAS_THREAD_CPU_CLOCK
    timespec ts;
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
#else
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
#endif
  }
  double start_;
};

}  // namespace asyncit
