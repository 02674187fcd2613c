// Alloc-free, lock-free event tracing (DESIGN.md §8).
//
// One process-wide TraceRecorder owns a registry of per-thread ring
// buffers. A thread's first record() claims a ring of at least the armed
// run's capacity (allocating it, or reusing one released by a finished
// thread; a thread whose ring is smaller than a later run asks for
// claims again) — that claim is the ONLY heap activity; every subsequent
// record() is four relaxed atomic word stores plus one release bump of
// the ring head. alloc_test pins this: after warm-up, a full-tracing
// messaging round trip allocates nothing.
//
// Concurrency contract:
//  * exactly one writer per ring (the owning thread); rings are never
//    shared between concurrently-live threads.
//  * readers (snapshot/dump/stats) may run at any time from any thread;
//    they copy slot words relaxed, then discard any slot the writer may
//    have lapped while the copy was in flight (re-checking the head), so
//    a torn slot is never decoded.
//  * an event that leaves the readable window (the newest capacity - 1)
//    unread counts in dropped() — loss is accounted, never silent.
//  * enable()/disable() only flip an atomic level and reset counters;
//    rings persist for the life of the process (registry is append-only
//    + free-list), so a long-lived service thread (e.g. a TCP writer)
//    holding its ring across run boundaries never dereferences freed
//    memory.
//
// Ranks: every event names the rank whose code recorded it — the
// thread's ScopedRank, set by whatever runs a rank (net::run_node,
// train::run_training_node, rt:: workers, TCP service threads, and
// simnet's engine around each fiber dispatch); rank 0 when none is set.
//
// Clocks: events are stamped with nanoseconds since enable() read from an
// injectable raw source — steady (monotonic) by default, or whatever
// set_trace_clock() installed (simnet::run_world installs virtual time,
// so Perfetto timelines and the admissibility auditor see simulated
// seconds). enable() also latches CLOCK_REALTIME, which the exporter
// writes as `epoch_realtime_ns` so tools/trace_merge.py can align the
// per-rank timelines of a multi-process run.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "asyncit/obs/events.hpp"

namespace asyncit::obs {

enum class TraceLevel : int {
  kOff = 0,      ///< record() is a single relaxed load + branch
  kMetrics = 1,  ///< metrics registry live, event rings off
  kFull = 2,     ///< metrics + per-thread event rings
};

const char* to_string(TraceLevel level);
/// Parses "none"/"off", "metrics", "full" (asyncit_node config values).
bool parse_trace_level(const char* text, TraceLevel* out);

struct TraceConfig {
  TraceLevel level = TraceLevel::kFull;
  /// Per-thread ring capacity in events; rounded up to a power of two.
  /// 4096 events * 32 B = 128 KiB per instrumented thread.
  std::size_t ring_capacity = 4096;
};

/// Raw timestamp source for event stamping: absolute nanoseconds on any
/// monotone clock (enable() latches the then-current reading as t0, so
/// only differences matter). A plain function pointer — the hot path
/// must stay a load + indirect call with no std::function allocation.
using TraceClockFn = std::uint64_t (*)();

/// Installs `fn` as the recorder's raw clock; nullptr restores the
/// default steady clock. Takes effect immediately, but call it BEFORE
/// enable() at a run boundary — t0 is latched from the then-active
/// source, and timestamps across a mid-run swap would mix anchors.
/// simnet::run_world wraps a run with install/restore so sim traces
/// carry virtual time; the hang watchdog stays on real time regardless.
void set_trace_clock(TraceClockFn fn);
TraceClockFn trace_clock();

struct RecorderStats {
  std::uint64_t recorded = 0;  ///< events pushed since enable()
  std::uint64_t dropped = 0;   ///< events lost before any snapshot
  std::size_t rings = 0;       ///< rings written to since enable()
};

namespace detail {
/// Hot-path level word. Lives outside the singleton so the record()
/// fast path is a plain relaxed load with no static-init guard.
extern std::atomic<int> g_level;
class ThreadRing;
}  // namespace detail

class TraceRecorder {
 public:
  static TraceRecorder& instance();

  /// Arms the recorder: resets every registered ring and counter,
  /// latches the clock anchors, then publishes `config.level`. Call at
  /// a run boundary; racing record() calls land harmlessly in reset
  /// rings but their timestamps would mix anchors.
  void enable(const TraceConfig& config);
  /// Lowers the level to kOff. Rings keep their contents so the caller
  /// can still snapshot() the finished run.
  void disable();

  TraceLevel level() const {
    return static_cast<TraceLevel>(
        detail::g_level.load(std::memory_order_relaxed));
  }

  /// Monotonic nanoseconds since enable().
  std::uint64_t now_ns() const;
  /// CLOCK_REALTIME at enable(), for cross-process trace alignment.
  std::uint64_t epoch_realtime_ns() const { return epoch_realtime_ns_; }

  /// Copies every readable event from every ring into `out` (appended,
  /// per-ring order; callers sort by t_ns when they need one timeline)
  /// and advances the read cursors, so subsequently overwritten slots no
  /// longer count as drops. Returns the number of events appended.
  std::size_t snapshot(std::vector<Event>* out);

  RecorderStats stats() const;

  /// Human-readable dump of the newest `max_per_ring` events of every
  /// ring — the watchdog's flight recorder on a hung test. Does not
  /// advance read cursors.
  void dump(std::ostream& os, std::size_t max_per_ring = 32) const;

  /// Writer path; use the free record() helpers instead.
  void push(EventType type, std::uint8_t sub, std::uint32_t a,
            std::uint64_t b, double v);
  /// Writer path for timed phases: one clock read serves as both the
  /// event timestamp and the end of the phase, so a duration event costs
  /// two clock reads total (start + here) instead of three.
  void push_phase_end(EventType type, std::uint8_t sub, std::uint32_t a,
                      std::uint64_t b, std::uint64_t t0_ns);

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

 private:
  TraceRecorder();
  ~TraceRecorder();

  friend struct TlsRingHandle;
  /// A ring of at least the armed capacity; `held` (if any) goes back to
  /// the free list first.
  detail::ThreadRing* claim_ring(detail::ThreadRing* held);
  void release_ring(detail::ThreadRing* ring);

  struct Impl;
  Impl* impl_;  ///< raw: the singleton lives until process exit

  std::uint64_t t0_steady_ns_ = 0;
  std::uint64_t epoch_realtime_ns_ = 0;
};

/// Stamps the calling thread's events with `rank` until scope exit,
/// then restores the rank it replaced. The code that runs one rank opens
/// one for its body; the recorder holds no rank of its own.
class ScopedRank {
 public:
  explicit ScopedRank(std::uint32_t rank);
  ~ScopedRank();
  ScopedRank(const ScopedRank&) = delete;
  ScopedRank& operator=(const ScopedRank&) = delete;

 private:
  std::uint16_t prev_;
};

/// Arms the process-global recorder for one run and disarms it on scope
/// exit. At kOff it does nothing, so callers that manage the recorder
/// themselves (benches, a world hosting many ranks) pass kOff down to
/// the runs they host. Otherwise it installs `clock` (nullptr keeps the
/// current source), enables the recorder, resets the metrics registry,
/// and on exit disables the recorder and restores the previous clock —
/// rings keep their events for the caller's snapshot.
class ScopedTrace {
 public:
  ScopedTrace(TraceLevel level, std::size_t ring_capacity,
              TraceClockFn clock = nullptr);
  ~ScopedTrace();
  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;

  /// Disarms now (idempotent) and writes the run's recorder accounting
  /// into `recorded`/`dropped`; leaves both untouched at kOff.
  void stop(std::uint64_t& recorded, std::uint64_t& dropped);

 private:
  void disarm();
  bool armed_ = false;
  TraceClockFn prev_clock_ = nullptr;
};

inline bool tracing_full() {
  return detail::g_level.load(std::memory_order_relaxed) ==
         static_cast<int>(TraceLevel::kFull);
}
inline bool tracing_on() {
  return detail::g_level.load(std::memory_order_relaxed) !=
         static_cast<int>(TraceLevel::kOff);
}

/// The instrumentation entry point: free to call from any thread at any
/// time; compiles to a relaxed load + branch when tracing is off.
inline void record(EventType type, std::uint8_t sub, std::uint32_t a,
                   std::uint64_t b, double v) {
  if (!tracing_full()) return;
  TraceRecorder::instance().push(type, sub, a, b, v);
}
inline void record(EventType type, std::uint32_t a, std::uint64_t b,
                   double v) {
  record(type, 0, a, b, v);
}

/// Timed-phase helpers: call phase_start_ns() when tracing_full() holds,
/// pass the value to record_phase_end() — the event's v becomes the phase
/// duration in seconds, derived from the push's own timestamp (no third
/// clock read).
inline std::uint64_t phase_start_ns() {
  return TraceRecorder::instance().now_ns();
}
inline void record_phase_end(EventType type, std::uint8_t sub,
                             std::uint32_t a, std::uint64_t b,
                             std::uint64_t t0_ns) {
  if (!tracing_full()) return;
  TraceRecorder::instance().push_phase_end(type, sub, a, b, t0_ns);
}

}  // namespace asyncit::obs
