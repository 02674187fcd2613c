// Virtual-time discrete-event engine (DESIGN.md §10).
//
// Single-threaded: simulated ranks are cooperative fibers, time is a
// double of virtual seconds, and the only scheduler is a monotone event
// queue keyed (t_virtual, seq). `seq` is a global push counter, so ties
// at equal virtual time dispatch in push order — the deterministic
// tie-break that makes one (config, seed) pair name exactly one
// execution. Two runs of the same world agree event-for-event, which the
// determinism tests check by comparing the rolling log hash (and, opt-in,
// the byte-exact EventRecord stream).
//
// Time model: a fiber accrues cost with charge(dt) (no yield), sleeps
// with advance(dt) (yield; resumes at now()+dt), and blocks with
// wait_until(deadline) (yield; resumes at the deadline OR earlier when
// another fiber calls wake()). Every live fiber therefore always has at
// least one pending event, so queue-exhaustion == all fibers done; a
// drained queue with a live fiber is a lost wakeup and fails loudly.
//
// Stale events: each task carries a generation counter bumped on every
// dispatch. Events are stamped with the generation at push time; a
// dispatched event whose stamp is old (the task already ran for another
// reason — e.g. a wake beat the wait_until deadline) is skipped and NOT
// logged. Only dispatched events enter the log/hash, so the log is the
// exact execution order, not the push order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "asyncit/simnet/fiber.hpp"

namespace asyncit::simnet {

/// What a dispatched event was. Values are part of the log-hash contract:
/// renumbering changes every recorded hash.
enum class EventKind : std::uint16_t {
  kSpawn = 0,    ///< fiber's first slice (t = 0, spawn order)
  kAdvance = 1,  ///< resume after an advance(dt) sleep
  kTimeout = 2,  ///< wait_until() deadline fired
  kWake = 3,     ///< wait_until() cut short by wake()
};

/// One dispatched event, exactly 24 bytes with no padding so the full
/// log is byte-comparable across runs and the rolling hash is defined
/// over a stable layout.
struct EventRecord {
  double t;           ///< virtual dispatch time
  std::uint64_t seq;  ///< global push sequence number
  std::uint32_t rank;
  std::uint16_t kind;  ///< EventKind
  std::uint16_t aux;   ///< kind-specific (kWake: low bits of waker rank)
};
static_assert(sizeof(EventRecord) == 24, "log records must be packed");

class SimEngine {
 public:
  struct Options {
    /// Keep the full EventRecord stream (hash is always kept).
    bool record_log = false;
  };
  /// Per-rank fiber stack (lazily committed mmap; sanitizer builds
  /// enforce a larger floor, see simnet/fiber.cpp).
  static constexpr std::size_t kStackBytes = 256 * 1024;
  /// Records log() keeps before it stops growing.
  static constexpr std::size_t kLogCapacity = 1 << 20;

  SimEngine();  // default Options (= {} as a default arg trips gcc's
                // nested-class NSDMI handling, so two constructors)
  explicit SimEngine(Options options);
  ~SimEngine();

  SimEngine(const SimEngine&) = delete;
  SimEngine& operator=(const SimEngine&) = delete;

  /// Register rank `rank` to run `body` on its own fiber, starting at
  /// t = 0 in spawn order. Must be called before run().
  void spawn(std::uint32_t rank, std::function<void()> body);

  /// Dispatch events until every fiber has finished. While running, the
  /// engine is visible as active() (used by the obs virtual-clock hook).
  void run();

  /// Current virtual time: dispatch time of the running event plus any
  /// cost accrued via charge() since. Valid outside run() too (returns
  /// the last dispatch time; 0 before the first).
  double now() const { return now_ + accrued_; }
  std::uint64_t now_ns() const;

  /// Accrue `dt` of virtual cost without yielding. Fiber-side.
  void charge(double dt);

  /// Sleep: yield and resume at now() + dt. Fiber-side.
  void advance(double dt);

  /// Block until `deadline` or an earlier wake(). Fiber-side. Returns
  /// with now() == deadline (timeout) or now() == the wake time.
  void wait_until(double deadline);

  /// Schedule rank `rank` to be resumed at virtual time `at` (>= now()).
  /// No-op if the task already has an equal-or-earlier pending resume —
  /// the event-storm guard: N messages to a blocked rank push one event,
  /// not N.
  void wake(std::uint32_t rank, double at, std::uint16_t aux = 0);

  bool in_fiber() const { return current_ != kNoTask; }
  std::uint32_t current_rank() const;

  std::uint64_t events_dispatched() const { return dispatched_; }
  /// Rolling FNV-1a over every dispatched EventRecord, always on.
  std::uint64_t log_hash() const { return hash_; }
  /// Full dispatch log; empty unless Options::record_log (capped at
  /// kLogCapacity — a 10M-event run would otherwise hold ~240 MB).
  const std::vector<EventRecord>& log() const { return log_; }
  /// True if record_log hit kLogCapacity (hash still covers everything).
  bool log_truncated() const { return log_truncated_; }

  /// The engine currently inside run() on this thread, else nullptr.
  static SimEngine* active();

 private:
  static constexpr std::size_t kNoTask = static_cast<std::size_t>(-1);

  struct Task {
    std::unique_ptr<Fiber> fiber;
    std::uint32_t rank = 0;
    std::uint64_t gen = 0;  ///< bumped on dispatch; stamps invalidate
    bool waiting = false;   ///< parked in wait_until() (wake()-able)
    /// Earliest pending resume for this task (+inf when none) — wake()
    /// dedup so message storms stay O(1) events per blocked rank.
    double earliest = 0.0;
  };

  struct Ev {
    double t;
    std::uint64_t seq;
    std::uint32_t task;
    std::uint64_t gen;
    std::uint16_t kind;
    std::uint16_t aux;
  };
  struct EvLater {
    bool operator()(const Ev& a, const Ev& b) const {
      if (a.t != b.t) return a.t > b.t;
      return a.seq > b.seq;
    }
  };

  void push(std::size_t task, double t, EventKind kind, std::uint16_t aux);
  /// Yield the current fiber; on resume, adopt the dispatched event time.
  void suspend();

  Options options_;
  std::vector<Task> tasks_;
  std::vector<std::size_t> rank_to_task_;
  std::vector<Ev> heap_;  ///< min-heap via std::push_heap/pop_heap
  std::uint64_t next_seq_ = 0;
  double now_ = 0.0;
  double accrued_ = 0.0;
  std::size_t current_ = kNoTask;
  bool running_ = false;
  std::uint64_t dispatched_ = 0;
  std::uint64_t hash_ = 1469598103934665603ull;  ///< FNV-1a offset basis
  std::vector<EventRecord> log_;
  bool log_truncated_ = false;
};

}  // namespace asyncit::simnet
