#include "asyncit/simnet/engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include "asyncit/obs/trace_recorder.hpp"
#include "asyncit/support/check.hpp"

namespace asyncit::simnet {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

thread_local SimEngine* g_active = nullptr;

}  // namespace

SimEngine::SimEngine() : SimEngine(Options{}) {}

SimEngine::SimEngine(Options options) : options_(std::move(options)) {}

SimEngine::~SimEngine() = default;

SimEngine* SimEngine::active() { return g_active; }

std::uint64_t SimEngine::now_ns() const {
  return static_cast<std::uint64_t>(std::llround(now() * 1e9));
}

void SimEngine::spawn(std::uint32_t rank, std::function<void()> body) {
  ASYNCIT_CHECK_MSG(!running_, "spawn() after run() started");
  if (rank >= rank_to_task_.size()) {
    rank_to_task_.resize(rank + 1, kNoTask);
  }
  ASYNCIT_CHECK_MSG(rank_to_task_[rank] == kNoTask, "duplicate rank spawned");
  const std::size_t idx = tasks_.size();
  rank_to_task_[rank] = idx;
  Task task;
  task.fiber = std::make_unique<Fiber>(kStackBytes, std::move(body));
  task.rank = rank;
  task.earliest = kInf;
  tasks_.push_back(std::move(task));
  push(idx, 0.0, EventKind::kSpawn, 0);
}

void SimEngine::push(std::size_t task, double t, EventKind kind,
                     std::uint16_t aux) {
  Ev ev;
  ev.t = t;
  ev.seq = next_seq_++;
  ev.task = static_cast<std::uint32_t>(task);
  ev.gen = tasks_[task].gen;
  ev.kind = static_cast<std::uint16_t>(kind);
  ev.aux = aux;
  heap_.push_back(ev);
  std::push_heap(heap_.begin(), heap_.end(), EvLater{});
  tasks_[task].earliest = std::min(tasks_[task].earliest, t);
}

void SimEngine::run() {
  ASYNCIT_CHECK_MSG(!running_, "run() is not reentrant");
  running_ = true;
  SimEngine* prev_active = g_active;
  g_active = this;
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), EvLater{});
    const Ev ev = heap_.back();
    heap_.pop_back();
    Task& task = tasks_[ev.task];
    // Stale: the task already dispatched for another reason since this
    // was pushed (e.g. a wake() beat a wait_until() deadline).
    if (ev.gen != task.gen || task.fiber->done()) continue;
    ASYNCIT_CHECK_MSG(ev.t >= now_, "event queue must be monotone");
    now_ = ev.t;
    accrued_ = 0.0;
    ++task.gen;  // every other pending event for this task is now stale
    task.waiting = false;
    task.earliest = kInf;
    EventRecord rec;
    rec.t = ev.t;
    rec.seq = ev.seq;
    rec.rank = task.rank;
    rec.kind = ev.kind;
    rec.aux = ev.aux;
    unsigned char bytes[sizeof(EventRecord)];
    std::memcpy(bytes, &rec, sizeof rec);
    for (unsigned char b : bytes) {
      hash_ ^= b;
      hash_ *= 1099511628211ull;  // FNV-1a prime
    }
    ++dispatched_;
    if (options_.record_log) {
      if (log_.size() < kLogCapacity) {
        log_.push_back(rec);
      } else {
        log_truncated_ = true;
      }
    }
    current_ = ev.task;
    {
      const obs::ScopedRank trace_rank(task.rank);  // its events name it
      task.fiber->resume();
    }
    current_ = kNoTask;
  }
  // Every live fiber keeps one pending event (advance/wait_until always
  // push), so a drained queue with a live fiber is a lost wakeup.
  for (const Task& task : tasks_) {
    ASYNCIT_CHECK_MSG(task.fiber->done(),
                      "event queue drained with a live fiber (lost wakeup)");
  }
  g_active = prev_active;
  running_ = false;
}

std::uint32_t SimEngine::current_rank() const {
  ASYNCIT_CHECK(in_fiber());
  return tasks_[current_].rank;
}

void SimEngine::charge(double dt) {
  ASYNCIT_CHECK(in_fiber() && dt >= 0.0);
  accrued_ += dt;
}

void SimEngine::suspend() {
  const std::size_t self = current_;
  tasks_[self].fiber->yield();
  // run() re-set now_/accrued_/current_ when it dispatched our resume.
}

void SimEngine::advance(double dt) {
  ASYNCIT_CHECK(in_fiber() && dt >= 0.0);
  const double deadline = now() + dt;
  accrued_ = 0.0;
  push(current_, deadline, EventKind::kAdvance, 0);
  suspend();
}

void SimEngine::wait_until(double deadline) {
  ASYNCIT_CHECK(in_fiber());
  deadline = std::max(deadline, now());
  accrued_ = 0.0;
  tasks_[current_].waiting = true;
  push(current_, deadline, EventKind::kTimeout, 0);
  suspend();
}

void SimEngine::wake(std::uint32_t rank, double at, std::uint16_t aux) {
  ASYNCIT_CHECK(rank < rank_to_task_.size() &&
                rank_to_task_[rank] != kNoTask);
  Task& task = tasks_[rank_to_task_[rank]];
  if (task.fiber->done()) return;
  // Only a task blocked in wait_until() may be resumed early; a task
  // that is running or sleeping in advance() is mid-computation, and
  // shortening that would let message arrivals rewrite compute costs.
  // Such a task finds the message via Endpoint::activity() on its next
  // poll instead (the transport bumps the counter at send time).
  if (!task.waiting) return;
  at = std::max(at, now());
  if (at >= task.earliest) return;  // already waking at least this early
  push(rank_to_task_[rank], at, EventKind::kWake, aux);
}

}  // namespace asyncit::simnet
