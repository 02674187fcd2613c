// Named counters and gauges (DESIGN.md §8).
//
// A registry any layer can write to concurrently. Registration (the name
// lookup) takes a mutex and may allocate; the returned handles are
// stable for the registry's lifetime and their hot paths are single
// relaxed atomic RMWs — cache the handle once per thread/site, never
// re-look-up per event. reset() zeroes values in place (handles stay
// valid) at run boundaries. Delay distributions are not kept here: every
// one the stack reports is a net::DelayHistogram.
//
// to_json() renders the same ordered-object style as the bench
// harness's `asyncit-bench/1` reports, under schema `asyncit-metrics/1`
// (the registry is a core-library citizen, so it carries its own tiny
// emitter instead of depending on bench/harness).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>

namespace asyncit::obs {

class Counter {
 public:
  void add(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

class MetricsRegistry {
 public:
  /// Process-global registry used by the instrumented stack.
  static MetricsRegistry& instance();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create by name. Slow path (mutex + map); cache the result.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);

  /// Zeroes every registered metric in place. Handles stay valid.
  void reset();

  /// Ordered snapshot, schema `asyncit-metrics/1`.
  std::string to_json() const;

 private:
  mutable std::mutex mu_;
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::map<std::string, Counter*> counter_index_;
  std::map<std::string, Gauge*> gauge_index_;
};

}  // namespace asyncit::obs
