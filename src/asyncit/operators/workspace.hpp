// Per-worker scratch-buffer pool for the operator hot path.
//
// Asynchronous executors apply block operators millions of times per run;
// before this layer existed every BackwardForward application allocated a
// full-dimension prox vector and every residual poll allocated monitor
// scratch — the allocator, not the arithmetic, dominated small-block
// updates. A Workspace recycles those buffers: each borrow takes a vector
// from the pool (capacity is kept across borrows), each return gives it
// back. After a warm-up pass touching every code path, the pool reaches
// the high-water mark of every buffer it serves and the steady state
// performs ZERO heap allocations (pinned by tests/alloc_test.cpp).
//
// Threading model: a Workspace is single-threaded by design — every
// executor owns one per worker thread (engine/sim are sequential and own
// one outright), and picard_solve gives each of its sweep threads one.
// Borrows nest freely: an operator that borrows scratch and then calls
// another operator with the same workspace is fine, because each borrow
// owns its vector until returned.
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "asyncit/linalg/vector_ops.hpp"

namespace asyncit::op {

class Workspace {
 public:
  Workspace() { pool_.reserve(kPoolReserve); }

  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// Borrows a buffer of size n. Contents are UNSPECIFIED (stale data from
  /// a previous borrow) — treat as uninitialized. Prefer the RAII Scratch.
  la::Vector acquire(std::size_t n);

  /// Returns a buffer to the pool (capacity is retained).
  void release(la::Vector v);

  /// Buffers currently parked in the pool (diagnostics / tests).
  std::size_t pooled() const { return pool_.size(); }

 private:
  // Enough for the deepest borrow chain in the tree (operator scratch +
  // residual block + monitor snapshot + picard double-buffer) without the
  // pool vector itself reallocating.
  static constexpr std::size_t kPoolReserve = 8;
  std::vector<la::Vector> pool_;
};

/// RAII borrow: takes a buffer from the workspace for the current scope.
class Scratch {
 public:
  Scratch(Workspace& ws, std::size_t n) : ws_(ws), v_(ws.acquire(n)) {}
  ~Scratch() { ws_.release(std::move(v_)); }

  Scratch(const Scratch&) = delete;
  Scratch& operator=(const Scratch&) = delete;

  std::span<double> span() { return v_; }
  std::span<const double> span() const { return v_; }
  operator std::span<double>() { return v_; }
  operator std::span<const double>() const { return v_; }

  double* data() { return v_.data(); }
  std::size_t size() const { return v_.size(); }
  la::Vector& vec() { return v_; }

 private:
  Workspace& ws_;
  la::Vector v_;
};

/// The calling thread's shared workspace — backs the convenience operator
/// overloads that don't take an explicit Workspace (tests, reference
/// solves, one-shot calls). Executors pass their own per-worker instance
/// instead so worker state stays private and warm.
Workspace& thread_workspace();

}  // namespace asyncit::op
