// Minibatch SGD math + the server's per-worker step clock.
//
// Everything here is allocation-free in steady state: the minibatch
// gradient accumulates into caller-owned scratch (sized once per run),
// an evaluation writes every row margin into caller-owned scratch in one
// CSR pass and reduces loss and accuracy from those margins, and
// SspClock is a flat per-worker table. tests/alloc_test.cpp pins the
// delta path at zero steady-state allocations; tests/train_test.cpp
// drives SspClock on a virtual clock with no transport at all.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "asyncit/support/rng.hpp"
#include "asyncit/train/dataset.hpp"

namespace asyncit::train {

/// Support range of a computed delta: the frame payload is
/// delta[offset, offset + count) — the partial-block offset/count fields
/// of the existing wire format carry it unchanged. count == 0 means the
/// delta was exactly zero and nothing needs to travel.
struct DeltaSpan {
  std::uint32_t offset = 0;
  std::uint32_t count = 0;
};

/// One worker step: sample `batch_size` rows uniformly (with replacement)
/// from [shard.begin, shard.end) using `rng`, and write
///   delta = −lr · ( (1/batch) Σ_h ℓ'_h(x) + ridge · x )
/// into `delta` (resized-once scratch, |delta| == features). Returns the
/// nonzero support range — the sub-range a delta frame ships.
///
/// The batch draw consumes exactly `batch_size` rng values, so a serial
/// oracle replaying the same per-worker streams reproduces the batch
/// sequence (the BSP parity test in tests/train_test.cpp).
DeltaSpan sgd_minibatch_delta(const Dataset& data, la::BlockRange shard,
                              std::size_t batch_size, double learning_rate,
                              std::span<const double> x, Rng& rng,
                              std::span<double> delta);

/// Full-train metrics of one model.
struct Eval {
  double loss = 0.0;      ///< mean logistic loss + (ridge/2) ‖x‖²
  double accuracy = 0.0;  ///< fraction of rows with sign(⟨a_h, x⟩) == z_h
};

/// Evaluates x over the full dataset in one pass over the design: a
/// matvec writes every row margin ⟨a_h, x⟩ into `margins` (caller
/// scratch, |margins| == samples()), then one loop over the margins sums
/// the loss terms and counts the correct signs. Allocation-free. The
/// margins are the bits CsrMatrix::row_dot gives at every SIMD level
/// (each backend's row-range matvec calls its own gather dot per row).
Eval dataset_eval(const Dataset& data, std::span<const double> x,
                  std::span<double> margins);

/// The server's per-worker step clocks (yxtj/PSGD's deltaIter table). A
/// worker's clock counts COMPLETED steps; the server publishes a new
/// parameter round exactly when min_active() advances. The server admits
/// nothing: an SSP worker gates itself on the newest round it received,
/// taking step `c` only while c ≤ round + staleness
/// (PsgdWorker::admissible; the Feyzmahdavian–Johansson bounded-delay
/// setting). Workers that leave (stop frames, crash eviction) are
/// deactivated so they cannot pin the minimum forever. BSP is the
/// staleness = 0 special case plus the all-deltas barrier; TAP workers
/// ignore the rule entirely (Theorem 1 licenses unbounded delays).
class SspClock {
 public:
  explicit SspClock(std::size_t workers)
      : completed_(workers, 0), active_(workers, 1) {}

  /// Monotone: records that worker `w` has completed `completed` steps.
  void advance(std::size_t w, std::uint64_t completed) {
    if (completed > completed_[w]) completed_[w] = completed;
  }

  /// Worker `w` left the run; it no longer holds the minimum back.
  void deactivate(std::size_t w) { active_[w] = 0; }

  std::size_t active() const {
    std::size_t n = 0;
    for (const auto a : active_) n += a;
    return n;
  }

  /// Min completed-step clock over active workers (0 when none remain).
  std::uint64_t min_active() const {
    std::uint64_t m = ~std::uint64_t{0};
    bool any = false;
    for (std::size_t w = 0; w < completed_.size(); ++w) {
      if (!active_[w]) continue;
      any = true;
      if (completed_[w] < m) m = completed_[w];
    }
    return any ? m : 0;
  }

 private:
  std::vector<std::uint64_t> completed_;
  std::vector<std::uint8_t> active_;
};

}  // namespace asyncit::train
