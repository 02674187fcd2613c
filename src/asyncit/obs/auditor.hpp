// Online admissibility auditor (DESIGN.md §8).
//
// Streams the (S_j, l(j)) schedule of a *live* run through the same
// condition a–d checks `model/admissibility.cpp` applies to a recorded
// ScheduleTrace, so a real TCP/churn run reports its measured delay
// bound, label divergence and fairness without retaining the schedule:
//
//  * a) l(j) <= j-1 and every fed label <= j-1, checked at record time;
//  * b) quarter minima of l(j) strictly increasing — needs the l(j)
//    series, kept in a fixed-capacity buffer that pairwise-min compacts
//    when full (minima are preserved under pairing, so quarter minima
//    stay exact up to the pair straddling a quarter boundary); below
//    the cap the series is verbatim and the report matches the offline
//    auditor bit-for-bit (the parity test in obs_test pins this);
//  * c) per-block occurrence counts and max update gap, including the
//    trailing gap, incremental;
//  * d) b_min = max_j (j - l(j)) with the arg step and the mean,
//    incremental.
//
// record_step() is O(|S_j| + num_blocks·0) — all state is preallocated
// at construction (the series buffer reserves its cap), so the steady
// state allocates nothing and the auditor can run inside the zero-alloc
// messaging path that alloc_test pins.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "asyncit/linalg/partition.hpp"
#include "asyncit/model/history.hpp"

namespace asyncit::obs {

/// Flat snapshot of all four condition reports, shaped for JSON export.
struct AdmissibilityReport {
  model::Step steps = 0;
  bool a_holds = true;
  std::vector<model::Step> quarter_min_labels;  ///< empty when steps < 4
  bool b_diverging = false;
  model::Step b_final_min_label = 0;
  bool c_fair = false;
  std::size_t c_min_occurrences = 0;
  model::Step c_worst_gap = 0;
  model::Step d_bound = 0;     ///< b_min: max observed j - l(j)
  model::Step d_at_step = 0;
  double d_mean = 0.0;

  /// One-line verdict in audit_summary()'s format.
  std::string summary() const;
};

class OnlineAuditor {
 public:
  /// `series_capacity` bounds the retained l(j) series (power of two
  /// recommended); runs longer than it get pairwise-min compacted.
  explicit OnlineAuditor(std::size_t num_blocks,
                         std::size_t series_capacity = 1u << 16);

  /// Feeds step j = steps()+1 updating the blocks in `updated` with
  /// minimum read label `l_min`. Labels beyond l_min are optional — the
  /// live bridge only tracks the minimum, which is all Definition 2
  /// needs (model::LabelRecording::kMinOnly equivalent).
  void record_step(std::span<const la::BlockId> updated, model::Step l_min);

  model::Step steps() const { return steps_; }
  std::size_t num_blocks() const { return occurrences_.size(); }

  /// Finite-horizon report over everything recorded so far. Cheap
  /// enough to call repeatedly; does not mutate state.
  AdmissibilityReport report() const;

 private:
  model::Step steps_ = 0;
  bool a_holds_ = true;

  // b) retained l(j) series: series_[k] = min of actual steps
  // (k*stride_, (k+1)*stride_]; stride_ doubles at each compaction.
  std::vector<model::Step> series_;
  std::size_t series_capacity_;
  model::Step stride_ = 1;
  model::Step in_bucket_ = 0;  ///< steps folded into the open last bucket

  // c)
  std::vector<std::size_t> occurrences_;
  std::vector<model::Step> last_seen_;
  std::vector<model::Step> max_gap_;

  // d)
  model::Step d_bound_ = 0;
  model::Step d_at_step_ = 0;
  double d_sum_ = 0.0;
};

}  // namespace asyncit::obs
