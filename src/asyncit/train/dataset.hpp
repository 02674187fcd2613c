// Training dataset: sharded rows of a labelled design matrix.
//
// The PSGD mode (train/psgd.hpp) is data-parallel, not block-parallel:
// every rank holds the SAME model vector x and a WORKER owns a contiguous
// shard of dataset ROWS, not a block of coordinates. A Dataset is the
// value type both sides share — the server evaluates loss/accuracy over
// all rows (one margin pass, sgd.hpp dataset_eval), a worker samples
// minibatches from its shard.
//
// Datasets are built deterministically from a (config, seed) pair, so in
// one-rank-per-process deployments (tools/asyncit_node.cpp) every rank
// reconstructs an identical dataset from the launch config instead of
// shipping megabytes of design matrix over the wire. The build filters
// the raw problems::make_logistic_data draw and constructs no solver-side
// LogisticFunction, so a rank pays for the draw and the row filter only.
#pragma once

#include <cstddef>
#include <vector>

#include "asyncit/linalg/csr_matrix.hpp"
#include "asyncit/linalg/partition.hpp"
#include "asyncit/problems/synthetic.hpp"

namespace asyncit::train {

/// L2-regularized logistic training set (labels in {-1, +1}). The loss
/// trained against is the MEAN logistic loss plus the ridge term:
///   f(x) = (1/m) Σ_h log(1 + exp(−z_h ⟨a_h, x⟩)) + (ridge/2) ‖x‖² .
/// (problems::LogisticFunction uses the SUM convention; the mean makes
/// the learning rate independent of m, the SGD convention.)
struct Dataset {
  la::CsrMatrix design;      ///< m×n
  std::vector<int> labels;   ///< m entries in {−1, +1}
  double ridge = 0.1;

  std::size_t samples() const { return design.rows(); }
  std::size_t features() const { return design.cols(); }

  /// Rows owned by worker `w` of `workers` (balanced contiguous shards).
  la::BlockRange shard(std::size_t w, std::size_t workers) const {
    return la::Partition::balanced(samples(), workers).range(w);
  }
};

/// Deterministic synthetic instance: the problems/ logistic draw
/// (separable hyperplane + label noise; the same make_logistic_data that
/// make_synthetic_logistic wraps), filtered to a margin gap and
/// repackaged row-major for SGD. Same (cfg, seed) => bit-identical
/// dataset in every process. Throws CheckError unless cfg.ridge > 0.
Dataset make_synthetic_dataset(const problems::LogisticConfig& cfg,
                               std::uint64_t seed);

}  // namespace asyncit::train
