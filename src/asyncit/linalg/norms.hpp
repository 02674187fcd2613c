// Weighted block-maximum norms.
//
// Asynchronous convergence theory (Chazan–Miranker, Baudet, El Tarazi,
// Bertsekas) is stated in weighted maximum norms
//     ‖x‖_u = max_i ‖x_i‖_i / u_i ,  u_i > 0,
// where ‖·‖_i is a norm on the i-th block. This is exactly the norm of the
// flexible-communication constraint (3) in the paper. We use the Euclidean
// norm inside blocks.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "asyncit/linalg/partition.hpp"
#include "asyncit/linalg/vector_ops.hpp"

namespace asyncit::la {

/// Euclidean distance between block b of x and block b of y: the
/// unit-weight block distance, which WeightedMaxNorm divides by u_b.
double block_distance(const Partition& partition, std::span<const double> x,
                      std::span<const double> y, BlockId b);
/// The same distance between two equal-length blocks given as spans,
/// summed in the same order (so the same bits).
double block_distance(std::span<const double> xb, std::span<const double> yb);

class WeightedMaxNorm {
 public:
  /// Unit weights over the given partition.
  explicit WeightedMaxNorm(Partition partition);
  /// Explicit positive weights, one per block.
  WeightedMaxNorm(Partition partition, Vector weights);

  const Partition& partition() const { return partition_; }
  const Vector& weights() const { return weights_; }

  /// ‖x‖_u
  double operator()(std::span<const double> x) const;

  /// ‖x − y‖_u
  double distance(std::span<const double> x, std::span<const double> y) const;

  /// Per-block weighted norm ‖x_b‖ / u_b.
  double block_norm(std::span<const double> x, BlockId b) const;
  double block_distance(std::span<const double> x, std::span<const double> y,
                        BlockId b) const;

 private:
  Partition partition_;
  Vector weights_;
};

}  // namespace asyncit::la
