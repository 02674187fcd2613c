// Block partition of the iterate vector.
//
// Definition 1 of the paper updates *components* of the iterate vector; in
// practice a "component" x_i is a block of contiguous coordinates owned by
// one processor. Partition maps between coordinate space (size n) and block
// space (size num_blocks). The scalar case is n blocks of size 1.
//
// A partition may also carry READ SETS: for each block b, the blocks whose
// coordinates the update F_b reads. An operator that knows its sparsity
// attaches them to the partition it returns (op::JacobiOperator takes
// them from its CSR columns); a partition without them means that every
// block reads every block. The message-passing runtime publishes block b
// only to the ranks that read it, so the read sets are a contract, not a
// hint: F_b must not change when any block outside reads(b) changes. A
// wrapper that forwards another operator's partition (SOR, projected
// Jacobi, Krasnoselskii-Mann, a prox step on the inner output) inherits
// its read sets, and may therefore read only what the inner operator
// reads, plus its own block.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace asyncit::la {

using BlockId = std::uint32_t;

struct BlockRange {
  std::size_t begin;  ///< first coordinate
  std::size_t end;    ///< one past last coordinate
  std::size_t size() const { return end - begin; }
};

class Partition {
 public:
  Partition() = default;

  /// n blocks of size 1 (the scalar component model).
  static Partition scalar(std::size_t n);

  /// `blocks` contiguous blocks of near-equal size covering n coordinates.
  /// Requires 1 <= blocks <= n; earlier blocks get the remainder.
  static Partition balanced(std::size_t n, std::size_t blocks);

  /// Explicit block sizes (must sum to n > 0 with all sizes > 0).
  static Partition from_sizes(const std::vector<std::size_t>& sizes);

  std::size_t dim() const { return dim_; }
  std::size_t num_blocks() const { return ranges_.size(); }
  /// Largest block size (scratch sizing for per-block work buffers).
  std::size_t max_block_size() const { return max_block_size_; }

  BlockRange range(BlockId b) const;
  BlockId block_of(std::size_t coordinate) const;

  /// The sub-span of x corresponding to block b.
  std::span<const double> block_span(std::span<const double> x,
                                     BlockId b) const;
  std::span<double> block_span(std::span<double> x, BlockId b) const;

  /// Attaches read sets in CSR form: block b's update reads the blocks
  /// blocks[begin[b] .. begin[b+1]), listed in ascending order, b
  /// included. Copies of this partition share them.
  void attach_reads(std::vector<std::size_t> begin,
                    std::vector<BlockId> blocks);
  /// Whether read sets are attached (without them every block reads
  /// every block).
  bool has_reads() const { return reads_ != nullptr; }
  /// The blocks block b's update reads, ascending, b included. Requires
  /// has_reads().
  std::span<const BlockId> reads(BlockId b) const;
  /// The blocks whose update reads block b, ascending, b included.
  /// Requires has_reads().
  std::span<const BlockId> readers(BlockId b) const;

 private:
  /// Both directions of the read relation, in CSR form.
  struct ReadSets {
    std::vector<std::size_t> reads_begin;
    std::vector<BlockId> reads;
    std::vector<std::size_t> readers_begin;
    std::vector<BlockId> readers;
  };

  std::size_t dim_ = 0;
  std::size_t max_block_size_ = 0;
  std::vector<BlockRange> ranges_;
  std::vector<BlockId> coord_to_block_;
  std::shared_ptr<const ReadSets> reads_;
};

/// Block ownership, shared by the threaded executors (rt::), the
/// message-passing runtime (net::) and the discrete-event simulator
/// (sim/), is a rule rather than a table: the `num_blocks` blocks go to
/// the `workers` owners in order, in near-even contiguous shares, and
/// earlier workers take the remainder. With
/// base = num_blocks / workers and extra = num_blocks % workers, worker w
/// owns base + 1 blocks if w < extra and base otherwise, starting at
/// block w * base + min(w, extra). Both directions cost O(1), so no rank
/// holds a world-length table. Both functions require
/// 1 <= workers <= num_blocks.
struct BlockShare {
  BlockId first = 0;      ///< the worker's first block
  std::size_t count = 0;  ///< blocks first .. first + count - 1
  /// The share's blocks, ascending.
  std::vector<BlockId> blocks() const;
};

/// Worker w's share. Requires w < workers.
BlockShare block_share(std::size_t num_blocks, std::size_t workers,
                       std::size_t w);

/// The worker that owns block b: the w whose share holds b. Requires
/// b < num_blocks.
std::size_t block_owner(std::size_t num_blocks, std::size_t workers,
                        BlockId b);

}  // namespace asyncit::la
