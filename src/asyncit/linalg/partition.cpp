#include "asyncit/linalg/partition.hpp"

#include <algorithm>
#include <numeric>

#include "asyncit/support/check.hpp"

namespace asyncit::la {

Partition Partition::scalar(std::size_t n) {
  ASYNCIT_CHECK(n > 0);
  return balanced(n, n);
}

Partition Partition::balanced(std::size_t n, std::size_t blocks) {
  ASYNCIT_CHECK(blocks >= 1 && blocks <= n);
  const std::size_t base = n / blocks;
  const std::size_t extra = n % blocks;
  std::vector<std::size_t> sizes(blocks, base);
  for (std::size_t b = 0; b < extra; ++b) ++sizes[b];
  return from_sizes(sizes);
}

Partition Partition::from_sizes(const std::vector<std::size_t>& sizes) {
  ASYNCIT_CHECK(!sizes.empty());
  Partition p;
  std::size_t begin = 0;
  p.ranges_.reserve(sizes.size());
  for (std::size_t s : sizes) {
    ASYNCIT_CHECK(s > 0);
    p.ranges_.push_back({begin, begin + s});
    begin += s;
    p.max_block_size_ = std::max(p.max_block_size_, s);
  }
  p.dim_ = begin;
  p.coord_to_block_.resize(p.dim_);
  for (BlockId b = 0; b < p.ranges_.size(); ++b)
    for (std::size_t c = p.ranges_[b].begin; c < p.ranges_[b].end; ++c)
      p.coord_to_block_[c] = b;
  return p;
}

BlockRange Partition::range(BlockId b) const {
  ASYNCIT_CHECK(b < ranges_.size());
  return ranges_[b];
}

BlockId Partition::block_of(std::size_t coordinate) const {
  ASYNCIT_CHECK(coordinate < dim_);
  return coord_to_block_[coordinate];
}

std::span<const double> Partition::block_span(std::span<const double> x,
                                              BlockId b) const {
  ASYNCIT_CHECK(x.size() == dim_);
  const BlockRange r = range(b);
  return x.subspan(r.begin, r.size());
}

std::span<double> Partition::block_span(std::span<double> x,
                                        BlockId b) const {
  ASYNCIT_CHECK(x.size() == dim_);
  const BlockRange r = range(b);
  return x.subspan(r.begin, r.size());
}

void Partition::attach_reads(std::vector<std::size_t> begin,
                             std::vector<BlockId> blocks) {
  const std::size_t m = num_blocks();
  ASYNCIT_CHECK(begin.size() == m + 1 && begin.front() == 0 &&
                begin.back() == blocks.size());
  auto sets = std::make_shared<ReadSets>();
  // The transpose: count each block's readers, then fill in reader order,
  // which is ascending because b runs ascending.
  sets->readers_begin.assign(m + 1, 0);
  for (BlockId b = 0; b < m; ++b) {
    ASYNCIT_CHECK(begin[b] < begin[b + 1]);
    bool self = false;
    for (std::size_t k = begin[b]; k < begin[b + 1]; ++k) {
      ASYNCIT_CHECK(blocks[k] < m &&
                    (k == begin[b] || blocks[k - 1] < blocks[k]));
      self = self || blocks[k] == b;
      ++sets->readers_begin[blocks[k] + 1];
    }
    ASYNCIT_CHECK_MSG(self, "a block's read set must include the block");
  }
  for (BlockId c = 0; c < m; ++c)
    sets->readers_begin[c + 1] += sets->readers_begin[c];
  sets->readers.resize(blocks.size());
  std::vector<std::size_t> fill(sets->readers_begin.begin(),
                                sets->readers_begin.end() - 1);
  for (BlockId b = 0; b < m; ++b)
    for (std::size_t k = begin[b]; k < begin[b + 1]; ++k)
      sets->readers[fill[blocks[k]]++] = b;
  sets->reads_begin = std::move(begin);
  sets->reads = std::move(blocks);
  reads_ = std::move(sets);
}

std::span<const BlockId> Partition::reads(BlockId b) const {
  ASYNCIT_CHECK(reads_ != nullptr && b < num_blocks());
  const std::size_t k = reads_->reads_begin[b];
  return std::span<const BlockId>(reads_->reads)
      .subspan(k, reads_->reads_begin[b + 1] - k);
}

std::span<const BlockId> Partition::readers(BlockId b) const {
  ASYNCIT_CHECK(reads_ != nullptr && b < num_blocks());
  const std::size_t k = reads_->readers_begin[b];
  return std::span<const BlockId>(reads_->readers)
      .subspan(k, reads_->readers_begin[b + 1] - k);
}

std::vector<BlockId> BlockShare::blocks() const {
  std::vector<BlockId> out(count);
  std::iota(out.begin(), out.end(), first);
  return out;
}

BlockShare block_share(std::size_t num_blocks, std::size_t workers,
                       std::size_t w) {
  ASYNCIT_CHECK(workers >= 1 && workers <= num_blocks && w < workers);
  const std::size_t base = num_blocks / workers;
  const std::size_t extra = num_blocks % workers;
  return {static_cast<BlockId>(w * base + std::min(w, extra)),
          base + (w < extra ? 1 : 0)};
}

std::size_t block_owner(std::size_t num_blocks, std::size_t workers,
                        BlockId b) {
  ASYNCIT_CHECK(workers >= 1 && workers <= num_blocks && b < num_blocks);
  const std::size_t base = num_blocks / workers;
  const std::size_t extra = num_blocks % workers;
  // The first `extra` workers own base + 1 blocks each, the rest base.
  const std::size_t long_blocks = extra * (base + 1);
  return b < long_blocks ? b / (base + 1)
                         : extra + (b - long_blocks) / base;
}

}  // namespace asyncit::la
