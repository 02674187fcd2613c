#include "asyncit/operators/jacobi.hpp"

#include <algorithm>
#include <cmath>

#include "asyncit/linalg/kernels.hpp"
#include "asyncit/support/check.hpp"

namespace asyncit::op {

namespace {

/// Attaches A's read sets to `partition`: block b reads the blocks its
/// rows have columns in. One stamp per block dedupes a block's columns in
/// one pass, and a block stops scanning once it reads every block.
void attach_csr_reads(const la::CsrMatrix& a, la::Partition& partition) {
  const std::size_t m = partition.num_blocks();
  std::vector<std::size_t> begin{0};
  begin.reserve(m + 1);
  std::vector<la::BlockId> blocks;
  std::vector<la::BlockId> stamp(m, static_cast<la::BlockId>(m));
  for (la::BlockId b = 0; b < m; ++b) {
    const std::size_t first = blocks.size();
    auto mark = [&](la::BlockId c) {
      if (stamp[c] == b) return;
      stamp[c] = b;
      blocks.push_back(c);
    };
    mark(b);
    const la::BlockRange r = partition.range(b);
    for (std::size_t row = r.begin; row < r.end && blocks.size() - first < m;
         ++row)
      for (const std::uint32_t col : a.row_cols(row))
        mark(partition.block_of(col));
    std::sort(blocks.begin() + static_cast<std::ptrdiff_t>(first),
              blocks.end());
    begin.push_back(blocks.size());
  }
  partition.attach_reads(std::move(begin), std::move(blocks));
}

}  // namespace

JacobiOperator::JacobiOperator(const la::CsrMatrix& a, la::Vector b,
                               la::Partition partition)
    : a_(a), b_(std::move(b)), partition_(std::move(partition)) {
  ASYNCIT_CHECK(a_.rows() == a_.cols());
  ASYNCIT_CHECK(b_.size() == a_.rows());
  ASYNCIT_CHECK(partition_.dim() == a_.rows());
  // Before the diagonal arrays: the read sets' small allocations then sit
  // below them on the heap (after them they cost 3 MB of peak RSS on a
  // 2^18-row system).
  attach_csr_reads(a_, partition_);
  diag_ = a_.diagonal();
  inv_diag_.resize(diag_.size());
  for (std::size_t i = 0; i < diag_.size(); ++i) {
    ASYNCIT_CHECK_MSG(diag_[i] != 0.0, "Jacobi needs a nonzero diagonal");
    inv_diag_[i] = 1.0 / diag_[i];
  }
}

void JacobiOperator::apply_block(la::BlockId blk, std::span<const double> x,
                                 std::span<double> out, Workspace&) const {
  ASYNCIT_CHECK(x.size() == dim());
  const la::BlockRange r = partition_.range(blk);
  ASYNCIT_CHECK(out.size() == r.size());
  a_.jacobi_rows(r.begin, r.end, b_, inv_diag_, x, out);
}

double JacobiOperator::apply_block_residual(la::BlockId blk,
                                            std::span<const double> x,
                                            std::span<double> out,
                                            Workspace&) const {
  ASYNCIT_CHECK(x.size() == dim());
  const la::BlockRange r = partition_.range(blk);
  ASYNCIT_CHECK(out.size() == r.size());
  a_.jacobi_rows(r.begin, r.end, b_, inv_diag_, x, out);
  return std::sqrt(
      la::kern::sq_dist(out.data(), x.data() + r.begin, r.size()));
}

double JacobiOperator::contraction_bound() const {
  double worst = 0.0;
  for (std::size_t row = 0; row < a_.rows(); ++row) {
    const auto cols = a_.row_cols(row);
    const auto vals = a_.row_values(row);
    double off = 0.0;
    for (std::size_t k = 0; k < cols.size(); ++k)
      if (cols[k] != row) off += std::abs(vals[k]);
    worst = std::max(worst, off / std::abs(diag_[row]));
  }
  return worst;
}

}  // namespace asyncit::op
