// Tests for the linear algebra substrate: vector kernels, dense/CSR
// matrices, partitions, weighted max norms, spectral estimates.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>

#include "asyncit/linalg/csr_matrix.hpp"
#include "asyncit/linalg/dense_matrix.hpp"
#include "asyncit/linalg/norms.hpp"
#include "asyncit/linalg/partition.hpp"
#include "asyncit/linalg/vector_ops.hpp"
#include "asyncit/support/check.hpp"
#include "asyncit/support/rng.hpp"

namespace asyncit::la {
namespace {

TEST(VectorOps, DotAxpyScale) {
  Vector a{1, 2, 3}, b{4, 5, 6};
  EXPECT_DOUBLE_EQ(dot(a, b), 32.0);
  axpy(2.0, a, b);
  EXPECT_EQ(b, (Vector{6, 9, 12}));
  scale(0.5, b);
  EXPECT_EQ(b, (Vector{3, 4.5, 6}));
}

TEST(VectorOps, Norms) {
  Vector v{3, -4};
  EXPECT_DOUBLE_EQ(norm2(v), 5.0);
  EXPECT_DOUBLE_EQ(norm2_sq(v), 25.0);
  EXPECT_DOUBLE_EQ(norm1(v), 7.0);
  EXPECT_DOUBLE_EQ(norm_inf(v), 4.0);
}

TEST(VectorOps, Distances) {
  Vector a{1, 1}, b{4, 5};
  EXPECT_DOUBLE_EQ(dist2(a, b), 5.0);
  EXPECT_DOUBLE_EQ(dist_inf(a, b), 4.0);
}

TEST(VectorOps, AddSub) {
  Vector a{1, 2}, b{3, 5};
  EXPECT_EQ(add(a, b), (Vector{4, 7}));
  EXPECT_EQ(sub(b, a), (Vector{2, 3}));
}

TEST(VectorOps, SizeMismatchThrows) {
  Vector a{1, 2}, b{1};
  EXPECT_THROW(dot(a, b), CheckError);
  EXPECT_THROW(dist2(a, b), CheckError);
}

TEST(DenseMatrix, MatvecAndTranspose) {
  DenseMatrix m(2, 3);
  // [1 2 3; 4 5 6]
  int v = 1;
  for (std::size_t r = 0; r < 2; ++r)
    for (std::size_t c = 0; c < 3; ++c) m(r, c) = v++;
  Vector x{1, 1, 1};
  EXPECT_EQ(m.matvec(x), (Vector{6, 15}));
  Vector y{1, 1};
  EXPECT_EQ(m.matvec_transpose(y), (Vector{5, 7, 9}));
}

TEST(DenseMatrix, GramMatchesDefinition) {
  DenseMatrix m(2, 2);
  m(0, 0) = 1;
  m(0, 1) = 2;
  m(1, 0) = 3;
  m(1, 1) = 4;
  DenseMatrix g = m.gram();  // A^T A
  EXPECT_DOUBLE_EQ(g(0, 0), 10.0);
  EXPECT_DOUBLE_EQ(g(0, 1), 14.0);
  EXPECT_DOUBLE_EQ(g(1, 0), 14.0);
  EXPECT_DOUBLE_EQ(g(1, 1), 20.0);
}

TEST(DenseMatrix, PowerMethodFindsDominantEigenvalue) {
  DenseMatrix d(3, 3);
  d(0, 0) = 5.0;
  d(1, 1) = 2.0;
  d(2, 2) = 1.0;
  EXPECT_NEAR(power_method_lmax(d), 5.0, 1e-8);
}

TEST(CsrMatrix, FromTripletsSumsDuplicates) {
  auto m = CsrMatrix::from_triplets(2, 2, {{0, 0, 1.0}, {0, 0, 2.0},
                                           {1, 1, 4.0}});
  EXPECT_EQ(m.nnz(), 2u);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(m.at(1, 1), 4.0);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 0.0);
}

TEST(CsrMatrix, MatvecMatchesDense) {
  Rng rng(5);
  const std::size_t rows = 13, cols = 9;
  std::vector<Triplet> triplets;
  DenseMatrix dense(rows, cols);
  for (std::uint32_t r = 0; r < rows; ++r)
    for (std::uint32_t c = 0; c < cols; ++c)
      if (rng.bernoulli(0.3)) {
        const double v = rng.normal();
        triplets.push_back({r, c, v});
        dense(r, c) = v;
      }
  auto sparse = CsrMatrix::from_triplets(rows, cols, std::move(triplets));
  Vector x(cols);
  for (auto& v : x) v = rng.normal();
  const Vector ys = sparse.matvec(x);
  const Vector yd = dense.matvec(x);
  for (std::size_t r = 0; r < rows; ++r) EXPECT_NEAR(ys[r], yd[r], 1e-12);

  Vector z(rows);
  for (auto& v : z) v = rng.normal();
  const Vector ts = sparse.matvec_transpose(z);
  const Vector td = dense.matvec_transpose(z);
  for (std::size_t c = 0; c < cols; ++c) EXPECT_NEAR(ts[c], td[c], 1e-12);
}

TEST(CsrMatrix, RowDotAndDiagonal) {
  auto m = CsrMatrix::from_triplets(
      2, 2, {{0, 0, 2.0}, {0, 1, 1.0}, {1, 1, 3.0}});
  Vector x{1.0, 2.0};
  EXPECT_DOUBLE_EQ(m.row_dot(0, x), 4.0);
  EXPECT_DOUBLE_EQ(m.row_dot(1, x), 6.0);
  EXPECT_EQ(m.diagonal(), (Vector{2.0, 3.0}));
}

TEST(CsrMatrix, OutOfBoundsTripletThrows) {
  EXPECT_THROW(CsrMatrix::from_triplets(2, 2, {{2, 0, 1.0}}), CheckError);
}

/// The CSR arrays the triplet builder made before the row builder: one
/// global sort by (row, col), then each run of equal keys summed from
/// 0.0. std::sort leaves the order within a run unspecified.
struct GlobalSortCsr {
  std::vector<std::size_t> row_ptr;
  std::vector<std::uint32_t> col_idx;
  std::vector<double> values;
};

GlobalSortCsr global_sort_build(std::size_t rows, std::vector<Triplet> t) {
  std::sort(t.begin(), t.end(), [](const Triplet& a, const Triplet& b) {
    return a.row != b.row ? a.row < b.row : a.col < b.col;
  });
  GlobalSortCsr m;
  m.row_ptr.assign(rows + 1, 0);
  for (std::size_t i = 0; i < t.size();) {
    double v = 0.0;
    const std::size_t first = i;
    for (; i < t.size() && t[i].row == t[first].row &&
           t[i].col == t[first].col;
         ++i)
      v += t[i].value;
    m.col_idx.push_back(t[first].col);
    m.values.push_back(v);
    ++m.row_ptr[t[first].row + 1];
  }
  for (std::size_t r = 0; r < rows; ++r) m.row_ptr[r + 1] += m.row_ptr[r];
  return m;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(CsrMatrix, ShuffledTripletsMatchGlobalSortBuild) {
  // 600 triplets on 40 x 30 with columns drawn from a narrow band, so
  // many keys repeat twice and some three times or more.
  Rng rng(23);
  const std::size_t rows = 40, cols = 30;
  std::vector<Triplet> t;
  std::map<std::pair<std::uint32_t, std::uint32_t>, int> count;
  for (int i = 0; i < 600; ++i) {
    const auto r = static_cast<std::uint32_t>(rng.uniform_index(rows));
    const auto c = static_cast<std::uint32_t>(rng.uniform_index(20));
    t.push_back({r, c, rng.normal()});
    ++count[{r, c}];
  }
  std::shuffle(t.begin(), t.end(), rng);
  // Input-order sums: the builder's contract for every key.
  std::map<std::pair<std::uint32_t, std::uint32_t>, double> in_order;
  for (const Triplet& e : t) in_order[{e.row, e.col}] += e.value;
  const GlobalSortCsr ref = global_sort_build(rows, t);
  const CsrMatrix m = CsrMatrix::from_triplets(rows, cols, t);

  ASSERT_TRUE(std::ranges::equal(m.row_ptr(), ref.row_ptr));
  ASSERT_TRUE(std::ranges::equal(m.col_idx(), ref.col_idx));
  int twice = 0, thrice = 0;
  for (std::uint32_t r = 0; r < rows; ++r) {
    for (std::size_t k = m.row_ptr()[r]; k < m.row_ptr()[r + 1]; ++k) {
      const std::uint32_t c = m.col_idx()[k];
      const int n = count[{r, c}];
      EXPECT_EQ(bits(m.values()[k]), bits(in_order[{r, c}]))
          << "(" << r << "," << c << ")";
      if (n < 3)
        EXPECT_EQ(bits(m.values()[k]), bits(ref.values[k]))
            << "(" << r << "," << c << ")";
      else
        EXPECT_NEAR(m.values()[k], ref.values[k], 1e-12);
      twice += n == 2;
      thrice += n >= 3;
    }
  }
  EXPECT_GT(twice, 0);
  EXPECT_GT(thrice, 0);
}

TEST(CsrMatrix, DuplicatesSumInInputOrder) {
  // (2,3) repeats three times among 24 triplets. Summed in input order,
  // 1e16 + 1.0 rounds back to 1e16, so {1e16, 1.0, -1e16} sums to 0.0
  // while {1e16, -1e16, 1.0} sums to 1.0.
  auto build = [](double second, double third) {
    std::vector<Triplet> t;
    for (std::uint32_t i = 0; i < 21; ++i) t.push_back({i % 7, i % 5, 1.0});
    t.insert(t.begin() + 3, {2, 3, 1e16});
    t.insert(t.begin() + 11, {2, 3, second});
    t.insert(t.begin() + 19, {2, 3, third});
    return CsrMatrix::from_triplets(7, 5, std::move(t));
  };
  EXPECT_EQ(bits(build(1.0, -1e16).at(2, 3)), bits(0.0));
  EXPECT_EQ(bits(build(-1e16, 1.0).at(2, 3)), bits(1.0));
}

TEST(CsrMatrix, FromRowsSortsEachRowAndSumsRepeats) {
  // Row 0 unsorted with a repeat, row 1 empty, row 2 sorted.
  const CsrMatrix m = CsrMatrix::from_rows(
      3, 5, {0, 4, 4, 6}, {4, 1, 4, 0, 2, 3}, {1.0, 2.0, 3.0, 4.0, 5.0, 6.0});
  EXPECT_EQ(m.nnz(), 5u);
  EXPECT_TRUE(std::ranges::equal(m.row_ptr(), std::vector<std::size_t>{
                                                  0, 3, 3, 5}));
  EXPECT_TRUE(std::ranges::equal(m.col_idx(), std::vector<std::uint32_t>{
                                                  0, 1, 4, 2, 3}));
  EXPECT_TRUE(std::ranges::equal(
      m.values(), std::vector<double>{4.0, 2.0, 4.0, 5.0, 6.0}));
}

TEST(CsrMatrix, FromRowsRejectsBadOffsetsAndColumns) {
  const std::vector<std::uint32_t> c{0, 1, 1};
  const std::vector<double> v{1.0, 2.0, 3.0};
  EXPECT_NO_THROW(CsrMatrix::from_rows(2, 2, {0, 2, 3}, c, v));
  // decreasing offsets
  EXPECT_THROW(CsrMatrix::from_rows(3, 2, {0, 2, 1, 3}, c, v), CheckError);
  // final offset is not the entry count
  EXPECT_THROW(CsrMatrix::from_rows(2, 2, {0, 2, 2}, c, v), CheckError);
  // offsets not starting at 0, or not rows + 1 of them
  EXPECT_THROW(CsrMatrix::from_rows(2, 2, {1, 2, 3}, c, v), CheckError);
  EXPECT_THROW(CsrMatrix::from_rows(2, 2, {0, 3}, c, v), CheckError);
  // a column >= cols
  EXPECT_THROW(CsrMatrix::from_rows(2, 2, {0, 2, 3}, {0, 1, 2}, v),
               CheckError);
  // values and columns disagree in length
  EXPECT_THROW(CsrMatrix::from_rows(2, 2, {0, 2, 3}, c, {1.0, 2.0}),
               CheckError);
}

TEST(CsrMatrix, GramSpectralNormMatchesDense) {
  Rng rng(17);
  const std::size_t rows = 20, cols = 12;
  std::vector<Triplet> triplets;
  DenseMatrix dense(rows, cols);
  for (std::uint32_t r = 0; r < rows; ++r)
    for (std::uint32_t c = 0; c < cols; ++c)
      if (rng.bernoulli(0.4)) {
        const double v = rng.normal();
        triplets.push_back({r, c, v});
        dense(r, c) = v;
      }
  auto sparse = CsrMatrix::from_triplets(rows, cols, std::move(triplets));
  EXPECT_NEAR(gram_spectral_norm(sparse, 500),
              power_method_lmax(dense.gram(), 500), 1e-6);
}

TEST(Partition, ScalarPartition) {
  auto p = Partition::scalar(4);
  EXPECT_EQ(p.dim(), 4u);
  EXPECT_EQ(p.num_blocks(), 4u);
  for (BlockId b = 0; b < 4; ++b) {
    EXPECT_EQ(p.range(b).begin, b);
    EXPECT_EQ(p.range(b).size(), 1u);
    EXPECT_EQ(p.block_of(b), b);
  }
}

TEST(Partition, BalancedDistributesRemainder) {
  auto p = Partition::balanced(10, 3);
  EXPECT_EQ(p.num_blocks(), 3u);
  EXPECT_EQ(p.range(0).size(), 4u);
  EXPECT_EQ(p.range(1).size(), 3u);
  EXPECT_EQ(p.range(2).size(), 3u);
  EXPECT_EQ(p.range(2).end, 10u);
}

TEST(Partition, FromSizesAndBlockOf) {
  auto p = Partition::from_sizes({2, 3, 1});
  EXPECT_EQ(p.dim(), 6u);
  EXPECT_EQ(p.block_of(0), 0u);
  EXPECT_EQ(p.block_of(1), 0u);
  EXPECT_EQ(p.block_of(4), 1u);
  EXPECT_EQ(p.block_of(5), 2u);
}

TEST(Partition, BlockSpanViewsCorrectSlice) {
  auto p = Partition::from_sizes({2, 2});
  Vector x{1, 2, 3, 4};
  auto s = p.block_span(std::span<const double>(x), 1);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_DOUBLE_EQ(s[0], 3.0);
  EXPECT_DOUBLE_EQ(s[1], 4.0);
}

TEST(Partition, InvalidConstructionThrows) {
  EXPECT_THROW(Partition::balanced(3, 5), CheckError);
  EXPECT_THROW(Partition::from_sizes({2, 0}), CheckError);
}

TEST(BlockOwnership, RuleMatchesAnExplicitTable) {
  // The table the rule stands for, dealt out block by block: worker w
  // takes m / W blocks, plus one while w < m % W. The rule's shares must
  // be its rows, tile [0, m) in order, and block_owner must invert them.
  for (const std::size_t m : {1, 2, 5, 16, 17, 64, 100, 1000}) {
    for (const std::size_t workers :
         {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{7},
          m / 2, m - 1, m}) {
      if (workers < 1 || workers > m) continue;
      std::vector<std::vector<BlockId>> table(workers);
      std::vector<std::size_t> owner(m);
      BlockId next = 0;
      for (std::size_t w = 0; w < workers; ++w)
        for (std::size_t k = 0; k < m / workers + (w < m % workers ? 1 : 0);
             ++k) {
          table[w].push_back(next);
          owner[next++] = w;
        }
      ASSERT_EQ(next, m);
      BlockId first = 0;
      for (std::size_t w = 0; w < workers; ++w) {
        const BlockShare share = block_share(m, workers, w);
        EXPECT_EQ(share.first, first) << "m " << m << " W " << workers;
        EXPECT_GE(share.count, 1u);
        EXPECT_EQ(share.blocks(), table[w]) << "m " << m << " W " << workers;
        first += static_cast<BlockId>(share.count);
      }
      EXPECT_EQ(first, m);
      for (BlockId b = 0; b < m; ++b)
        EXPECT_EQ(block_owner(m, workers, b), owner[b])
            << "m " << m << " W " << workers << " b " << b;
    }
  }
}

TEST(BlockOwnership, OutOfRangeArgumentsThrow) {
  EXPECT_THROW(block_share(3, 0, 0), CheckError);
  EXPECT_THROW(block_share(3, 4, 0), CheckError);  // more workers than blocks
  EXPECT_THROW(block_share(3, 2, 2), CheckError);
  EXPECT_THROW(block_owner(3, 2, 3), CheckError);
}

TEST(WeightedMaxNorm, UnitWeightsScalarBlocks) {
  WeightedMaxNorm norm(Partition::scalar(3));
  Vector x{1, -5, 2};
  EXPECT_DOUBLE_EQ(norm(x), 5.0);
}

TEST(WeightedMaxNorm, WeightsRescaleBlocks) {
  WeightedMaxNorm norm(Partition::scalar(2), {1.0, 10.0});
  Vector x{2.0, 30.0};
  EXPECT_DOUBLE_EQ(norm(x), 3.0);  // max(2/1, 30/10)
}

TEST(WeightedMaxNorm, BlockNormIsEuclideanInsideBlocks) {
  WeightedMaxNorm norm(Partition::from_sizes({2, 1}));
  Vector x{3, 4, 1};
  EXPECT_DOUBLE_EQ(norm.block_norm(x, 0), 5.0);
  EXPECT_DOUBLE_EQ(norm.block_norm(x, 1), 1.0);
  EXPECT_DOUBLE_EQ(norm(x), 5.0);
}

TEST(WeightedMaxNorm, DistanceAndBlockDistance) {
  WeightedMaxNorm norm(Partition::scalar(2));
  Vector a{1, 2}, b{4, 0};
  EXPECT_DOUBLE_EQ(norm.distance(a, b), 3.0);
  EXPECT_DOUBLE_EQ(norm.block_distance(a, b, 1), 2.0);
  EXPECT_DOUBLE_EQ(block_distance(norm.partition(), a, b, 1), 2.0);
}

TEST(WeightedMaxNorm, TriangleInequalityProperty) {
  Rng rng(3);
  WeightedMaxNorm norm(Partition::from_sizes({3, 2, 4}), {1.0, 2.5, 0.5});
  for (int trial = 0; trial < 100; ++trial) {
    Vector a(9), b(9);
    for (auto& v : a) v = rng.normal();
    for (auto& v : b) v = rng.normal();
    EXPECT_LE(norm(add(a, b)), norm(a) + norm(b) + 1e-12);
  }
}

TEST(WeightedMaxNorm, NonpositiveWeightThrows) {
  EXPECT_THROW(WeightedMaxNorm(Partition::scalar(2), {1.0, 0.0}),
               CheckError);
}

}  // namespace
}  // namespace asyncit::la
