// Tests for the linear algebra substrate: vector kernels, dense/CSR
// matrices, partitions, weighted max norms, spectral estimates.
#include <gtest/gtest.h>

#include <cmath>

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
