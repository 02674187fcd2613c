#include "asyncit/problems/linear_system.hpp"

#include <cmath>

#include "asyncit/support/check.hpp"

namespace asyncit::problems {

LinearSystem make_diagonally_dominant_system(std::size_t n,
                                             std::size_t off_diagonals_per_row,
                                             double dominance, Rng& rng) {
  ASYNCIT_CHECK(n >= 2);
  ASYNCIT_CHECK(off_diagonals_per_row >= 1 && off_diagonals_per_row < n);
  ASYNCIT_CHECK_MSG(dominance > 1.0,
                    "dominance must exceed 1 for a Jacobi contraction");
  // Rows are filled in place, each with its diagonal last; from_rows
  // sorts each row and sums repeated columns in this order.
  const std::size_t nnz = n * (off_diagonals_per_row + 1);
  std::vector<std::size_t> row_ptr(n + 1);
  std::vector<std::uint32_t> col_idx;
  std::vector<double> values;
  col_idx.reserve(nnz);
  values.reserve(nnz);
  for (std::uint32_t row = 0; row < n; ++row) {
    row_ptr[row] = col_idx.size();
    double off_sum = 0.0;
    for (std::size_t k = 0; k < off_diagonals_per_row; ++k) {
      std::uint32_t col = row;
      while (col == row)
        col = static_cast<std::uint32_t>(rng.uniform_index(n));
      const double v = rng.uniform(-1.0, 1.0);
      off_sum += std::abs(v);
      col_idx.push_back(col);
      values.push_back(v);
    }
    // Diagonal dominates the *sum* of magnitudes of this row's off-diagonal
    // entries (duplicates merge by addition, which can only shrink the sum).
    col_idx.push_back(row);
    values.push_back(dominance * off_sum + 1e-3);
  }
  row_ptr[n] = nnz;
  LinearSystem sys;
  sys.a = la::CsrMatrix::from_rows(n, n, std::move(row_ptr),
                                   std::move(col_idx), std::move(values));
  sys.b.resize(n);
  for (auto& v : sys.b) v = rng.uniform(-1.0, 1.0);
  return sys;
}

LinearSystem make_tridiagonal_system(std::size_t n, double shift, Rng& rng) {
  ASYNCIT_CHECK(n >= 2);
  ASYNCIT_CHECK(shift > 0.0);
  std::vector<la::Triplet> triplets;
  triplets.reserve(3 * n);
  for (std::uint32_t i = 0; i < n; ++i) {
    triplets.push_back({i, i, 2.0 + shift});
    if (i > 0) triplets.push_back({i, i - 1, -1.0});
    if (i + 1 < n) triplets.push_back({i, i + 1, -1.0});
  }
  LinearSystem sys;
  sys.a = la::CsrMatrix::from_triplets(n, n, std::move(triplets));
  sys.b.resize(n);
  for (auto& v : sys.b) v = rng.uniform(-1.0, 1.0);
  return sys;
}

LinearSystem make_laplacian_2d_system(std::size_t nx, std::size_t ny,
                                      double shift, double f_value) {
  ASYNCIT_CHECK(nx >= 2 && ny >= 2);
  ASYNCIT_CHECK(shift >= 0.0);
  const std::size_t n = nx * ny;
  const double h = 1.0 / static_cast<double>(nx + 1);
  auto id = [nx](std::size_t ix, std::size_t iy) {
    return static_cast<std::uint32_t>(iy * nx + ix);
  };
  std::vector<la::Triplet> triplets;
  triplets.reserve(5 * n);
  for (std::size_t iy = 0; iy < ny; ++iy) {
    for (std::size_t ix = 0; ix < nx; ++ix) {
      const std::uint32_t r = id(ix, iy);
      triplets.push_back({r, r, 4.0 + shift});
      if (ix > 0) triplets.push_back({r, id(ix - 1, iy), -1.0});
      if (ix + 1 < nx) triplets.push_back({r, id(ix + 1, iy), -1.0});
      if (iy > 0) triplets.push_back({r, id(ix, iy - 1), -1.0});
      if (iy + 1 < ny) triplets.push_back({r, id(ix, iy + 1), -1.0});
    }
  }
  LinearSystem sys;
  sys.a = la::CsrMatrix::from_triplets(n, n, std::move(triplets));
  sys.b.assign(n, f_value * h * h);
  return sys;
}

}  // namespace asyncit::problems
