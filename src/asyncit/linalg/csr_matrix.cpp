#include "asyncit/linalg/csr_matrix.hpp"

#include <algorithm>
#include <cmath>

#include "asyncit/linalg/kernels.hpp"
#include "asyncit/support/check.hpp"

namespace asyncit::la {

CsrMatrix CsrMatrix::from_rows(std::size_t rows, std::size_t cols,
                               std::vector<std::size_t> row_ptr,
                               std::vector<std::uint32_t> col_idx,
                               std::vector<double> values) {
  ASYNCIT_CHECK_MSG(row_ptr.size() == rows + 1 && row_ptr[0] == 0,
                    "row_ptr must hold rows + 1 = " << rows + 1
                                                    << " offsets from 0");
  ASYNCIT_CHECK_MSG(row_ptr[rows] == col_idx.size() &&
                        values.size() == col_idx.size(),
                    "row_ptr ends at " << row_ptr[rows] << " for "
                                       << col_idx.size() << " columns and "
                                       << values.size() << " values");
  for (std::size_t r = 0; r < rows; ++r)
    ASYNCIT_CHECK_MSG(row_ptr[r] <= row_ptr[r + 1],
                      "row_ptr decreases at row " << r);

  // Row by row: a stable insertion sort on the column, then a merge that
  // writes each distinct column once at `out`, which never passes the
  // row's start, so the compaction needs no second buffer.
  std::uint32_t* c = col_idx.data();
  double* v = values.data();
  std::size_t out = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t begin = row_ptr[r], end = row_ptr[r + 1];
    for (std::size_t i = begin + 1; i < end; ++i) {
      const std::uint32_t ci = c[i];
      if (c[i - 1] <= ci) continue;
      const double vi = v[i];
      std::size_t j = i;
      for (; j > begin && c[j - 1] > ci; --j) {
        c[j] = c[j - 1];
        v[j] = v[j - 1];
      }
      c[j] = ci;
      v[j] = vi;
    }
    row_ptr[r] = out;
    for (std::size_t i = begin; i < end;) {
      const std::uint32_t col = c[i];
      ASYNCIT_CHECK_MSG(col < cols, "entry (" << r << "," << col
                                              << ") out of bounds for "
                                              << rows << "x" << cols);
      double sum = 0.0;
      for (; i < end && c[i] == col; ++i) sum += v[i];
      c[out] = col;
      v[out] = sum;
      ++out;
    }
  }
  row_ptr[rows] = out;
  col_idx.resize(out);
  values.resize(out);

  CsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_ = std::move(row_ptr);
  m.col_idx_ = std::move(col_idx);
  m.values_ = std::move(values);
  return m;
}

CsrMatrix CsrMatrix::from_triplets(std::size_t rows, std::size_t cols,
                                   std::vector<Triplet> triplets) {
  std::vector<std::size_t> row_ptr(rows + 1, 0);
  for (const auto& t : triplets) {
    ASYNCIT_CHECK_MSG(t.row < rows && t.col < cols,
                      "triplet (" << t.row << "," << t.col
                                  << ") out of bounds for " << rows << "x"
                                  << cols);
    ++row_ptr[t.row + 1];
  }
  for (std::size_t r = 0; r < rows; ++r) row_ptr[r + 1] += row_ptr[r];
  // Scatter in input order with row_ptr[r] as row r's cursor; each
  // cursor ends at the next row's start, so shifting restores offsets.
  std::vector<std::uint32_t> col_idx(triplets.size());
  std::vector<double> values(triplets.size());
  for (const auto& t : triplets) {
    const std::size_t k = row_ptr[t.row]++;
    col_idx[k] = t.col;
    values[k] = t.value;
  }
  for (std::size_t r = rows; r > 0; --r) row_ptr[r] = row_ptr[r - 1];
  row_ptr[0] = 0;
  std::vector<Triplet>().swap(triplets);  // release before the row pass
  return from_rows(rows, cols, std::move(row_ptr), std::move(col_idx),
                   std::move(values));
}

void CsrMatrix::matvec(std::span<const double> x, std::span<double> y) const {
  ASYNCIT_CHECK(x.size() == cols_ && y.size() == rows_);
  matvec_rows(0, rows_, x, y);
}

void CsrMatrix::matvec_rows(std::size_t begin, std::size_t end,
                            std::span<const double> x,
                            std::span<double> y) const {
  ASYNCIT_CHECK(begin <= end && end <= rows_);
  ASYNCIT_CHECK(x.size() == cols_ && y.size() == end - begin);
  if (begin == end) return;
  // Fused row kernel from the active dispatch level: the row loop and the
  // gather dot live in the same ISA unit (one indirect call per RANGE, not
  // per row).
  kern::matvec_rows(row_ptr_.data(), col_idx_.data(), values_.data(), begin,
                    end, x.data(), y.data());
}

void CsrMatrix::jacobi_rows(std::size_t begin, std::size_t end,
                            std::span<const double> rhs,
                            std::span<const double> inv_diag,
                            std::span<const double> x,
                            std::span<double> out) const {
  ASYNCIT_CHECK(rows_ == cols_);  // the identity reads x at the row index
  ASYNCIT_CHECK(begin <= end && end <= rows_);
  ASYNCIT_CHECK(rhs.size() == rows_ && inv_diag.size() == rows_);
  ASYNCIT_CHECK(x.size() == cols_ && out.size() == end - begin);
  if (begin == end) return;
  // Full row dot (diagonal included), then add the diagonal term back:
  //   (rhs − Σ_{k≠r} a_rk x_k)/a_rr = (rhs − row·x)/a_rr + x_r.
  // Fused per ISA like matvec_rows above.
  kern::jacobi_rows(row_ptr_.data(), col_idx_.data(), values_.data(),
                    rhs.data(), inv_diag.data(), begin, end, x.data(),
                    out.data());
}

Vector CsrMatrix::matvec(std::span<const double> x) const {
  Vector y(rows_);
  matvec(x, y);
  return y;
}

void CsrMatrix::matvec_transpose(std::span<const double> x,
                                 std::span<double> y) const {
  ASYNCIT_CHECK(x.size() == rows_ && y.size() == cols_);
  for (double& v : y) v = 0.0;
  const double* vals = values_.data();
  const std::uint32_t* cols = col_idx_.data();
  for (std::size_t r = 0; r < rows_; ++r) {
    const double xr = x[r];
    if (xr == 0.0) continue;
    const std::size_t k = row_ptr_[r];
    kern::sparse_axpy(xr, vals + k, cols + k, row_ptr_[r + 1] - k, y.data());
  }
}

Vector CsrMatrix::matvec_transpose(std::span<const double> x) const {
  Vector y(cols_);
  matvec_transpose(x, y);
  return y;
}

double CsrMatrix::row_dot(std::size_t r, std::span<const double> x) const {
  ASYNCIT_CHECK(r < rows_ && x.size() == cols_);
  const std::size_t k = row_ptr_[r];
  return kern::sparse_dot(values_.data() + k, col_idx_.data() + k,
                          row_ptr_[r + 1] - k, x.data());
}

double CsrMatrix::at(std::size_t r, std::size_t c) const {
  ASYNCIT_CHECK(r < rows_ && c < cols_);
  const auto begin = col_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[r]);
  const auto end = col_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[r + 1]);
  const auto it = std::lower_bound(begin, end, static_cast<std::uint32_t>(c));
  if (it == end || *it != c) return 0.0;
  return values_[static_cast<std::size_t>(it - col_idx_.begin())];
}

Vector CsrMatrix::diagonal() const {
  ASYNCIT_CHECK(rows_ == cols_);
  Vector d(rows_);
  for (std::size_t r = 0; r < rows_; ++r) d[r] = at(r, r);
  return d;
}

std::span<const std::uint32_t> CsrMatrix::row_cols(std::size_t r) const {
  ASYNCIT_CHECK(r < rows_);
  return {col_idx_.data() + row_ptr_[r], row_ptr_[r + 1] - row_ptr_[r]};
}

std::span<const double> CsrMatrix::row_values(std::size_t r) const {
  ASYNCIT_CHECK(r < rows_);
  return {values_.data() + row_ptr_[r], row_ptr_[r + 1] - row_ptr_[r]};
}

double gram_spectral_norm(const CsrMatrix& a, int iters) {
  ASYNCIT_CHECK(a.cols() > 0);
  Vector v(a.cols());
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = 1.0 + 0.1 * std::sin(static_cast<double>(i + 1));
  Vector av(a.rows()), atav(a.cols());
  double lambda = 0.0;
  for (int it = 0; it < iters; ++it) {
    a.matvec(v, av);
    a.matvec_transpose(av, atav);
    const double nrm = norm2(atav);
    if (nrm == 0.0) return 0.0;
    for (std::size_t i = 0; i < v.size(); ++i) v[i] = atav[i] / nrm;
    lambda = nrm;
  }
  return lambda;
}

}  // namespace asyncit::la
