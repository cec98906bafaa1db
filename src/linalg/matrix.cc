#include "linalg/matrix.h"

#include <algorithm>
#include <cmath>

namespace ppanns {

Matrix Matrix::Identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m.at(i, i) = 1.0;
  return m;
}

Matrix Matrix::Gaussian(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  rng.GaussianVector(0.0, 1.0, m.data().data(), rows * cols);
  return m;
}

Matrix Matrix::RandomOrthogonal(std::size_t n, Rng& rng) {
  // Householder QR of a Gaussian matrix; Q is returned. Sign-correct the
  // diagonal of R so Q is Haar-ish distributed rather than biased.
  Matrix a = Gaussian(n, n, rng);
  Matrix q = Identity(n);

  std::vector<double> v(n);
  for (std::size_t k = 0; k < n; ++k) {
    // Build Householder vector for column k of the trailing submatrix.
    double norm = 0.0;
    for (std::size_t i = k; i < n; ++i) norm += a.at(i, k) * a.at(i, k);
    norm = std::sqrt(norm);
    if (norm < 1e-300) continue;

    const double alpha = (a.at(k, k) >= 0.0) ? -norm : norm;
    double vnorm2 = 0.0;
    for (std::size_t i = k; i < n; ++i) {
      v[i] = a.at(i, k);
      if (i == k) v[i] -= alpha;
      vnorm2 += v[i] * v[i];
    }
    if (vnorm2 < 1e-300) continue;

    // Apply H = I - 2 v v^T / (v^T v) to A (left) and accumulate into Q.
    for (std::size_t j = k; j < n; ++j) {
      double dot = 0.0;
      for (std::size_t i = k; i < n; ++i) dot += v[i] * a.at(i, j);
      const double f = 2.0 * dot / vnorm2;
      for (std::size_t i = k; i < n; ++i) a.at(i, j) -= f * v[i];
    }
    for (std::size_t j = 0; j < n; ++j) {
      double dot = 0.0;
      for (std::size_t i = k; i < n; ++i) dot += v[i] * q.at(i, j);
      const double f = 2.0 * dot / vnorm2;
      for (std::size_t i = k; i < n; ++i) q.at(i, j) -= f * v[i];
    }
  }
  // Q currently holds the product of Householder reflections = Q^T of the
  // factorization; flip rows where R's diagonal is negative, then transpose.
  for (std::size_t i = 0; i < n; ++i) {
    if (a.at(i, i) < 0.0) {
      for (std::size_t j = 0; j < n; ++j) q.at(i, j) = -q.at(i, j);
    }
  }
  return q.Transpose();
}

Matrix Matrix::Transpose() const {
  Matrix t(cols_, rows_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t j = 0; j < cols_; ++j) t.at(j, i) = at(i, j);
  }
  return t;
}

Matrix Matrix::Multiply(const Matrix& other) const {
  PPANNS_CHECK(cols_ == other.rows_);
  Matrix out(rows_, other.cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double aik = at(i, k);
      if (aik == 0.0) continue;
      const double* brow = other.row(k);
      double* orow = out.row(i);
      for (std::size_t j = 0; j < other.cols_; ++j) orow[j] += aik * brow[j];
    }
  }
  return out;
}

Matrix Matrix::SliceRows(std::size_t row_begin, std::size_t row_end) const {
  PPANNS_CHECK(row_begin <= row_end && row_end <= rows_);
  Matrix out(row_end - row_begin, cols_);
  std::copy(data_.begin() + row_begin * cols_, data_.begin() + row_end * cols_,
            out.data().begin());
  return out;
}

double Matrix::FrobeniusNorm() const {
  double s = 0.0;
  for (double v : data_) s += v * v;
  return std::sqrt(s);
}

void MatVec(const Matrix& a, const double* x, double* y) {
  MatVecF64(a.data().data(), a.rows(), a.cols(), x, y);
}

// VecMat's row update is the inner loop of DCE data encryption, the bulk of
// database set-up and of every insert's client side. Where that 33-byte loop
// falls relative to a 64-byte line depends on the size of the code linked
// before it; straddling a line made set-up ~15-20% slower (4-vCPU x86-64
// host, SIFT-like d=128), so the loop heads are aligned to 64 bytes.
#if defined(__GNUC__) && !defined(__clang__)
__attribute__((optimize("align-loops=64")))
#endif
void VecMat(const double* x, const Matrix& a, double* y) {
  std::fill(y, y + a.cols(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double xi = x[i];
    if (xi == 0.0) continue;
    const double* arow = a.row(i);
    for (std::size_t j = 0; j < a.cols(); ++j) y[j] += xi * arow[j];
  }
}

LuDecomposition::LuDecomposition(const Matrix& a, double pivot_tol)
    : n_(a.rows()), lu_(a), perm_(a.rows()) {
  PPANNS_CHECK(a.rows() == a.cols());
  for (std::size_t i = 0; i < n_; ++i) perm_[i] = i;

  ok_ = true;
  for (std::size_t k = 0; k < n_; ++k) {
    // Partial pivoting: find the largest magnitude in column k at/below row k.
    std::size_t pivot = k;
    double pmax = std::fabs(lu_.at(k, k));
    for (std::size_t i = k + 1; i < n_; ++i) {
      const double v = std::fabs(lu_.at(i, k));
      if (v > pmax) {
        pmax = v;
        pivot = i;
      }
    }
    if (pmax < pivot_tol) {
      ok_ = false;
      return;
    }
    if (pivot != k) {
      for (std::size_t j = 0; j < n_; ++j) {
        std::swap(lu_.at(k, j), lu_.at(pivot, j));
      }
      std::swap(perm_[k], perm_[pivot]);
      perm_sign_ = -perm_sign_;
    }
    const double inv_pivot = 1.0 / lu_.at(k, k);
    for (std::size_t i = k + 1; i < n_; ++i) {
      const double factor = lu_.at(i, k) * inv_pivot;
      lu_.at(i, k) = factor;
      if (factor == 0.0) continue;
      for (std::size_t j = k + 1; j < n_; ++j) {
        lu_.at(i, j) -= factor * lu_.at(k, j);
      }
    }
  }
}

Status LuDecomposition::Solve(const double* b, double* x) const {
  if (!ok_) return Status::FailedPrecondition("LU: matrix is singular");
  // Forward substitution with permuted b (L has unit diagonal).
  for (std::size_t i = 0; i < n_; ++i) {
    double s = b[perm_[i]];
    for (std::size_t j = 0; j < i; ++j) s -= lu_.at(i, j) * x[j];
    x[i] = s;
  }
  // Back substitution.
  for (std::size_t ii = n_; ii > 0; --ii) {
    const std::size_t i = ii - 1;
    double s = x[i];
    for (std::size_t j = i + 1; j < n_; ++j) s -= lu_.at(i, j) * x[j];
    x[i] = s / lu_.at(i, i);
  }
  return Status::OK();
}

Result<Matrix> LuDecomposition::Inverse() const {
  if (!ok_) return Status::FailedPrecondition("LU: matrix is singular");
  Matrix inv(n_, n_);
  std::vector<double> e(n_, 0.0), col(n_);
  for (std::size_t j = 0; j < n_; ++j) {
    e[j] = 1.0;
    PPANNS_RETURN_IF_ERROR(Solve(e.data(), col.data()));
    for (std::size_t i = 0; i < n_; ++i) inv.at(i, j) = col[i];
    e[j] = 0.0;
  }
  return inv;
}

double LuDecomposition::Determinant() const {
  if (!ok_) return 0.0;
  double det = perm_sign_;
  for (std::size_t i = 0; i < n_; ++i) det *= lu_.at(i, i);
  return det;
}

Status SolveLinearSystem(const Matrix& a, const std::vector<double>& b,
                         std::vector<double>* x) {
  PPANNS_CHECK(a.rows() == b.size());
  LuDecomposition lu(a);
  if (!lu.ok()) return Status::FailedPrecondition("singular system");
  x->resize(a.rows());
  return lu.Solve(b.data(), x->data());
}

InvertibleMatrix InvertibleMatrix::RandomFast(std::size_t n, Rng& rng,
                                              std::size_t reflections) {
  // Draw k unit vectors for the Householder reflections H_i = I - 2 v v^T.
  std::vector<std::vector<double>> vs(reflections, std::vector<double>(n));
  for (auto& v : vs) {
    rng.GaussianVector(0.0, 1.0, v.data(), n);
    double norm2 = 0.0;
    for (double x : v) norm2 += x * x;
    const double inv = 1.0 / std::sqrt(norm2);
    for (double& x : v) x *= inv;
  }
  std::vector<double> d1(n), d2(n);
  for (std::size_t i = 0; i < n; ++i) {
    d1[i] = rng.SignedUniform(0.5, 2.0);
    d2[i] = rng.SignedUniform(0.5, 2.0);
  }

  // Left-applies H = I - 2 v v^T: M <- M - 2 v (v^T M).
  auto apply_reflection = [n](const std::vector<double>& v, Matrix* m) {
    std::vector<double> vtm(n);
    VecMat(v.data(), *m, vtm.data());
    for (std::size_t i = 0; i < n; ++i) {
      const double f = 2.0 * v[i];
      if (f == 0.0) continue;
      double* row = m->row(i);
      for (std::size_t j = 0; j < n; ++j) row[j] -= f * vtm[j];
    }
  };

  InvertibleMatrix out;
  // m = D1 * H_k ... H_1 * D2.
  out.m = Matrix(n, n);
  for (std::size_t i = 0; i < n; ++i) out.m.at(i, i) = d2[i];
  for (const auto& v : vs) apply_reflection(v, &out.m);
  for (std::size_t i = 0; i < n; ++i) {
    double* row = out.m.row(i);
    for (std::size_t j = 0; j < n; ++j) row[j] *= d1[i];
  }
  // m_inv = D2^{-1} * H_1 ... H_k * D1^{-1} (H self-inverse).
  out.m_inv = Matrix(n, n);
  for (std::size_t i = 0; i < n; ++i) out.m_inv.at(i, i) = 1.0 / d1[i];
  for (std::size_t r = reflections; r > 0; --r) {
    apply_reflection(vs[r - 1], &out.m_inv);
  }
  for (std::size_t i = 0; i < n; ++i) {
    double* row = out.m_inv.row(i);
    for (std::size_t j = 0; j < n; ++j) row[j] /= d2[i];
  }
  return out;
}

InvertibleMatrix InvertibleMatrix::Random(std::size_t n, Rng& rng) {
  Matrix q = Matrix::RandomOrthogonal(n, rng);
  std::vector<double> d1(n), d2(n);
  for (std::size_t i = 0; i < n; ++i) {
    d1[i] = rng.SignedUniform(0.5, 2.0);
    d2[i] = rng.SignedUniform(0.5, 2.0);
  }
  // M = D1 Q D2  =>  M^{-1} = D2^{-1} Q^T D1^{-1}. Both built directly so the
  // pair is exact to rounding (no LU inversion error enters the keys).
  InvertibleMatrix out;
  out.m = Matrix(n, n);
  out.m_inv = Matrix(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      out.m.at(i, j) = d1[i] * q.at(i, j) * d2[j];
      out.m_inv.at(i, j) = (1.0 / d2[i]) * q.at(j, i) * (1.0 / d1[j]);
    }
  }
  return out;
}

}  // namespace ppanns
