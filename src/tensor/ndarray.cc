#include "tensor/ndarray.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/thread_pool.h"

namespace xorbits::tensor {

namespace {

int64_t ShapeProduct(const std::vector<int64_t>& shape) {
  int64_t p = 1;
  for (int64_t d : shape) p *= d;
  return p;
}

Status CheckSameShape(const NDArray& a, const NDArray& b, const char* what) {
  if (a.shape() != b.shape()) {
    return Status::Invalid(std::string(what) + ": shape mismatch " +
                           a.ShapeString() + " vs " + b.ShapeString());
  }
  return Status::OK();
}

/// Elements per morsel for elementwise tensor kernels.
constexpr int64_t kElemGrain = 1 << 15;

/// Morsel grain for scalar reductions: bounded partial count, decomposition
/// a pure function of n — float merge order never depends on thread count.
inline int64_t ReduceGrain(int64_t n) {
  return GrainForMorsels(n, kElemGrain, 16);
}

template <typename F>
Result<NDArray> ZipWith(const NDArray& a, const NDArray& b, F f,
                        const char* what) {
  XORBITS_RETURN_NOT_OK(CheckSameShape(a, b, what));
  std::vector<double> out(a.data().size());
  const double* ad = a.data().data();
  const double* bd = b.data().data();
  ParallelFor(0, static_cast<int64_t>(out.size()), kElemGrain,
              [&](int64_t lo, int64_t hi) {
                for (int64_t i = lo; i < hi; ++i) out[i] = f(ad[i], bd[i]);
              });
  return NDArray::Make(std::move(out), a.shape());
}

template <typename F>
NDArray MapUnary(const NDArray& a, F f) {
  std::vector<double> out(a.data().size());
  const double* ad = a.data().data();
  ParallelFor(0, static_cast<int64_t>(out.size()), kElemGrain,
              [&](int64_t lo, int64_t hi) {
                for (int64_t i = lo; i < hi; ++i) out[i] = f(ad[i]);
              });
  return NDArray::Make(std::move(out), a.shape()).MoveValue();
}

}  // namespace

Result<NDArray> NDArray::Make(std::vector<double> data,
                              std::vector<int64_t> shape) {
  return FromView(common::BufferView<double>(std::move(data)),
                  std::move(shape));
}

Result<NDArray> NDArray::FromView(common::BufferView<double> data,
                                  std::vector<int64_t> shape) {
  if (shape.empty() || shape.size() > 2) {
    return Status::Invalid("NDArray supports rank 1 or 2");
  }
  for (int64_t d : shape) {
    if (d < 0) return Status::Invalid("negative dimension");
  }
  if (ShapeProduct(shape) != data.ssize()) {
    return Status::Invalid("data size does not match shape");
  }
  return NDArray(std::move(data), std::move(shape));
}

NDArray NDArray::Zeros(std::vector<int64_t> shape) {
  std::vector<double> data(ShapeProduct(shape), 0.0);
  return NDArray(std::move(data), std::move(shape));
}

NDArray NDArray::Full(std::vector<int64_t> shape, double value) {
  std::vector<double> data(ShapeProduct(shape), value);
  return NDArray(std::move(data), std::move(shape));
}

NDArray NDArray::Eye(int64_t n) {
  NDArray out = Zeros({n, n});
  double* od = out.mutable_data().data();
  for (int64_t i = 0; i < n; ++i) od[i * n + i] = 1.0;
  return out;
}

NDArray NDArray::RandomUniform(std::vector<int64_t> shape, Rng& rng,
                               double lo, double hi) {
  std::vector<double> data(ShapeProduct(shape));
  for (double& v : data) v = rng.Uniform(lo, hi);
  return NDArray(std::move(data), std::move(shape));
}

NDArray NDArray::RandomNormal(std::vector<int64_t> shape, Rng& rng,
                              double mean, double stddev) {
  std::vector<double> data(ShapeProduct(shape));
  for (double& v : data) v = rng.Normal(mean, stddev);
  return NDArray(std::move(data), std::move(shape));
}

NDArray NDArray::SliceRows(int64_t r0, int64_t r1) const {
  const int64_t c = cols();
  r0 = std::max<int64_t>(0, r0);
  r1 = std::min<int64_t>(rows(), r1);
  if (r1 < r0) r1 = r0;
  std::vector<int64_t> shape = shape_;
  shape[0] = r1 - r0;
  return NDArray(data_.Slice(r0 * c, (r1 - r0) * c), std::move(shape));
}

Result<NDArray> NDArray::SliceCols(int64_t c0, int64_t c1) const {
  if (ndim() != 2) return Status::Invalid("SliceCols requires rank 2");
  const int64_t m = rows(), c = cols();
  c0 = std::max<int64_t>(0, c0);
  c1 = std::min<int64_t>(c, c1);
  if (c1 < c0) c1 = c0;
  std::vector<double> data;
  data.reserve(m * (c1 - c0));
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = c0; j < c1; ++j) data.push_back(at(i, j));
  }
  return NDArray(std::move(data), {m, c1 - c0});
}

common::Hash128 ContentFingerprint(const NDArray& a, int64_t* bytes_hashed) {
  common::ContentHasher h;
  h.Mix(static_cast<uint64_t>(a.ndim()));
  for (int64_t d : a.shape()) h.Mix(static_cast<uint64_t>(d));
  h.Mix(a.data().ContentHash(bytes_hashed));
  return h.Finish();
}

std::string NDArray::ShapeString() const {
  std::ostringstream os;
  os << "(";
  for (size_t i = 0; i < shape_.size(); ++i) {
    if (i) os << ", ";
    os << shape_[i];
  }
  os << ")";
  return os.str();
}

std::string NDArray::ToString(int64_t max_rows) const {
  std::ostringstream os;
  os << "NDArray" << ShapeString() << "\n";
  const int64_t m = std::min<int64_t>(rows(), max_rows);
  const int64_t c = cols();
  for (int64_t i = 0; i < m; ++i) {
    os << "[";
    for (int64_t j = 0; j < std::min<int64_t>(c, 8); ++j) {
      if (j) os << ", ";
      os << (ndim() == 1 ? at(i) : at(i, j));
    }
    if (c > 8) os << ", ...";
    os << "]\n";
  }
  if (rows() > m) os << "...\n";
  return os.str();
}

Result<NDArray> Add(const NDArray& a, const NDArray& b) {
  return ZipWith(a, b, [](double x, double y) { return x + y; }, "Add");
}
Result<NDArray> Sub(const NDArray& a, const NDArray& b) {
  return ZipWith(a, b, [](double x, double y) { return x - y; }, "Sub");
}
Result<NDArray> Mul(const NDArray& a, const NDArray& b) {
  return ZipWith(a, b, [](double x, double y) { return x * y; }, "Mul");
}
Result<NDArray> Div(const NDArray& a, const NDArray& b) {
  return ZipWith(a, b, [](double x, double y) { return x / y; }, "Div");
}
NDArray AddScalar(const NDArray& a, double s) {
  return MapUnary(a, [s](double x) { return x + s; });
}
NDArray MulScalar(const NDArray& a, double s) {
  return MapUnary(a, [s](double x) { return x * s; });
}
NDArray Exp(const NDArray& a) {
  return MapUnary(a, [](double x) { return std::exp(x); });
}
NDArray Sqrt(const NDArray& a) {
  return MapUnary(a, [](double x) { return std::sqrt(x); });
}

Result<NDArray> MatMul(const NDArray& a, const NDArray& b) {
  if (a.ndim() != 2 || b.ndim() != 2) {
    return Status::Invalid("MatMul requires rank-2 operands");
  }
  const int64_t m = a.rows(), k = a.cols(), n = b.cols();
  if (b.rows() != k) {
    return Status::Invalid("MatMul inner dimension mismatch: " +
                           a.ShapeString() + " x " + b.ShapeString());
  }
  NDArray out = NDArray::Zeros({m, n});
  // Row-blocked morsels: each morsel owns a disjoint slab of output rows,
  // and within a row the i-k-j order streams through b rows cache
  // friendly. Per-row accumulation order is unchanged, so the product is
  // byte-identical to the serial loop at any thread count.
  const double* ad = a.data().data();
  const double* bd = b.data().data();
  double* od = out.mutable_data().data();
  ParallelFor(0, m, GrainForMorsels(m, 1, 16), [&](int64_t ilo, int64_t ihi) {
    for (int64_t i = ilo; i < ihi; ++i) {
      for (int64_t kk = 0; kk < k; ++kk) {
        const double aik = ad[i * k + kk];
        if (aik == 0.0) continue;
        const double* brow = bd + kk * n;
        double* orow = od + i * n;
        for (int64_t j = 0; j < n; ++j) orow[j] += aik * brow[j];
      }
    }
  });
  return out;
}

Result<NDArray> Transpose(const NDArray& a) {
  if (a.ndim() != 2) return Status::Invalid("Transpose requires rank 2");
  const int64_t m = a.rows(), n = a.cols();
  NDArray out = NDArray::Zeros({n, m});
  const double* ad = a.data().data();
  double* od = out.mutable_data().data();
  ParallelFor(0, m, GrainForMorsels(m, 64, 16), [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      for (int64_t j = 0; j < n; ++j) od[j * m + i] = ad[i * n + j];
    }
  });
  return out;
}

Status QRDecompose(const NDArray& a, NDArray* q, NDArray* r) {
  if (a.ndim() != 2) return Status::Invalid("QR requires rank 2");
  const int64_t m = a.rows(), n = a.cols();
  if (m < n) {
    return Status::Invalid("QR requires m >= n (tall or square), got " +
                           a.ShapeString());
  }
  // Householder on a working copy; accumulate reflectors. The copy-on-write
  // unshare happens once here, then the kernel works on a raw pointer.
  NDArray work = a;
  double* wd = work.mutable_data().data();
  std::vector<std::vector<double>> vs;  // reflector vectors (length m - j)
  for (int64_t j = 0; j < n; ++j) {
    // Build reflector for column j below the diagonal.
    double norm = 0.0;
    for (int64_t i = j; i < m; ++i) norm += wd[i * n + j] * wd[i * n + j];
    norm = std::sqrt(norm);
    std::vector<double> v(m - j, 0.0);
    double alpha = wd[j * n + j] >= 0 ? -norm : norm;
    if (norm == 0.0) {
      vs.push_back(std::move(v));
      continue;
    }
    for (int64_t i = j; i < m; ++i) v[i - j] = wd[i * n + j];
    v[0] -= alpha;
    double vnorm = 0.0;
    for (double x : v) vnorm += x * x;
    vnorm = std::sqrt(vnorm);
    if (vnorm > 0) {
      for (double& x : v) x /= vnorm;
    }
    // Apply H = I - 2 v v^T to the trailing submatrix.
    for (int64_t c = j; c < n; ++c) {
      double dot = 0.0;
      for (int64_t i = j; i < m; ++i) dot += v[i - j] * wd[i * n + c];
      for (int64_t i = j; i < m; ++i) wd[i * n + c] -= 2 * dot * v[i - j];
    }
    vs.push_back(std::move(v));
  }
  // R: upper-triangular top n x n of work.
  NDArray rr = NDArray::Zeros({n, n});
  double* rd = rr.mutable_data().data();
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = i; j < n; ++j) rd[i * n + j] = wd[i * n + j];
  }
  // Q: apply reflectors in reverse to the first n columns of I (thin Q).
  NDArray qq = NDArray::Zeros({m, n});
  double* qd = qq.mutable_data().data();
  for (int64_t i = 0; i < n; ++i) qd[i * n + i] = 1.0;
  for (int64_t j = n - 1; j >= 0; --j) {
    const std::vector<double>& v = vs[j];
    if (v.empty()) continue;
    for (int64_t c = 0; c < n; ++c) {
      double dot = 0.0;
      for (int64_t i = j; i < m; ++i) dot += v[i - j] * qd[i * n + c];
      for (int64_t i = j; i < m; ++i) qd[i * n + c] -= 2 * dot * v[i - j];
    }
  }
  *q = std::move(qq);
  *r = std::move(rr);
  return Status::OK();
}

Result<NDArray> CholeskySolve(const NDArray& a, const NDArray& b) {
  if (a.ndim() != 2 || a.rows() != a.cols()) {
    return Status::Invalid("CholeskySolve requires square A");
  }
  const int64_t n = a.rows();
  if (b.rows() != n) return Status::Invalid("CholeskySolve: b rows != n");
  const int64_t rhs = b.cols();
  // L L^T = A.
  NDArray l = NDArray::Zeros({n, n});
  double* ld = l.mutable_data().data();
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j <= i; ++j) {
      double s = a.at(i, j);
      for (int64_t k = 0; k < j; ++k) s -= ld[i * n + k] * ld[j * n + k];
      if (i == j) {
        if (s <= 0) {
          return Status::Invalid("matrix is not positive definite");
        }
        ld[i * n + j] = std::sqrt(s);
      } else {
        ld[i * n + j] = s / ld[j * n + j];
      }
    }
  }
  // Forward then back substitution per right-hand side.
  NDArray x = NDArray::Zeros({n, rhs});
  double* xd = x.mutable_data().data();
  for (int64_t c = 0; c < rhs; ++c) {
    std::vector<double> y(n);
    for (int64_t i = 0; i < n; ++i) {
      double s = b.ndim() == 1 ? b.at(i) : b.at(i, c);
      for (int64_t k = 0; k < i; ++k) s -= ld[i * n + k] * y[k];
      y[i] = s / ld[i * n + i];
    }
    for (int64_t i = n - 1; i >= 0; --i) {
      double s = y[i];
      for (int64_t k = i + 1; k < n; ++k) {
        s -= ld[k * n + i] * xd[k * rhs + c];
      }
      xd[i * rhs + c] = s / ld[i * n + i];
    }
  }
  return x;
}

Status SVDDecompose(const NDArray& a, NDArray* u, NDArray* s, NDArray* vt) {
  if (a.ndim() != 2 || a.rows() < a.cols()) {
    return Status::Invalid("SVD requires a tall or square matrix");
  }
  const int64_t n = a.cols();
  NDArray q, r;
  XORBITS_RETURN_NOT_OK(QRDecompose(a, &q, &r));
  // One-sided Jacobi on R: rotate column pairs until all are orthogonal.
  NDArray w = r;                 // becomes U_r * diag(S)
  NDArray v = NDArray::Eye(n);   // accumulates V
  double* wd = w.mutable_data().data();
  double* vd = v.mutable_data().data();
  const double eps = 1e-12;
  for (int sweep = 0; sweep < 60; ++sweep) {
    double off = 0.0;
    for (int64_t p = 0; p < n - 1; ++p) {
      for (int64_t qc = p + 1; qc < n; ++qc) {
        double app = 0, aqq = 0, apq = 0;
        for (int64_t i = 0; i < n; ++i) {
          app += wd[i * n + p] * wd[i * n + p];
          aqq += wd[i * n + qc] * wd[i * n + qc];
          apq += wd[i * n + p] * wd[i * n + qc];
        }
        off = std::max(off, std::fabs(apq) / std::sqrt(app * aqq + eps));
        if (std::fabs(apq) < eps * std::sqrt(app * aqq) || apq == 0.0) {
          continue;
        }
        const double tau = (aqq - app) / (2.0 * apq);
        const double t = (tau >= 0 ? 1.0 : -1.0) /
                         (std::fabs(tau) + std::sqrt(1.0 + tau * tau));
        const double cs = 1.0 / std::sqrt(1.0 + t * t);
        const double sn = cs * t;
        for (int64_t i = 0; i < n; ++i) {
          const double wp = wd[i * n + p], wq = wd[i * n + qc];
          wd[i * n + p] = cs * wp - sn * wq;
          wd[i * n + qc] = sn * wp + cs * wq;
          const double vp = vd[i * n + p], vq = vd[i * n + qc];
          vd[i * n + p] = cs * vp - sn * vq;
          vd[i * n + qc] = sn * vp + cs * vq;
        }
      }
    }
    if (off < 1e-14) break;
  }
  // Singular values = column norms of w; U_r = normalized columns.
  std::vector<double> sigma(n);
  NDArray ur = NDArray::Zeros({n, n});
  double* urd = ur.mutable_data().data();
  std::vector<int64_t> zero_cols;
  for (int64_t j = 0; j < n; ++j) {
    double norm = 0;
    for (int64_t i = 0; i < n; ++i) norm += wd[i * n + j] * wd[i * n + j];
    norm = std::sqrt(norm);
    sigma[j] = norm;
    if (norm > 1e-10) {
      for (int64_t i = 0; i < n; ++i) urd[i * n + j] = wd[i * n + j] / norm;
    } else {
      sigma[j] = 0.0;
      zero_cols.push_back(j);
    }
  }
  // Rank deficiency: complete U_r to an orthonormal basis (Gram-Schmidt of
  // unit vectors against the existing columns).
  for (int64_t j : zero_cols) {
    for (int64_t cand = 0; cand < n; ++cand) {
      std::vector<double> unit(n, 0.0);
      unit[cand] = 1.0;
      // Project out every already-filled column (unfilled ones are zero
      // vectors and contribute nothing).
      for (int64_t c = 0; c < n; ++c) {
        double dot = 0;
        for (int64_t i = 0; i < n; ++i) dot += urd[i * n + c] * unit[i];
        for (int64_t i = 0; i < n; ++i) unit[i] -= dot * urd[i * n + c];
      }
      double norm = 0;
      for (double x : unit) norm += x * x;
      norm = std::sqrt(norm);
      if (norm > 1e-6) {
        for (int64_t i = 0; i < n; ++i) urd[i * n + j] = unit[i] / norm;
        break;
      }
    }
  }
  // Sort singular values descending, permuting U_r and V columns.
  std::vector<int64_t> order(n);
  for (int64_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](int64_t x, int64_t y) { return sigma[x] > sigma[y]; });
  NDArray ur_sorted = NDArray::Zeros({n, n});
  NDArray v_sorted = NDArray::Zeros({n, n});
  double* ursd = ur_sorted.mutable_data().data();
  double* vsd = v_sorted.mutable_data().data();
  std::vector<double> s_sorted(n);
  for (int64_t j = 0; j < n; ++j) {
    s_sorted[j] = sigma[order[j]];
    for (int64_t i = 0; i < n; ++i) {
      ursd[i * n + j] = urd[i * n + order[j]];
      vsd[i * n + j] = vd[i * n + order[j]];
    }
  }
  XORBITS_ASSIGN_OR_RETURN(NDArray uu, MatMul(q, ur_sorted));
  XORBITS_ASSIGN_OR_RETURN(NDArray vvt, Transpose(v_sorted));
  XORBITS_ASSIGN_OR_RETURN(NDArray ss, NDArray::Make(std::move(s_sorted),
                                                     {n}));
  *u = std::move(uu);
  *s = std::move(ss);
  *vt = std::move(vvt);
  return Status::OK();
}

double SumAll(const NDArray& a) {
  const double* d = a.data().data();
  const int64_t n = static_cast<int64_t>(a.data().size());
  return ParallelReduce(
      0, n, ReduceGrain(n), 0.0,
      [&](int64_t lo, int64_t hi) {
        double s = 0;
        for (int64_t i = lo; i < hi; ++i) s += d[i];
        return s;
      },
      [](double x, double y) { return x + y; });
}

double MaxAbs(const NDArray& a) {
  const double* d = a.data().data();
  const int64_t n = static_cast<int64_t>(a.data().size());
  return ParallelReduce(
      0, n, ReduceGrain(n), 0.0,
      [&](int64_t lo, int64_t hi) {
        double s = 0;
        for (int64_t i = lo; i < hi; ++i) s = std::max(s, std::fabs(d[i]));
        return s;
      },
      [](double x, double y) { return std::max(x, y); });
}

double Norm(const NDArray& a) {
  const double* d = a.data().data();
  const int64_t n = static_cast<int64_t>(a.data().size());
  const double s = ParallelReduce(
      0, n, ReduceGrain(n), 0.0,
      [&](int64_t lo, int64_t hi) {
        double p = 0;
        for (int64_t i = lo; i < hi; ++i) p += d[i] * d[i];
        return p;
      },
      [](double x, double y) { return x + y; });
  return std::sqrt(s);
}

Result<NDArray> VStack(const std::vector<const NDArray*>& pieces) {
  if (pieces.empty()) return Status::Invalid("VStack of zero arrays");
  const int64_t c = pieces[0]->cols();
  const int nd = pieces[0]->ndim();
  int64_t total_rows = 0;
  for (const NDArray* p : pieces) {
    if (p->cols() != c || p->ndim() != nd) {
      return Status::Invalid("VStack column/rank mismatch");
    }
    total_rows += p->rows();
  }
  std::vector<double> data;
  data.reserve(total_rows * c);
  for (const NDArray* p : pieces) {
    data.insert(data.end(), p->data().begin(), p->data().end());
  }
  std::vector<int64_t> shape =
      nd == 1 ? std::vector<int64_t>{total_rows}
              : std::vector<int64_t>{total_rows, c};
  return NDArray::Make(std::move(data), std::move(shape));
}

Result<NDArray> HStack(const std::vector<const NDArray*>& pieces) {
  if (pieces.empty()) return Status::Invalid("HStack of zero arrays");
  const int64_t m = pieces[0]->rows();
  int64_t total_cols = 0;
  for (const NDArray* p : pieces) {
    if (p->ndim() != 2 || p->rows() != m) {
      return Status::Invalid("HStack requires rank-2 arrays of equal rows");
    }
    total_cols += p->cols();
  }
  NDArray out = NDArray::Zeros({m, total_cols});
  double* od = out.mutable_data().data();
  int64_t off = 0;
  for (const NDArray* p : pieces) {
    const double* pd = p->data().data();
    const int64_t pc = p->cols();
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = 0; j < pc; ++j) {
        od[i * total_cols + off + j] = pd[i * pc + j];
      }
    }
    off += pc;
  }
  return out;
}

Result<double> MaxAbsDiff(const NDArray& a, const NDArray& b) {
  XORBITS_RETURN_NOT_OK(CheckSameShape(a, b, "MaxAbsDiff"));
  const double* ad = a.data().data();
  const double* bd = b.data().data();
  const int64_t n = static_cast<int64_t>(a.data().size());
  double s = ParallelReduce(
      0, n, ReduceGrain(n), 0.0,
      [&](int64_t lo, int64_t hi) {
        double p = 0;
        for (int64_t i = lo; i < hi; ++i) {
          p = std::max(p, std::fabs(ad[i] - bd[i]));
        }
        return p;
      },
      [](double x, double y) { return std::max(x, y); });
  return s;
}

}  // namespace xorbits::tensor
