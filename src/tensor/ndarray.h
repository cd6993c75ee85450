#ifndef XORBITS_TENSOR_NDARRAY_H_
#define XORBITS_TENSOR_NDARRAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/buffer.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"

namespace xorbits::tensor {

/// Dense row-major float64 array, rank 1 or 2 — the single-node "NumPy
/// backend" that tensor chunk kernels execute on. (Rank-2 covers every array
/// workload in the paper: QR, linear regression, elementwise pipelines.)
///
/// Values live in a shared copy-on-write buffer view: copying an array
/// shares the payload, `SliceRows` is an O(1) window, and `mutable_data` /
/// mutable `at` unshare first. Kernels that write element-wise should hoist
/// `mutable_data().data()` once instead of calling mutable `at` per element.
class NDArray {
 public:
  NDArray() = default;

  /// Validates that the shape product matches the data size.
  static Result<NDArray> Make(std::vector<double> data,
                              std::vector<int64_t> shape);
  /// Same, from an existing view: shares the buffer (zero-copy reshape).
  static Result<NDArray> FromView(common::BufferView<double> data,
                                  std::vector<int64_t> shape);
  static NDArray Zeros(std::vector<int64_t> shape);
  static NDArray Full(std::vector<int64_t> shape, double value);
  /// Identity matrix of order n.
  static NDArray Eye(int64_t n);
  static NDArray RandomUniform(std::vector<int64_t> shape, Rng& rng,
                               double lo = 0.0, double hi = 1.0);
  static NDArray RandomNormal(std::vector<int64_t> shape, Rng& rng,
                              double mean = 0.0, double stddev = 1.0);

  const std::vector<int64_t>& shape() const { return shape_; }
  int ndim() const { return static_cast<int>(shape_.size()); }
  int64_t size() const { return data_.ssize(); }
  int64_t nbytes() const { return size() * common::kItemSizeFloat64; }
  int64_t rows() const { return shape_.empty() ? 0 : shape_[0]; }
  int64_t cols() const { return ndim() < 2 ? 1 : shape_[1]; }

  const common::BufferView<double>& data() const { return data_; }
  /// Unshares (copy-on-write) and returns the private backing vector.
  std::vector<double>& mutable_data() { return data_.MutableVec(); }

  /// Appends the underlying buffer for unique-byte storage accounting.
  void AppendBufferRefs(std::vector<common::BufferRef>* out) const {
    data_.AppendRef(out);
  }

  double at(int64_t i) const { return data_[i]; }
  double at(int64_t i, int64_t j) const { return data_[i * cols() + j]; }
  // The mutable forms re-check sharing on every call; fine for touch-ups,
  // wrong for kernels (hoist mutable_data().data() there).
  double& at(int64_t i) { return mutable_data()[i]; }
  double& at(int64_t i, int64_t j) { return mutable_data()[i * cols() + j]; }

  /// Rows [r0, r1) as a new array (rank preserved). O(1): the result is a
  /// window over this array's buffer, no value data is copied.
  NDArray SliceRows(int64_t r0, int64_t r1) const;
  /// Columns [c0, c1) of a rank-2 array.
  Result<NDArray> SliceCols(int64_t c0, int64_t c1) const;

  std::string ShapeString() const;
  std::string ToString(int64_t max_rows = 6) const;

 private:
  NDArray(std::vector<double> data, std::vector<int64_t> shape)
      : data_(common::BufferView<double>(std::move(data))),
        shape_(std::move(shape)) {}
  NDArray(common::BufferView<double> data, std::vector<int64_t> shape)
      : data_(std::move(data)), shape_(std::move(shape)) {}

  common::BufferView<double> data_;
  std::vector<int64_t> shape_;
};

/// Content fingerprint of `a` (its shape and its data's memoized buffer
/// hash), the NDArray counterpart of dataframe::ContentFingerprint. Adds
/// the bytes actually hashed to `*bytes_hashed` when given.
common::Hash128 ContentFingerprint(const NDArray& a,
                                   int64_t* bytes_hashed = nullptr);

// --- elementwise (shapes must match; scalar forms broadcast) ---
Result<NDArray> Add(const NDArray& a, const NDArray& b);
Result<NDArray> Sub(const NDArray& a, const NDArray& b);
Result<NDArray> Mul(const NDArray& a, const NDArray& b);
Result<NDArray> Div(const NDArray& a, const NDArray& b);
NDArray AddScalar(const NDArray& a, double s);
NDArray MulScalar(const NDArray& a, double s);
/// Elementwise natural exponent / square root.
NDArray Exp(const NDArray& a);
NDArray Sqrt(const NDArray& a);

// --- linear algebra ---
/// Blocked matrix multiply; a is (m,k), b is (k,n).
Result<NDArray> MatMul(const NDArray& a, const NDArray& b);
Result<NDArray> Transpose(const NDArray& a);
/// Thin Householder QR of an (m,n) matrix with m >= n: Q is (m,n) with
/// orthonormal columns, R is (n,n) upper triangular, A = Q R.
Status QRDecompose(const NDArray& a, NDArray* q, NDArray* r);
/// Solves A x = b for symmetric positive-definite A via Cholesky.
Result<NDArray> CholeskySolve(const NDArray& a, const NDArray& b);
/// Thin SVD of an (m, n) matrix with m >= n: A = U diag(S) V^T with U
/// (m, n) orthonormal columns, S descending singular values (length n),
/// V^T (n, n). Implemented as QR followed by one-sided Jacobi on R.
Status SVDDecompose(const NDArray& a, NDArray* u, NDArray* s, NDArray* vt);

// --- reductions & assembly ---
double SumAll(const NDArray& a);
double MaxAbs(const NDArray& a);
/// Frobenius norm.
double Norm(const NDArray& a);
Result<NDArray> VStack(const std::vector<const NDArray*>& pieces);
Result<NDArray> HStack(const std::vector<const NDArray*>& pieces);
/// Max elementwise absolute difference, for test assertions.
Result<double> MaxAbsDiff(const NDArray& a, const NDArray& b);

}  // namespace xorbits::tensor

#endif  // XORBITS_TENSOR_NDARRAY_H_
