// Dense row-major matrix with register-panel GEMM and padded batched GEMM.
//
// This is the compute substrate under sparse convolution's
// gather-matmul-scatter dataflow (paper §2.2): the gathered feature matrix
// is multiplied with each kernel offset's weight matrix. `mm` stands in for
// cuBLAS/cuDNN GEMM and `bmm` for batched GEMM; both compute identical
// numerics on CPU while the GPU cost model (src/gpusim) accounts for their
// very different device utilization.
#pragma once

#include <cstddef>
#include <vector>

#include "tensor/half.hpp"
#include "tensor/precision.hpp"

namespace ts {

/// Row-major float matrix. Rows are feature vectors; columns are channels.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0f) {}
  Matrix(std::size_t rows, std::size_t cols, float fill)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float* row(std::size_t r) { return data_.data() + r * cols_; }
  const float* row(std::size_t r) const { return data_.data() + r * cols_; }
  float& at(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  float at(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }
  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  void fill(float v) { data_.assign(data_.size(), v); }
  void resize(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, 0.0f);
  }

  /// Quantizes every element in place to the storage precision (round-trip
  /// through binary16 for kFP16; symmetric per-matrix int8 for kINT8).
  /// FP32 is a no-op. Models what living in a lower-precision DRAM buffer
  /// does to the values.
  void quantize(Precision p);

  /// Maximum absolute element (used for int8 scale selection).
  float abs_max() const;

  friend bool operator==(const Matrix& a, const Matrix& b) {
    return a.rows_ == b.rows_ && a.cols_ == b.cols_ && a.data_ == b.data_;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> data_;
};

/// out = a * b. a: [m,k], b: [k,n], out: [m,n] (overwritten).
/// FP32 accumulation; each element sums its k products for p ascending,
/// exactly like the naive ikj loop.
void mm(const Matrix& a, const Matrix& b, Matrix& out);

/// out += a * b.
void mm_accumulate(const Matrix& a, const Matrix& b, Matrix& out);

/// Batched GEMM over equal-shaped problems: outs[i] = as[i] * bs[i].
/// All as must share [m,k] and all bs share [k,n]; in the real system the
/// batch entries are padded to a common row count before the bmm launch
/// (paper Fig. 6c/6d), which callers do via `pad_rows`.
void bmm(const std::vector<Matrix>& as, const std::vector<Matrix>& bs,
         std::vector<Matrix>& outs);

/// Returns a copy of `a` zero-padded to `rows` rows (rows >= a.rows()).
Matrix pad_rows(const Matrix& a, std::size_t rows);

/// out = a^T (swap rows/cols).
Matrix transpose(const Matrix& a);

/// Largest absolute elementwise difference; 0 for identical shapes+values,
/// +inf on shape mismatch.
float max_abs_diff(const Matrix& a, const Matrix& b);

}  // namespace ts
