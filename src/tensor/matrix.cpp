#include "tensor/matrix.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <thread>
#include <vector>

namespace ts {

namespace {

/// Adds arow[0..k) * b[0..k)[0..W) onto orow[0..W) (b has row stride n),
/// holding the W-column panel in registers across the whole k loop. Every
/// element starts from its current `orow` value and adds the products for
/// p ascending: the same per-element sum, in the same order, as the naive
/// ikj loop. The zero-A skip is deliberately absent: adding a zero product
/// is the identity unless the running sum is -0 or B is not finite, and
/// no caller's sum can be -0 (it starts at +0, and sums from +0 never
/// produce -0), while gathered rows are half zeros after ReLU, which makes
/// the branch mispredict.
template <std::size_t W>
[[gnu::always_inline]] inline void row_panel(const float* arow,
                                             const float* b, std::size_t k,
                                             std::size_t n, float* orow) {
  float acc[W] = {};
  for (std::size_t w = 0; w < W; ++w) acc[w] = orow[w];
  for (std::size_t p = 0; p < k; ++p) {
    const float av = arow[p];
    const float* brow = b + p * n;
    for (std::size_t w = 0; w < W; ++w) acc[w] += av * brow[w];
  }
  for (std::size_t w = 0; w < W; ++w) orow[w] = acc[w];
}

// The hot host kernels are compiled twice, for AVX2 and for the baseline
// target, and the loader picks one per CPU. AVX2 does not include FMA, so
// the clone cannot contract `acc += av * b` into a fused multiply-add,
// which would round differently.
#if defined(__x86_64__) && defined(__GNUC__)
#define TS_HOST_CLONES __attribute__((target_clones("avx2", "default")))
#else
#define TS_HOST_CLONES
#endif

/// Rounds data[0..n) to binary16 in place; the loop auto-vectorizes.
TS_HOST_CLONES
void fp16_round_all(float* data, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) data[i] = fp16_round(data[i]);
}

/// Row-range worker for the GEMM: out[r0..r1) += a[r0..r1) * b, one output
/// row at a time in column panels of 32/16/4, then 3/2/1. Each worker owns
/// a disjoint slice of output rows, so the parallel result is bitwise
/// identical to the sequential one.
TS_HOST_CLONES
void mm_rows(const float* a, const float* b, float* out, std::size_t k,
             std::size_t n, std::size_t r0, std::size_t r1) {
  for (std::size_t i = r0; i < r1; ++i) {
    const float* arow = a + i * k;
    float* orow = out + i * n;
    std::size_t j = 0;
    for (; j + 32 <= n; j += 32) row_panel<32>(arow, b + j, k, n, orow + j);
    if (j + 16 <= n) {
      row_panel<16>(arow, b + j, k, n, orow + j);
      j += 16;
    }
    for (; j + 4 <= n; j += 4) row_panel<4>(arow, b + j, k, n, orow + j);
    switch (n - j) {
      case 3:
        row_panel<3>(arow, b + j, k, n, orow + j);
        break;
      case 2:
        row_panel<2>(arow, b + j, k, n, orow + j);
        break;
      case 1:
        row_panel<1>(arow, b + j, k, n, orow + j);
        break;
      default:
        break;
    }
  }
}

#undef TS_HOST_CLONES

}  // namespace

void Matrix::quantize(Precision p) {
  switch (p) {
    case Precision::kFP32:
      return;
    case Precision::kFP16:
      fp16_round_all(data_.data(), data_.size());
      return;
    case Precision::kINT8: {
      const float amax = abs_max();
      if (amax == 0.0f) return;
      const float scale = amax / 127.0f;
      for (float& v : data_) {
        const float q = std::round(v / scale);
        v = std::clamp(q, -127.0f, 127.0f) * scale;
      }
      return;
    }
  }
}

float Matrix::abs_max() const {
  float m = 0.0f;
  for (float v : data_) m = std::max(m, std::fabs(v));
  return m;
}

void mm(const Matrix& a, const Matrix& b, Matrix& out) {
  out.resize(a.rows(), b.cols());
  mm_accumulate(a, b, out);
}

void mm_accumulate(const Matrix& a, const Matrix& b, Matrix& out) {
  assert(a.cols() == b.rows());
  assert(out.rows() == a.rows() && out.cols() == b.cols());
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();

  // Parallelize across disjoint output-row slices for large problems;
  // results are bitwise identical to the sequential path.
  const double work = static_cast<double>(m) * static_cast<double>(k) *
                      static_cast<double>(n);
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t threads =
      work > 3e7 ? std::min<std::size_t>(hw, 16) : 1;
  if (threads <= 1 || m < 2 * threads) {
    mm_rows(a.data(), b.data(), out.data(), k, n, 0, m);
    return;
  }
  std::vector<std::thread> pool;
  pool.reserve(threads);
  const std::size_t chunk = (m + threads - 1) / threads;
  for (std::size_t t = 0; t < threads; ++t) {
    const std::size_t r0 = t * chunk;
    const std::size_t r1 = std::min(m, r0 + chunk);
    if (r0 >= r1) break;
    pool.emplace_back([&, r0, r1] {
      mm_rows(a.data(), b.data(), out.data(), k, n, r0, r1);
    });
  }
  for (std::thread& th : pool) th.join();
}

void bmm(const std::vector<Matrix>& as, const std::vector<Matrix>& bs,
         std::vector<Matrix>& outs) {
  assert(as.size() == bs.size());
  outs.resize(as.size());
  for (std::size_t i = 0; i < as.size(); ++i) {
    assert(as[i].rows() == as[0].rows() && as[i].cols() == as[0].cols());
    assert(bs[i].rows() == bs[0].rows() && bs[i].cols() == bs[0].cols());
    mm(as[i], bs[i], outs[i]);
  }
}

Matrix pad_rows(const Matrix& a, std::size_t rows) {
  assert(rows >= a.rows());
  Matrix out(rows, a.cols());
  std::copy(a.data(), a.data() + a.size(), out.data());
  return out;
}

Matrix transpose(const Matrix& a) {
  Matrix out(a.cols(), a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j) out.at(j, i) = a.at(i, j);
  return out;
}

float max_abs_diff(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols())
    return std::numeric_limits<float>::infinity();
  float m = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i)
    m = std::max(m, std::fabs(a.data()[i] - b.data()[i]));
  return m;
}

}  // namespace ts
