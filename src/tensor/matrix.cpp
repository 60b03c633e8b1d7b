#include "tensor/matrix.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

// No fused multiply-add anywhere in this file: `acc += a * b` must round
// the product and the sum separately, on every clone target, whatever
// flags the file is built with.
#if defined(__clang__)
#pragma clang fp contract(off)
#elif defined(__GNUC__)
#pragma GCC optimize("fp-contract=off")
#endif

namespace ts {

namespace {

/// Adds a[0..R)[0..k) * b[0..k)[0..W) onto out[0..R)[0..W), holding the
/// R×W output tile in registers across the whole k loop (a has row stride
/// k; b and out have row stride n). Every element starts from its current
/// `out` value and adds the products for p ascending: the same
/// per-element sum, in the same order, as the naive ikj loop. The zero-A
/// skip is deliberately absent: adding a zero product is the identity
/// unless the running sum is -0 or B is not finite, and no caller's sum
/// can be -0 (it starts at +0, and sums from +0 never produce -0), while
/// gathered rows are half zeros after ReLU, which makes the branch
/// mispredict.
template <std::size_t R, std::size_t W>
[[gnu::always_inline]] inline void tile(const float* a, const float* b,
                                        std::size_t k, std::size_t n,
                                        float* out) {
  float acc[R][W];
  for (std::size_t r = 0; r < R; ++r)
    for (std::size_t w = 0; w < W; ++w) acc[r][w] = out[r * n + w];
  for (std::size_t p = 0; p < k; ++p) {
    const float* brow = b + p * n;
    for (std::size_t r = 0; r < R; ++r) {
      const float av = a[r * k + p];
      for (std::size_t w = 0; w < W; ++w) acc[r][w] += av * brow[w];
    }
  }
  for (std::size_t r = 0; r < R; ++r)
    for (std::size_t w = 0; w < W; ++w) out[r * n + w] = acc[r][w];
}

// The hot host kernels are compiled for AVX-512F, AVX2 and the baseline
// target, and the loader picks one per CPU. AVX-512F implies FMA, so
// contraction of `acc += av * b` into a fused multiply-add, which rounds
// once instead of twice, is switched off for this file at the top.
// ThreadSanitizer builds keep only the baseline target: GCC's clone
// resolver runs before the sanitizer's runtime is up and crashes every
// binary that links this file before main. The clones compute the same
// bits, so those builds test the same results.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__SANITIZE_THREAD__)
#define TS_HOST_CLONES \
  __attribute__((target_clones("avx512f", "avx2", "default")))
#else
#define TS_HOST_CLONES
#endif

}  // namespace

// The loop auto-vectorizes.
TS_HOST_CLONES
void fp16_round_all(float* data, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) data[i] = fp16_round(data[i]);
}

void int8_round_all(float* data, std::size_t n, float amax) {
  if (amax == 0.0f) return;
  const float scale = amax / 127.0f;
  for (std::size_t i = 0; i < n; ++i) {
    const float q = std::round(data[i] / scale);
    data[i] = std::clamp(q, -127.0f, 127.0f) * scale;
  }
}

// Each 32-column panel of b is swept over the rows in 6×32 register
// tiles, so the panel stays in L1 while 6 rows reuse every b load. The
// n mod 32 column tail runs one row at a time in panels of 16/4, then
// 3/2/1.
TS_HOST_CLONES
void mm_rows(const float* a, const float* b, float* out, std::size_t k,
             std::size_t n, std::size_t r0, std::size_t r1) {
  constexpr std::size_t kTileRows = 6;
  std::size_t j = 0;
  for (; j + 32 <= n; j += 32) {
    std::size_t i = r0;
    for (; i + kTileRows <= r1; i += kTileRows)
      tile<kTileRows, 32>(a + i * k, b + j, k, n, out + i * n + j);
    for (; i < r1; ++i) tile<1, 32>(a + i * k, b + j, k, n, out + i * n + j);
  }
  // `j < n` stays in the loop condition: as an early return it made GCC
  // 12 compile this tail 2-3x slower.
  for (std::size_t i = r0; i < r1 && j < n; ++i) {
    const float* arow = a + i * k;
    float* orow = out + i * n;
    std::size_t c = j;
    if (c + 16 <= n) {
      tile<1, 16>(arow, b + c, k, n, orow + c);
      c += 16;
    }
    for (; c + 4 <= n; c += 4) tile<1, 4>(arow, b + c, k, n, orow + c);
    switch (n - c) {
      case 3:
        tile<1, 3>(arow, b + c, k, n, orow + c);
        break;
      case 2:
        tile<1, 2>(arow, b + c, k, n, orow + c);
        break;
      case 1:
        tile<1, 1>(arow, b + c, k, n, orow + c);
        break;
      default:
        break;
    }
  }
}

#undef TS_HOST_CLONES

namespace {

std::string shape(const Matrix& x) {
  return "[" + std::to_string(x.rows()) + "," + std::to_string(x.cols()) +
         "]";
}

/// Always-on GEMM shape contract: the kernel reads a, b and out by their
/// shapes, so a mismatch would read past the buffers.
void check_inner(const char* fn, const Matrix& a, const Matrix& b) {
  if (a.cols() != b.rows())
    throw std::invalid_argument(std::string(fn) + ": a is " + shape(a) +
                                " but b is " + shape(b) +
                                " (a.cols != b.rows)");
}

}  // namespace

void Matrix::quantize(Precision p) {
  switch (p) {
    case Precision::kFP32:
      return;
    case Precision::kFP16:
      fp16_round_all(data_.data(), data_.size());
      return;
    case Precision::kINT8:
      int8_round_all(data_.data(), data_.size(), abs_max());
      return;
  }
}

float Matrix::abs_max() const {
  float m = 0.0f;
  for (float v : data_) m = std::max(m, std::fabs(v));
  return m;
}

void mm(const Matrix& a, const Matrix& b, Matrix& out) {
  check_inner("ts::mm", a, b);
  out.resize(a.rows(), b.cols());
  mm_accumulate(a, b, out);
}

void mm_accumulate(const Matrix& a, const Matrix& b, Matrix& out) {
  check_inner("ts::mm_accumulate", a, b);
  if (out.rows() != a.rows() || out.cols() != b.cols())
    throw std::invalid_argument("ts::mm_accumulate: out is " + shape(out) +
                                " but a * b is [" + std::to_string(a.rows()) +
                                "," + std::to_string(b.cols()) + "]");
  mm_rows(a.data(), b.data(), out.data(), a.cols(), b.cols(), 0, a.rows());
}

void bmm(const std::vector<Matrix>& as, const std::vector<Matrix>& bs,
         std::vector<Matrix>& outs) {
  if (as.size() != bs.size())
    throw std::invalid_argument("ts::bmm: " + std::to_string(as.size()) +
                                " a matrices but " +
                                std::to_string(bs.size()) + " b matrices");
  for (std::size_t i = 0; i < as.size(); ++i) {
    if (as[i].rows() != as[0].rows() || as[i].cols() != as[0].cols() ||
        bs[i].rows() != bs[0].rows() || bs[i].cols() != bs[0].cols())
      throw std::invalid_argument(
          "ts::bmm: problem " + std::to_string(i) + " is " + shape(as[i]) +
          " * " + shape(bs[i]) + " but problem 0 is " + shape(as[0]) +
          " * " + shape(bs[0]));
    check_inner("ts::bmm", as[i], bs[i]);
  }
  outs.resize(as.size());
  for (std::size_t i = 0; i < as.size(); ++i) mm(as[i], bs[i], outs[i]);
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
