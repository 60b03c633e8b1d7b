// Dense matrix substrate tests: blocked GEMM vs naive reference, batched
// GEMM, padding, quantization.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>
#include <tuple>

#include "tensor/matrix.hpp"

namespace ts {
namespace {

Matrix random_matrix(std::size_t r, std::size_t c, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  Matrix m(r, c);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = dist(rng);
  return m;
}

/// out += a * b in the reference order: each element starts from its
/// current value and adds a(i,k) * b(k,j) for k ascending.
void naive_mm_accumulate(const Matrix& a, const Matrix& b, Matrix& out) {
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < b.cols(); ++j) {
      float acc = out.at(i, j);
      for (std::size_t k = 0; k < a.cols(); ++k)
        acc += a.at(i, k) * b.at(k, j);
      out.at(i, j) = acc;
    }
}

Matrix naive_mm(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  naive_mm_accumulate(a, b, out);
  return out;
}

/// Random [-1,1) matrix with about half its entries exactly zero, like a
/// gathered feature matrix after ReLU.
Matrix half_zero_matrix(std::size_t r, std::size_t c, uint64_t seed) {
  Matrix m = random_matrix(r, c, seed);
  std::mt19937_64 rng(seed ^ 0x5a5a5a5aull);
  for (std::size_t i = 0; i < m.size(); ++i)
    if (rng() & 1u) m.data()[i] = 0.0f;
  return m;
}

bool same_bits(const Matrix& x, const Matrix& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
}

TEST(Matrix, ConstructionAndAccess) {
  Matrix m(3, 4, 2.5f);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.at(2, 3), 2.5f);
  m.at(1, 2) = -1.0f;
  EXPECT_EQ(m.row(1)[2], -1.0f);
}

TEST(Matrix, EmptyMatmul) {
  Matrix a(0, 8), b(8, 4), out;
  mm(a, b, out);
  EXPECT_EQ(out.rows(), 0u);
  EXPECT_EQ(out.cols(), 4u);
}

class MatmulShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MatmulShapes, BlockedMatchesNaive) {
  const auto [m, k, n] = GetParam();
  const Matrix a = random_matrix(m, k, 10 + m);
  const Matrix b = random_matrix(k, n, 20 + n);
  Matrix out;
  mm(a, b, out);
  const Matrix ref = naive_mm(a, b);
  EXPECT_LT(max_abs_diff(out, ref), 1e-4f) << m << "x" << k << "x" << n;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MatmulShapes,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(7, 3, 5),
                      std::make_tuple(64, 64, 64),
                      std::make_tuple(65, 63, 1),
                      std::make_tuple(100, 17, 129),
                      std::make_tuple(1, 128, 256),
                      std::make_tuple(200, 65, 33)));

// The GEMM must reproduce the naive per-element summation order bit for
// bit on every column-panel remainder (32/16/4, then 3/2/1), with half
// of A zero, both overwriting (mm) and accumulating onto nonzero values
// (mm_accumulate).
class MatmulBitExact : public ::testing::TestWithParam<int> {};

TEST_P(MatmulBitExact, MmMatchesNaiveOrder) {
  const auto n = static_cast<std::size_t>(GetParam());
  for (std::size_t k : {1u, 7u, 48u}) {
    const Matrix a = half_zero_matrix(37, k, 100 + n + k);
    const Matrix b = random_matrix(k, n, 200 + n + k);
    Matrix out;
    mm(a, b, out);
    EXPECT_TRUE(same_bits(out, naive_mm(a, b))) << "k=" << k << " n=" << n;
  }
}

TEST_P(MatmulBitExact, AccumulateMatchesNaiveOrder) {
  const auto n = static_cast<std::size_t>(GetParam());
  const Matrix a = half_zero_matrix(29, 48, 300 + n);
  const Matrix b = random_matrix(48, n, 400 + n);
  const Matrix start = random_matrix(29, n, 500 + n);
  Matrix out = start, ref = start;
  mm_accumulate(a, b, out);
  naive_mm_accumulate(a, b, ref);
  EXPECT_TRUE(same_bits(out, ref)) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(PanelRemainders, MatmulBitExact,
                         ::testing::Values(1, 2, 3, 4, 5, 16, 19, 31, 32, 33,
                                           48, 64, 128, 129));

TEST(Matrix, ThreadedMmMatchesNaiveOrder) {
  // Large enough (m*k*n > 3e7) to take the row-sliced threaded path.
  const Matrix a = half_zero_matrix(1900, 128, 600);
  const Matrix b = random_matrix(128, 129, 601);
  Matrix out;
  mm(a, b, out);
  EXPECT_TRUE(same_bits(out, naive_mm(a, b)));
}

TEST(Matrix, AccumulateAddsToExisting) {
  const Matrix a = random_matrix(9, 5, 1);
  const Matrix b = random_matrix(5, 7, 2);
  Matrix out(9, 7, 1.0f);
  mm_accumulate(a, b, out);
  Matrix ref = naive_mm(a, b);
  for (std::size_t i = 0; i < ref.size(); ++i) ref.data()[i] += 1.0f;
  EXPECT_LT(max_abs_diff(out, ref), 1e-4f);
}

TEST(Matrix, BmmMatchesPerProblemMm) {
  std::vector<Matrix> as, bs, outs;
  for (int i = 0; i < 4; ++i) {
    as.push_back(random_matrix(12, 8, 30 + i));
    bs.push_back(random_matrix(8, 6, 40 + i));
  }
  bmm(as, bs, outs);
  ASSERT_EQ(outs.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    Matrix ref;
    mm(as[i], bs[i], ref);
    EXPECT_EQ(max_abs_diff(outs[i], ref), 0.0f);
  }
}

TEST(Matrix, PadRowsAppendsZeros) {
  const Matrix a = random_matrix(3, 4, 5);
  const Matrix p = pad_rows(a, 6);
  EXPECT_EQ(p.rows(), 6u);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 4; ++j) EXPECT_EQ(p.at(i, j), a.at(i, j));
  for (std::size_t i = 3; i < 6; ++i)
    for (std::size_t j = 0; j < 4; ++j) EXPECT_EQ(p.at(i, j), 0.0f);
}

TEST(Matrix, PaddedBmmEqualsUnpaddedResults) {
  // Property behind Fig. 6: padding adds zero rows, which contribute
  // nothing — grouped results must equal separate results exactly.
  const Matrix a1 = random_matrix(5, 8, 1), a2 = random_matrix(9, 8, 2);
  const Matrix w = random_matrix(8, 3, 3);
  std::vector<Matrix> outs;
  bmm({pad_rows(a1, 9), a2}, {w, w}, outs);
  Matrix r1;
  mm(a1, w, r1);
  for (std::size_t i = 0; i < 5; ++i)
    for (std::size_t j = 0; j < 3; ++j)
      EXPECT_EQ(outs[0].at(i, j), r1.at(i, j));
  for (std::size_t i = 5; i < 9; ++i)
    for (std::size_t j = 0; j < 3; ++j) EXPECT_EQ(outs[0].at(i, j), 0.0f);
}

TEST(Matrix, TransposeInvolution) {
  const Matrix a = random_matrix(11, 7, 9);
  EXPECT_EQ(transpose(transpose(a)), a);
  EXPECT_EQ(transpose(a).at(3, 5), a.at(5, 3));
}

TEST(Matrix, QuantizeFp32IsIdentity) {
  Matrix a = random_matrix(8, 8, 11);
  const Matrix before = a;
  a.quantize(Precision::kFP32);
  EXPECT_EQ(a, before);
}

TEST(Matrix, QuantizeFp16RoundsEveryElement) {
  Matrix a = random_matrix(16, 16, 12);
  Matrix b = a;
  b.quantize(Precision::kFP16);
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(b.data()[i], fp16_round(a.data()[i]));
}

TEST(Matrix, QuantizeInt8ErrorBounded) {
  Matrix a = random_matrix(32, 32, 13);
  const float amax = a.abs_max();
  Matrix b = a;
  b.quantize(Precision::kINT8);
  // Symmetric 8-bit: error <= scale/2 = amax/254.
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_LE(std::fabs(b.data()[i] - a.data()[i]), amax / 127.0f * 0.5f + 1e-6f);
}

TEST(Matrix, QuantizeInt8IdempotentOnZero) {
  Matrix a(4, 4);
  a.quantize(Precision::kINT8);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a.data()[i], 0.0f);
}

TEST(Matrix, MaxAbsDiffShapeMismatchIsInfinite) {
  EXPECT_TRUE(std::isinf(max_abs_diff(Matrix(2, 2), Matrix(2, 3))));
}

}  // namespace
}  // namespace ts
