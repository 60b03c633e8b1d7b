// Dense matrix substrate tests: blocked GEMM vs naive reference, batched
// GEMM, padding, quantization, and the host pool the GEMM's row slices
// run on.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "tensor/host_pool.hpp"
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
// bit on every column-panel remainder (32/16/4, then 3/2/1), on every
// row remainder of the 6-row tile, with half of A zero, both overwriting
// (mm) and accumulating onto nonzero values (mm_accumulate). On a host
// with FMA this also fails if the kernel is contracted into fused
// multiply-adds.
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

TEST_P(MatmulBitExact, RowTailsMatchNaiveOrder) {
  // m = 1..13: every remainder of a 6-row tile, two full tiles, and one
  // more row; k up to the 192-deep GEMMs of the segmentation workload.
  const auto n = static_cast<std::size_t>(GetParam());
  for (std::size_t m = 1; m <= 13; ++m)
    for (std::size_t k : {1u, 7u, 128u, 192u}) {
      const uint64_t seed = 1000 * m + 10 * k + n;
      const Matrix a = half_zero_matrix(m, k, seed);
      const Matrix b = random_matrix(k, n, seed + 1);
      Matrix out;
      mm(a, b, out);
      EXPECT_TRUE(same_bits(out, naive_mm(a, b)))
          << "mm m=" << m << " k=" << k << " n=" << n;
      const Matrix start = random_matrix(m, n, seed + 2);
      Matrix acc = start, ref = start;
      mm_accumulate(a, b, acc);
      naive_mm_accumulate(a, b, ref);
      EXPECT_TRUE(same_bits(acc, ref))
          << "mm_accumulate m=" << m << " k=" << k << " n=" << n;
    }
}

/// Random matrix whose entries are drawn from ±0, ±Inf, subnormals and
/// ordinary [-1,1) values.
Matrix special_matrix(std::size_t r, std::size_t c, uint64_t seed) {
  const float inf = std::numeric_limits<float>::infinity();
  const float tiny = std::numeric_limits<float>::denorm_min();
  const float sub = std::numeric_limits<float>::min() / 3.0f;
  const float pool[] = {0.0f, -0.0f, inf, -inf, tiny, -tiny, sub, -sub};
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  Matrix m(r, c);
  for (std::size_t i = 0; i < m.size(); ++i)
    m.data()[i] = rng() % 4 == 0 ? pool[rng() % std::size(pool)] : dist(rng);
  return m;
}

/// Bitwise equality, except that a NaN only has to meet a NaN: the
/// compiler may commute `acc + a * b`, which moves a NaN payload.
void expect_same_bits_or_both_nan(const Matrix& x, const Matrix& ref,
                                  const std::string& what) {
  ASSERT_EQ(x.rows(), ref.rows());
  ASSERT_EQ(x.cols(), ref.cols());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const float got = x.data()[i], want = ref.data()[i];
    if (std::isnan(want)) {
      EXPECT_TRUE(std::isnan(got)) << what << " element " << i;
    } else {
      EXPECT_EQ(std::memcmp(&got, &want, sizeof(float)), 0)
          << what << " element " << i << ": " << got << " vs " << want;
    }
  }
}

TEST_P(MatmulBitExact, SpecialValuesMatchNaive) {
  const auto n = static_cast<std::size_t>(GetParam());
  for (std::size_t m : {5u, 13u}) {
    const uint64_t seed = 7000 + 100 * m + n;
    const Matrix a = special_matrix(m, 40, seed);
    const Matrix b = special_matrix(40, n, seed + 1);
    Matrix out;
    mm(a, b, out);
    expect_same_bits_or_both_nan(out, naive_mm(a, b),
                                 "mm m=" + std::to_string(m));
    const Matrix start = special_matrix(m, n, seed + 2);
    Matrix acc = start, ref = start;
    mm_accumulate(a, b, acc);
    naive_mm_accumulate(a, b, ref);
    expect_same_bits_or_both_nan(acc, ref,
                                 "mm_accumulate m=" + std::to_string(m));
  }
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

TEST(Matrix, ConcurrentThreadedMmMatchesNaiveOrder) {
  // Two callers on the threaded path at once: one holds the pool, the
  // other runs its slices inline; both results stay bit-exact.
  const Matrix a = half_zero_matrix(1900, 128, 610);
  const Matrix b = random_matrix(128, 129, 611);
  const Matrix want = naive_mm(a, b);
  std::atomic<bool> go{false};
  bool same[2] = {false, false};
  std::vector<std::thread> callers;
  for (int t = 0; t < 2; ++t)
    callers.emplace_back([&, t] {
      while (!go.load()) std::this_thread::yield();
      bool ok = true;
      for (int rep = 0; rep < 4; ++rep) {
        Matrix out;
        mm(a, b, out);
        ok = ok && same_bits(out, want);
      }
      same[t] = ok;
    });
  go.store(true);
  for (std::thread& c : callers) c.join();
  EXPECT_TRUE(same[0]);
  EXPECT_TRUE(same[1]);
}

TEST(Matrix, MismatchedShapesThrow) {
  // The shape contract holds in every build type: the kernel would read
  // past the buffers otherwise.
  const Matrix a(4, 3), b(5, 2), b_ok(3, 2);
  Matrix out;
  EXPECT_THROW(mm(a, b, out), std::invalid_argument);
  Matrix wrong_rows(5, 2), wrong_cols(4, 3);
  EXPECT_THROW(mm_accumulate(a, b, wrong_rows), std::invalid_argument);
  EXPECT_THROW(mm_accumulate(a, b_ok, wrong_rows), std::invalid_argument);
  EXPECT_THROW(mm_accumulate(a, b_ok, wrong_cols), std::invalid_argument);
  EXPECT_EQ(wrong_cols, Matrix(4, 3));  // untouched on throw

  std::vector<Matrix> outs;
  EXPECT_THROW(bmm({a, a}, {b_ok}, outs), std::invalid_argument);
  EXPECT_THROW(bmm({a, Matrix(4, 5)}, {b_ok, b}, outs),
               std::invalid_argument);
  EXPECT_THROW(bmm({a}, {b}, outs), std::invalid_argument);
  EXPECT_TRUE(outs.empty());
  bmm({a, a}, {b_ok, b_ok}, outs);
  EXPECT_EQ(outs.size(), 2u);
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

// --- The host pool (tensor/host_pool.hpp). ---

/// Runs `parts` partitions that count their calls; every count must be 1.
void expect_each_partition_once(std::size_t parts, bool runner) {
  std::vector<std::atomic<int>> calls(parts);
  auto count = [&](std::size_t p) { calls[p].fetch_add(1); };
  if (runner) {
    PoolRunner pool;
    pool.start(parts, count);
    pool.join();
  } else {
    run_partitions(parts, count);
  }
  for (std::size_t p = 0; p < parts; ++p)
    EXPECT_EQ(calls[p].load(), 1) << "partition " << p << " of " << parts;
}

TEST(HostPool, RunsEveryPartitionOnce) {
  EXPECT_GE(host_parallelism(), 1u);
  for (std::size_t parts : {0u, 1u, 2u, 3u, 7u, 64u, 1000u}) {
    expect_each_partition_once(parts, false);
    expect_each_partition_once(parts, true);
  }
}

TEST(HostPool, RethrowsTheLowestThrowingPartition) {
  auto fail = [](std::size_t p) {
    if (p == 2 || p == 5) throw std::runtime_error("p" + std::to_string(p));
  };
  for (int rep = 0; rep < 20; ++rep) {
    try {
      run_partitions(8, fail);
      ADD_FAILURE() << "run_partitions did not throw";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "p2");
    }
    try {
      PoolRunner pool;
      pool.start(8, fail);
      pool.join();
      ADD_FAILURE() << "PoolRunner did not throw";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "p2");
    }
  }
  // The pool is free again: a later job runs normally.
  expect_each_partition_once(8, false);
}

TEST(HostPool, NestedJobRunsInline) {
  std::atomic<int> inner{0};
  auto outer = [&](std::size_t) {
    auto leaf = [&](std::size_t) { inner.fetch_add(1); };
    run_partitions(3, leaf);
  };
  run_partitions(4, outer);
  EXPECT_EQ(inner.load(), 12);
}

TEST(HostPool, CallerWorksBetweenStartAndJoin) {
  std::vector<int> seen(6, 0);
  auto mark = [&](std::size_t p) { seen[p] = static_cast<int>(p) + 1; };
  PoolRunner pool;
  pool.start(seen.size(), mark);
  long local = 0;
  for (int i = 0; i < 100000; ++i) local += i % 7;
  pool.join();
  EXPECT_EQ(local, 299995L);  // 14285 cycles of 0..6, then 0..4
  for (std::size_t p = 0; p < seen.size(); ++p)
    EXPECT_EQ(seen[p], static_cast<int>(p) + 1);
}

TEST(HostPool, ConcurrentCallersEachGetEveryPartition) {
  std::atomic<bool> go{false};
  std::atomic<int> bad{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 3; ++t)
    callers.emplace_back([&] {
      while (!go.load()) std::this_thread::yield();
      for (int rep = 0; rep < 200; ++rep) {
        std::vector<int> hits(5, 0);
        auto hit = [&](std::size_t p) { ++hits[p]; };
        run_partitions(hits.size(), hit);
        for (int h : hits) bad.fetch_add(h == 1 ? 0 : 1);
      }
    });
  go.store(true);
  for (std::thread& c : callers) c.join();
  EXPECT_EQ(bad.load(), 0);
}

TEST(HostPool, OneRunnerHoldsThePoolAtATime) {
  PoolRunner first;
  EXPECT_EQ(first.threads(), host_parallelism());
  {
    PoolRunner second;  // made while `first` holds the pool: inline
    EXPECT_EQ(second.threads(), 1u);
    std::vector<int> order;
    auto record = [&](std::size_t p) { order.push_back(static_cast<int>(p)); };
    second.start(4, record);  // runs inside start(), in order
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
    second.join();
  }
  expect_each_partition_once(5, true);  // inline too, while held
  EXPECT_EQ(first.threads(), host_parallelism());
}

TEST(HostPool, ConcurrentCallerScopesRunJobsInline) {
  {
    const ConcurrentCallerScope one;
    PoolRunner run;  // one scope: the pool is available
    EXPECT_EQ(run.threads(), host_parallelism());
  }
  {
    const ConcurrentCallerScope one, two;
    PoolRunner run;  // two scopes: their threads already use the cores
    EXPECT_EQ(run.threads(), 1u);
    expect_each_partition_once(6, true);
  }
  PoolRunner run;  // every scope closed
  EXPECT_EQ(run.threads(), host_parallelism());
}

TEST(HostPool, RejectsMorePartitionsThanItCanCount) {
  auto nothing = [](std::size_t) {};
  EXPECT_THROW(run_partitions(65536, nothing), std::invalid_argument);
  PoolRunner pool;
  EXPECT_THROW(pool.start(65536, nothing), std::invalid_argument);
}

}  // namespace
}  // namespace ts
