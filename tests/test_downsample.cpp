// Output coordinate calculation (Alg. 3): staged vs fused equivalence,
// oracle comparison, and the Fig. 10 DRAM-traffic reduction.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <unordered_set>

#include "core/downsample.hpp"
#include "core/kernel_offsets.hpp"
#include "hash/coords.hpp"

namespace ts {
namespace {

std::vector<Coord> random_coords(int n, int extent, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int32_t> d(0, extent);
  std::vector<Coord> coords;
  std::unordered_set<uint64_t> seen;
  while (static_cast<int>(coords.size()) < n) {
    const Coord c{0, d(rng), d(rng), d(rng)};
    if (seen.insert(pack_coord(c)).second) coords.push_back(c);
  }
  return coords;
}

/// Literal Alg. 3 oracle.
std::set<uint64_t> oracle(const std::vector<Coord>& in, int k, int s) {
  Coord lo, hi;
  coord_bounds(in, lo, hi);
  const auto offs = kernel_offsets(k);
  std::set<uint64_t> out;
  for (const Coord& p : in) {
    for (const Offset3& d : offs) {
      const Coord u{p.b, p.x - d.dx, p.y - d.dy, p.z - d.dz};
      auto mod = [s](int32_t v) { return ((v % s) + s) % s == 0; };
      if (!(mod(u.x) && mod(u.y) && mod(u.z))) continue;
      if (u.x < lo.x || u.x > hi.x || u.y < lo.y || u.y > hi.y ||
          u.z < lo.z || u.z > hi.z)
        continue;
      out.insert(pack_coord(Coord{u.b, u.x / s, u.y / s, u.z / s}));
    }
  }
  return out;
}

struct DsCase {
  int n, extent, kernel, stride;
};

class DownsampleOracle : public ::testing::TestWithParam<DsCase> {};

TEST_P(DownsampleOracle, FusedAndStagedMatchOracle) {
  const auto [n, extent, kernel, stride] = GetParam();
  const auto in = random_coords(n, extent, 123 + n);
  const auto expect = oracle(in, kernel, stride);

  for (bool fused : {false, true}) {
    const auto got = downsample_coords(in, kernel, stride, fused, fused);
    std::set<uint64_t> got_keys;
    for (const Coord& c : got) got_keys.insert(pack_coord(c));
    EXPECT_EQ(got_keys, expect) << "fused=" << fused;
    EXPECT_EQ(got.size(), got_keys.size()) << "duplicates in output";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DownsampleOracle,
    ::testing::Values(DsCase{50, 8, 2, 2}, DsCase{200, 16, 2, 2},
                      DsCase{100, 12, 3, 2}, DsCase{80, 10, 3, 3},
                      DsCase{150, 20, 2, 4}, DsCase{1, 1, 2, 2}));

TEST(Downsample, OutputSortedAndDeduplicated) {
  const auto in = random_coords(300, 15, 5);
  const auto out = downsample_coords(in, 2, 2, true, true);
  for (std::size_t i = 1; i < out.size(); ++i)
    EXPECT_LT(pack_coord(out[i - 1]), pack_coord(out[i]));
}

TEST(Downsample, Kernel2Stride2IsFloorDivision) {
  // For K=2, s=2, every input maps to exactly floor(p/2) and nothing else.
  const auto in = random_coords(200, 31, 6);
  const auto out = downsample_coords(in, 2, 2, true, true);
  std::set<uint64_t> expect;
  for (const Coord& p : in)
    expect.insert(pack_coord(Coord{p.b, p.x / 2, p.y / 2, p.z / 2}));
  std::set<uint64_t> got;
  for (const Coord& c : out) got.insert(pack_coord(c));
  EXPECT_EQ(got, expect);
}

TEST(Downsample, FusedEliminatesIntermediateDram) {
  const auto in = random_coords(2000, 40, 7);
  DownsampleCounters staged, fused;
  downsample_coords(in, 3, 2, false, false, &staged);
  downsample_coords(in, 3, 2, true, true, &fused);
  EXPECT_EQ(staged.candidates, fused.candidates);
  EXPECT_EQ(staged.kept, fused.kept);
  // Fig. 10: the staged pipeline round-trips candidates through DRAM
  // several times; the fused kernel reads inputs once and writes keys.
  EXPECT_GT(staged.dram_bytes, 3.0 * fused.dram_bytes);
  EXPECT_GT(staged.kernel_launches, fused.kernel_launches);
}

TEST(Downsample, SimplifiedControlReducesInstructions) {
  const auto in = random_coords(1000, 30, 8);
  DownsampleCounters plain, simplified;
  downsample_coords(in, 2, 2, true, false, &plain);
  downsample_coords(in, 2, 2, true, true, &simplified);
  EXPECT_GT(plain.instr_ops, simplified.instr_ops);
}

TEST(Downsample, StrideMustDividePointsConsistently) {
  // Points on the strided grid survive as themselves divided by s.
  std::vector<Coord> in = {{0, 0, 0, 0}, {0, 4, 4, 4}, {0, 8, 0, 4}};
  const auto out = downsample_coords(in, 2, 2, true, true);
  std::set<uint64_t> got;
  for (const Coord& c : out) got.insert(pack_coord(c));
  EXPECT_TRUE(got.count(pack_coord(Coord{0, 0, 0, 0})));
  EXPECT_TRUE(got.count(pack_coord(Coord{0, 2, 2, 2})));
  EXPECT_TRUE(got.count(pack_coord(Coord{0, 4, 0, 2})));
}

TEST(Downsample, RejectsStrideBelowTwo) {
  // Without the check, stride 0 would divide by zero and a negative
  // stride would return no coordinates.
  const std::vector<Coord> in = {{0, 0, 0, 0}, {0, 4, 4, 4}};
  for (int stride : {1, 0, -2}) {
    for (bool fused : {false, true}) {
      try {
        downsample_coords(in, 2, stride, fused, true);
        FAIL() << "expected std::invalid_argument for stride " << stride;
      } catch (const std::invalid_argument& e) {
        EXPECT_EQ(std::string(e.what()),
                  "downsample_coords: stride must be >= 2 (got " +
                      std::to_string(stride) + ")");
      }
    }
  }
}

}  // namespace
}  // namespace ts
