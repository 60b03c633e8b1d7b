// Output coordinate calculation (Alg. 3): staged vs fused equivalence,
// oracle comparison, the Fig. 10 DRAM-traffic reduction, and the strided
// kernel map the downsample emits against the merge-join's.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <ostream>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <unordered_set>

#include "core/downsample.hpp"
#include "core/kernel_map.hpp"
#include "core/kernel_offsets.hpp"
#include "hash/coords.hpp"

namespace ts {
namespace {

/// `n` distinct random coordinates: spatial axes in [origin, origin +
/// extent] (z in [origin, origin + z_extent] when z_extent >= 0), batch
/// indices drawn from `batches` when it holds more than one.
std::vector<Coord> random_coords(int n, int extent, uint64_t seed,
                                 const std::vector<int32_t>& batches = {0},
                                 int32_t origin = 0, int32_t z_extent = -1) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int32_t> d(0, extent);
  std::uniform_int_distribution<int32_t> dz(0, std::max(z_extent, 0));
  std::uniform_int_distribution<std::size_t> db(0, batches.size() - 1);
  std::vector<Coord> coords;
  std::unordered_set<uint64_t> seen;
  while (static_cast<int>(coords.size()) < n) {
    const int32_t b = batches.size() > 1 ? batches[db(rng)] : batches[0];
    const int32_t x = d(rng), y = d(rng);
    const int32_t z = z_extent >= 0 ? dz(rng) : d(rng);
    const Coord c{b, origin + x, origin + y, origin + z};
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

/// The counters of one case, for the staged (fused = simplified = false)
/// and fused (both true) pipelines.
struct DsPin {
  std::size_t candidates, kept;
  std::size_t staged_launches, fused_launches;
  double staged_dram, fused_dram, staged_instr, fused_instr;
};

struct DsCase {
  int n, extent, kernel, stride;
  std::vector<int32_t> batches = {0};
  int32_t origin = 0;
  int32_t z_extent = -1;
  DsPin pin{};
};

void PrintTo(const DsCase& c, std::ostream* os) {
  *os << "n=" << c.n << " extent=" << c.extent << " k=" << c.kernel
      << " s=" << c.stride << " origin=" << c.origin;
}

class DownsampleOracle : public ::testing::TestWithParam<DsCase> {};

/// Both pipelines return the oracle's keys in ascending order, and their
/// counters equal the pinned constants.
TEST_P(DownsampleOracle, FusedAndStagedMatchOracle) {
  const DsCase& c = GetParam();
  const auto in = random_coords(c.n, c.extent, 123 + c.n, c.batches,
                                c.origin, c.z_extent);
  const auto oracle_keys = oracle(in, c.kernel, c.stride);
  const std::vector<uint64_t> expect(oracle_keys.begin(), oracle_keys.end());

  DownsampleCounters counters[2];
  for (bool fused : {false, true}) {
    const auto got = downsample_coords(in, c.kernel, c.stride, fused, fused,
                                       &counters[fused]);
    std::vector<uint64_t> got_keys;
    got_keys.reserve(got.size());
    for (const Coord& p : got) got_keys.push_back(pack_coord(p));
    EXPECT_EQ(got_keys, expect) << "fused=" << fused;
  }
  const DsPin& pin = c.pin;
  for (const DownsampleCounters& dc : counters) {
    EXPECT_EQ(dc.candidates, pin.candidates);
    EXPECT_EQ(dc.kept, pin.kept);
  }
  EXPECT_EQ(counters[0].kernel_launches, pin.staged_launches);
  EXPECT_EQ(counters[1].kernel_launches, pin.fused_launches);
  EXPECT_EQ(counters[0].dram_bytes, pin.staged_dram);
  EXPECT_EQ(counters[1].dram_bytes, pin.fused_dram);
  EXPECT_EQ(counters[0].instr_ops, pin.staged_instr);
  EXPECT_EQ(counters[1].instr_ops, pin.fused_instr);
}

// The sweep covers every digit a packed key has: negative coordinates,
// several batches (one near kCoordBatchMax, so the top digits vary), the
// edges of the packable range, flat sets whose keys share digits, and
// large sets, at k in {1, 2, 3, 4} and s in {2, 3}.
const std::vector<int32_t> kFourBatches = {0, 1, 2, 3};
const std::vector<int32_t> kFarBatch = {0, 1, 2, 3, kCoordBatchMax - 1};

INSTANTIATE_TEST_SUITE_P(
    Sweep, DownsampleOracle,
    ::testing::Values(
        DsCase{50, 8, 2, 2, {0}, 0, -1,
               {400, 50, 5, 2, 30000, 2800, 14800, 2400}},
        DsCase{200, 16, 2, 2, {0}, 0, -1,
               {1600, 200, 5, 2, 120000, 11200, 59200, 9600}},
        DsCase{100, 12, 3, 2, {0}, 0, -1,
               {2700, 302, 5, 2, 197280, 13680, 99616, 15916}},
        DsCase{80, 10, 3, 3, {0}, 0, -1,
               {2160, 80, 5, 2, 151360, 4480, 78400, 11440}},
        DsCase{150, 20, 2, 4, {0}, 0, -1,
               {1200, 20, 5, 2, 84800, 3200, 43360, 6160}},
        DsCase{1, 1, 2, 2, {0}, 0, -1,
               {8, 0, 5, 2, 560, 16, 288, 40}},
        // Negative coordinates.
        DsCase{3000, 60, 3, 2, {0}, -30, -1,
               {81000, 10144, 5, 2, 5961760, 453760, 2997152, 486152}},
        DsCase{3000, 60, 2, 3, {0}, -31, -1,
               {24000, 861, 5, 2, 1714440, 82440, 870888, 126888}},
        // Batches 0-3, then one near kCoordBatchMax.
        DsCase{4000, 30, 2, 2, kFourBatches, -15, -1,
               {32000, 3640, 5, 2, 2385600, 209600, 1181120, 189120}},
        DsCase{4000, 30, 3, 3, kFarBatch, 0, -1,
               {108000, 4000, 5, 2, 7568000, 224000, 3920000, 572000}},
        DsCase{4000, 30, 3, 2, kFarBatch, -16, -1,
               {108000, 13045, 5, 2, 7929800, 585800, 3992360, 644360}},
        // The edges of the packable range.
        DsCase{3000, 40, 3, 2, {0}, kCoordSpatialMin, -1,
               {81000, 9876, 5, 2, 5951040, 443040, 2995008, 484008}},
        DsCase{3000, 40, 2, 3, kFourBatches, kCoordSpatialMin, -1,
               {24000, 779, 5, 2, 1711160, 79160, 870232, 126232}},
        DsCase{3000, 40, 3, 3, {0}, kCoordSpatialMax - 40, -1,
               {81000, 3000, 5, 2, 5676000, 168000, 2940000, 429000}},
        DsCase{3000, 40, 2, 2, kFarBatch, kCoordSpatialMax - 40, -1,
               {24000, 2766, 5, 2, 1790640, 158640, 886128, 142128}},
        // Flat sets: every key shares its batch and z digits.
        DsCase{2000, 80, 3, 2, {0}, 0, 0,
               {54000, 4458, 5, 2, 3882320, 210320, 1979664, 305664}},
        DsCase{2000, 80, 2, 3, {5}, 6, 1,
               {16000, 909, 5, 2, 1156360, 68360, 583272, 87272}},
        // Large sets.
        DsCase{20000, 70, 3, 2, {0}, -35, -1,
               {540000, 64723, 5, 2, 39628920, 2908920, 19957784, 3217784}},
        DsCase{24000, 50, 2, 3, kFourBatches, -20, -1,
               {192000, 6500, 5, 2, 13700000, 644000, 6964000, 1012000}},
        // k in {1, 4} over negative coordinates: residue classes that
        // hold no offset (k = 1) and an even kernel whose classes hold
        // different numbers of offsets (k = 4).
        DsCase{2100, 40, 1, 2, {0}, -21, -1,
               {2100, 243, 5, 2, 186120, 43320, 77544, 12444}},
        DsCase{2200, 40, 1, 3, kFourBatches, -20, -1,
               {2200, 74, 5, 2, 187760, 38160, 79792, 11592}},
        DsCase{2300, 40, 4, 2, {0}, -19, -1,
               {147200, 15914, 5, 2, 10682960, 673360, 5426512, 863312}},
        DsCase{2400, 40, 4, 3, kFourBatches, -22, -1,
               {153600, 5116, 5, 2, 10687840, 243040, 5570528, 808928}}));

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

TEST(Downsample, RejectsKernelSizeBelowOne) {
  // Without the check, kernel_offsets(-3) asked vector::reserve for a
  // negative volume and threw std::length_error.
  const std::vector<Coord> in = {{0, 0, 0, 0}, {0, 4, 4, 4}};
  for (int kernel : {0, -3}) {
    try {
      downsample_coords(in, kernel, 2, true, true);
      FAIL() << "expected std::invalid_argument for kernel " << kernel;
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()),
                "downsample_coords: kernel_size must be >= 1 (got " +
                    std::to_string(kernel) + ")");
    }
  }
}

enum class SetOrder { kSorted, kShuffled, kDuplicated };

/// `n` coordinates over every digit of a packed key: batches 0-3 and
/// kCoordBatchMax - 1, in dense clusters at the origin and at both ends
/// of the packable range. kSorted is ascending and unique, kShuffled
/// unique in random order, and in kDuplicated about a third of them
/// repeat an earlier coordinate.
std::vector<Coord> spread_coords(int n, SetOrder order, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int32_t> d(-4, 4);
  const int32_t batches[] = {0, 1, 2, 3, kCoordBatchMax - 1};
  const int32_t origins[] = {0, kCoordSpatialMin + 4, kCoordSpatialMax - 4};
  std::vector<Coord> coords;
  std::unordered_set<uint64_t> seen;
  while (static_cast<int>(coords.size()) < n) {
    if (order == SetOrder::kDuplicated && !coords.empty() && rng() % 3 == 0) {
      coords.push_back(coords[rng() % coords.size()]);
      continue;
    }
    const int32_t o = origins[rng() % 3];
    const Coord c{batches[rng() % 5], o + d(rng), o + d(rng), o + d(rng)};
    if (seen.insert(pack_coord(c)).second) coords.push_back(c);
  }
  if (order == SetOrder::kSorted) std::sort(coords.begin(), coords.end());
  return coords;
}

/// Entry for entry, in order, each offset at exact capacity, equal stats.
void expect_same_map(const KernelMap& got, const KernelMap& want) {
  EXPECT_EQ(got.kernel_size, want.kernel_size);
  ASSERT_EQ(got.maps.size(), want.maps.size());
  for (std::size_t n = 0; n < got.maps.size(); ++n) {
    ASSERT_EQ(got.maps[n], want.maps[n]) << "offset " << n;
    EXPECT_EQ(got.maps[n].capacity(), got.maps[n].size()) << "offset " << n;
    EXPECT_EQ(want.maps[n].capacity(), want.maps[n].size()) << "offset " << n;
  }
  EXPECT_EQ(got.stats.queries, want.stats.queries);
  EXPECT_EQ(got.stats.index_accesses, want.stats.index_accesses);
  EXPECT_EQ(got.stats.build_accesses, want.stats.build_accesses);
  EXPECT_EQ(got.stats.used_symmetry, want.stats.used_symmetry);
  EXPECT_EQ(got.stats.backend, want.stats.backend);
}

void expect_same_counters(const DownsampleCounters& got,
                          const DownsampleCounters& want) {
  EXPECT_EQ(got.kernel_launches, want.kernel_launches);
  EXPECT_EQ(got.dram_bytes, want.dram_bytes);
  EXPECT_EQ(got.instr_ops, want.instr_ops);
  EXPECT_EQ(got.candidates, want.candidates);
  EXPECT_EQ(got.kept, want.kept);
}

/// The map a downsample emits is the grid merge-join's map of the same
/// two sets, for K 1-5 and s 2-3 on sorted, shuffled and duplicated
/// sets (empty and one-point ones too), with and without the input's
/// level record; its coordinates, record and counters are the
/// coordinates-only call's.
TEST(DownsampleWithMap, EqualsMergeJoinMap) {
  const MapSearchOptions grid{MapBackend::kGrid, false};
  for (SetOrder order :
       {SetOrder::kSorted, SetOrder::kShuffled, SetOrder::kDuplicated}) {
    for (int n : {0, 1, 1500}) {
      const auto in = spread_coords(n, order, 31 + n);
      const LevelKeys in_level = level_keys(in);
      const LevelKeys* const records[] = {&in_level, nullptr};
      for (int k = 1; k <= 5; ++k) {
        for (int s : {2, 3}) {
          for (bool fused : {false, true}) {
            for (const LevelKeys* record : records) {
              SCOPED_TRACE(::testing::Message()
                           << "order=" << static_cast<int>(order)
                           << " n=" << n << " k=" << k << " s=" << s
                           << " fused=" << fused
                           << " record=" << (record != nullptr));
              DownsampleCounters plain_c, map_c;
              const DownsampledLevel plain = downsample_level(
                  in, record, k, s, fused, fused, &plain_c);
              const DownsampledLevel got = downsample_level_with_map(
                  in, record, k, s, fused, fused, &map_c);
              EXPECT_FALSE(plain.map.has_value());
              ASSERT_TRUE(got.map.has_value());
              EXPECT_EQ(got.coords, plain.coords);
              EXPECT_EQ(got.keys.keys, plain.keys.keys);
              EXPECT_EQ(got.keys.lo, plain.keys.lo);
              EXPECT_EQ(got.keys.hi, plain.keys.hi);
              expect_same_counters(map_c, plain_c);
              const KernelMap want = build_kernel_map(
                  in, got.coords, ConvGeometry{k, s, false, 1}, grid);
              expect_same_map(*got.map, want);
              if (n == 1500) {
                EXPECT_GT(want.total(), 0u);
              }
            }
          }
        }
      }
    }
  }
}

TEST(DownsampleWithMap, FitsOnlyInt32CandidateIndices) {
  const std::size_t max = std::numeric_limits<int32_t>::max();
  EXPECT_TRUE(downsample_map_fits(0, 3));
  EXPECT_TRUE(downsample_map_fits(max / 27, 3));
  EXPECT_FALSE(downsample_map_fits(max / 27 + 1, 3));
  EXPECT_TRUE(downsample_map_fits(max, 1));
  EXPECT_FALSE(downsample_map_fits(max + 1, 1));
}

}  // namespace
}  // namespace ts
