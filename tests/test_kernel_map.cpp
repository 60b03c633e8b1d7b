// Kernel offsets, map search (Alg. 1), symmetric inference, transposition.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <stdexcept>
#include <string>
#include <unordered_set>

#include "core/downsample.hpp"
#include "core/kernel_map.hpp"
#include "core/kernel_offsets.hpp"
#include "hash/coords.hpp"

namespace ts {
namespace {

/// `n` distinct random coordinates in generation order, with batch
/// indices spread over [0, batches).
std::vector<Coord> random_coords(int n, int extent, uint64_t seed,
                                 int batches = 1) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int32_t> d(0, extent);
  std::uniform_int_distribution<int32_t> b(0, batches - 1);
  std::vector<Coord> coords;
  std::unordered_set<uint64_t> seen;
  while (static_cast<int>(coords.size()) < n) {
    const Coord c{b(rng), d(rng), d(rng), d(rng)};
    if (seen.insert(pack_coord(c)).second) coords.push_back(c);
  }
  return coords;
}

TEST(KernelOffsets, OddKernelCenteredLexicographic) {
  const auto offs = kernel_offsets(3);
  ASSERT_EQ(offs.size(), 27u);
  EXPECT_EQ(offs.front(), (Offset3{-1, -1, -1}));
  EXPECT_EQ(offs.back(), (Offset3{1, 1, 1}));
  EXPECT_EQ(offs[13], (Offset3{0, 0, 0}));
  EXPECT_EQ(center_offset_index(3), 13);
}

TEST(KernelOffsets, EvenKernelNonNegative) {
  const auto offs = kernel_offsets(2);
  ASSERT_EQ(offs.size(), 8u);
  EXPECT_EQ(offs.front(), (Offset3{0, 0, 0}));
  EXPECT_EQ(offs.back(), (Offset3{1, 1, 1}));
  EXPECT_EQ(center_offset_index(2), -1);
}

TEST(KernelOffsets, MirrorSymmetryProperty) {
  // offset[i] == -offset[V-1-i] for odd kernels — the foundation of
  // symmetric grouping (paper §4.2.1).
  for (int k : {1, 3, 5}) {
    const auto offs = kernel_offsets(k);
    const int v = static_cast<int>(offs.size());
    for (int i = 0; i < v; ++i)
      EXPECT_EQ(offs[static_cast<std::size_t>(i)],
                negate(offs[static_cast<std::size_t>(
                    mirror_offset_index(v, i))]))
          << "k=" << k << " i=" << i;
  }
}

/// Brute-force map search (quadratic; oracle for Alg. 1). Entries come
/// out per offset in ascending output position, like the builders'; a
/// duplicated input coordinate matches at its first position only.
KernelMap brute_force_map(const std::vector<Coord>& in,
                          const std::vector<Coord>& out,
                          const ConvGeometry& geom) {
  const auto offs = kernel_offsets(geom.kernel_size);
  const int dil = geom.dilation;
  KernelMap km;
  km.kernel_size = geom.kernel_size;
  km.maps.resize(offs.size());
  for (std::size_t n = 0; n < offs.size(); ++n) {
    for (std::size_t k = 0; k < out.size(); ++k) {
      Coord r;
      if (!geom.transposed) {
        r = Coord{out[k].b, geom.stride * out[k].x + dil * offs[n].dx,
                  geom.stride * out[k].y + dil * offs[n].dy,
                  geom.stride * out[k].z + dil * offs[n].dz};
      } else {
        const int s = geom.stride;
        const int32_t ux = out[k].x - dil * offs[n].dx;
        const int32_t uy = out[k].y - dil * offs[n].dy;
        const int32_t uz = out[k].z - dil * offs[n].dz;
        if (((ux % s) + s) % s || ((uy % s) + s) % s || ((uz % s) + s) % s)
          continue;
        r = Coord{out[k].b, ux / s, uy / s, uz / s};
      }
      for (std::size_t j = 0; j < in.size(); ++j)
        if (in[j] == r) {
          km.maps[n].push_back(
              {static_cast<int32_t>(j), static_cast<int32_t>(k)});
          break;
        }
    }
  }
  return km;
}

/// Compares two maps offset by offset. Direct search must match entry
/// for entry in emission order; maps produced by mirroring or
/// transposition are compared as sets (`ordered` = false).
void expect_same_maps(const KernelMap& a, const KernelMap& b,
                      bool ordered = false) {
  ASSERT_EQ(a.maps.size(), b.maps.size());
  for (std::size_t n = 0; n < a.maps.size(); ++n) {
    auto sa = a.maps[n];
    auto sb = b.maps[n];
    if (!ordered) {
      auto lt = [](const MapEntry& x, const MapEntry& y) {
        return std::tie(x.out, x.in) < std::tie(y.out, y.in);
      };
      std::sort(sa.begin(), sa.end(), lt);
      std::sort(sb.begin(), sb.end(), lt);
    }
    ASSERT_EQ(sa.size(), sb.size()) << "offset " << n;
    EXPECT_EQ(sa, sb) << "offset " << n;
  }
}

/// How the oracle case orders its coordinate sets.
enum class CoordOrder {
  kGenerated,  // inputs in generation order, outputs in first-seen order
  kSorted,     // key-sorted inputs and outputs (downsample_coords output)
  kShuffled,   // generation-order inputs, shuffled outputs
};

struct MapCase {
  int n_points;
  int extent;
  int kernel;
  int stride;
  int dilation = 1;
  int batches = 1;
  CoordOrder order = CoordOrder::kGenerated;
  int32_t origin = 0;  // added to every spatial axis of the inputs
};

class MapSearchOracle : public ::testing::TestWithParam<MapCase> {};

TEST_P(MapSearchOracle, MatchesBruteForce) {
  const MapCase c = GetParam();
  auto in = random_coords(c.n_points, c.extent, 99, c.batches);
  for (Coord& p : in) {
    p.x += c.origin;
    p.y += c.origin;
    p.z += c.origin;
  }
  if (c.order == CoordOrder::kSorted) std::sort(in.begin(), in.end());
  std::vector<Coord> out;
  if (c.stride == 1) {
    out = in;
  } else if (c.order == CoordOrder::kGenerated) {
    // Valid downsampled coords: floor-div of the inputs, first-seen order.
    const auto down = [&](int32_t v) {
      return (v >= 0 ? v : v - (c.stride - 1)) / c.stride;
    };
    std::unordered_set<uint64_t> seen;
    for (const Coord& p : in) {
      const Coord q{p.b, down(p.x), down(p.y), down(p.z)};
      if (seen.insert(pack_coord(q)).second) out.push_back(q);
    }
  } else {
    out = downsample_coords(in, std::max(c.kernel, 2), c.stride, true, true);
  }
  if (c.order == CoordOrder::kShuffled) {
    std::mt19937_64 rng(7);
    std::shuffle(out.begin(), out.end(), rng);
  }
  ConvGeometry geom{c.kernel, c.stride, false, c.dilation};
  const KernelMap want = brute_force_map(in, out, geom);
  MapSearchOptions opts;
  for (MapBackend backend : {MapBackend::kHashMap, MapBackend::kGrid}) {
    opts.backend = backend;
    opts.use_symmetry = false;
    const KernelMap got = build_kernel_map(in, out, geom, opts);
    expect_same_maps(got, want, /*ordered=*/true);
    if (backend != MapBackend::kGrid) continue;
    // The grid builder returns every map at exact capacity.
    for (std::size_t n = 0; n < got.maps.size(); ++n)
      EXPECT_EQ(got.maps[n].capacity(), got.maps[n].size()) << "offset " << n;
    if (!geom.is_submanifold() || in != out) continue;
    // Symmetric search mirrors half the offsets: same entries as sets.
    opts.use_symmetry = true;
    expect_same_maps(build_kernel_map(in, out, geom, opts), want);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MapSearchOracle,
    ::testing::Values(
        MapCase{40, 6, 3, 1}, MapCase{150, 10, 3, 1}, MapCase{60, 8, 5, 1},
        MapCase{80, 9, 2, 2}, MapCase{120, 12, 3, 2}, MapCase{50, 8, 1, 1},
        // Dilation 2 and stride 3.
        MapCase{150, 10, 3, 1, 2}, MapCase{120, 12, 3, 2, 2},
        MapCase{150, 14, 3, 3}, MapCase{150, 14, 2, 3, 2},
        // Key-sorted inputs with downsample_coords outputs.
        MapCase{150, 10, 3, 1, 1, 1, CoordOrder::kSorted},
        MapCase{150, 10, 2, 2, 1, 1, CoordOrder::kSorted},
        MapCase{150, 12, 3, 2, 1, 1, CoordOrder::kSorted},
        MapCase{150, 14, 3, 3, 2, 1, CoordOrder::kSorted},
        // Shuffled outputs.
        MapCase{150, 10, 3, 1, 1, 1, CoordOrder::kShuffled},
        MapCase{150, 10, 2, 2, 1, 1, CoordOrder::kShuffled},
        MapCase{150, 12, 3, 2, 2, 1, CoordOrder::kShuffled},
        // Multiple batches.
        MapCase{200, 8, 3, 1, 1, 3},
        MapCase{200, 8, 2, 2, 1, 3, CoordOrder::kSorted},
        MapCase{200, 8, 3, 2, 1, 3, CoordOrder::kShuffled},
        MapCase{200, 8, 5, 1, 2, 4, CoordOrder::kSorted},
        // Coordinates at the edges of the packable range: candidates
        // (and strided outputs s*q, floored below the range) fall outside.
        MapCase{150, 10, 3, 1, 1, 1, CoordOrder::kGenerated, kCoordSpatialMin},
        MapCase{150, 10, 3, 1, 2, 2, CoordOrder::kSorted, kCoordSpatialMin},
        MapCase{150, 8, 3, 3, 1, 1, CoordOrder::kGenerated, kCoordSpatialMin},
        MapCase{150, 8, 3, 3, 1, 1, CoordOrder::kSorted, kCoordSpatialMin},
        MapCase{150, 8, 3, 2, 1, 1, CoordOrder::kSorted, kCoordSpatialMin},
        MapCase{150, 14, 2, 3, 2, 2, CoordOrder::kShuffled, kCoordSpatialMin},
        MapCase{150, 10, 3, 1, 1, 1, CoordOrder::kSorted,
                kCoordSpatialMax - 10},
        MapCase{150, 14, 3, 3, 1, 2, CoordOrder::kShuffled,
                kCoordSpatialMax - 14}));

TEST(MapSearch, SymmetryMatchesDirectSearch) {
  const auto coords = random_coords(300, 12, 5);
  ConvGeometry geom{3, 1, false};
  MapSearchOptions direct{MapBackend::kGrid, false};
  MapSearchOptions sym{MapBackend::kGrid, true};
  const KernelMap a = build_kernel_map(coords, coords, geom, direct);
  const KernelMap b = build_kernel_map(coords, coords, geom, sym);
  expect_same_maps(a, b);
  EXPECT_TRUE(b.stats.used_symmetry);
  EXPECT_FALSE(a.stats.used_symmetry);
  // Symmetry halves queries and skips the center entirely.
  EXPECT_LE(b.stats.queries, a.stats.queries / 2);
}

TEST(MapSearch, SymmetryOnDistinctSetsThrows) {
  // Mirroring is only valid for P_in == P_out: a 10-point input searched
  // against a 20-point output used to emit entries past the input set.
  const auto out = random_coords(20, 6, 12);
  const std::vector<Coord> in(out.begin(), out.begin() + 10);
  const ConvGeometry geom{3, 1, false};
  for (MapBackend backend : {MapBackend::kHashMap, MapBackend::kGrid}) {
    EXPECT_THROW(build_kernel_map(in, out, geom, {backend, true}),
                 std::invalid_argument);
    // Same size, different content.
    auto moved = out;
    moved[0].x += 100;
    EXPECT_THROW(build_kernel_map(out, moved, geom, {backend, true}),
                 std::invalid_argument);
    // Equal content in a distinct vector is fine.
    const auto copy = out;
    EXPECT_NO_THROW(build_kernel_map(out, copy, geom, {backend, true}));
    // Direct search and non-submanifold geometries never mirror.
    EXPECT_NO_THROW(build_kernel_map(in, out, geom, {backend, false}));
    EXPECT_NO_THROW(
        build_kernel_map(in, out, ConvGeometry{2, 1, false}, {backend, true}));
  }
}

TEST(MapSearch, SymmetryIgnoredForStridedLayers) {
  const auto in = random_coords(100, 10, 6);
  std::vector<Coord> out;
  std::unordered_set<uint64_t> seen;
  for (const Coord& p : in) {
    const Coord q{p.b, p.x / 2, p.y / 2, p.z / 2};
    if (seen.insert(pack_coord(q)).second) out.push_back(q);
  }
  ConvGeometry geom{2, 2, false};
  MapSearchOptions opts{MapBackend::kGrid, true};  // requested but invalid
  const KernelMap km = build_kernel_map(in, out, geom, opts);
  EXPECT_FALSE(km.stats.used_symmetry);
}

TEST(MapSearch, CenterMapIsIdentityOnSubmanifold) {
  const auto coords = random_coords(64, 8, 7);
  ConvGeometry geom{3, 1, false};
  const KernelMap km = build_kernel_map(coords, coords, geom,
                                        {MapBackend::kGrid, true});
  const auto& center = km.maps[13];
  ASSERT_EQ(center.size(), coords.size());
  for (std::size_t i = 0; i < center.size(); ++i) {
    EXPECT_EQ(center[i].in, static_cast<int32_t>(i));
    EXPECT_EQ(center[i].out, static_cast<int32_t>(i));
  }
}

/// Symmetric k=1 builds on both backends, pinned: the one offset is the
/// center, so the map is the identity in order and nothing is searched.
/// The set holds a repeated coordinate, which the identity keeps.
TEST(MapSearch, SymmetricKernelOneBuildsPinned) {
  struct Pin {
    MapBackend backend;
    std::size_t queries, index_accesses, build_accesses;
  };
  const Pin pins[] = {
      {MapBackend::kHashMap, 0, 0, 507},
      {MapBackend::kGrid, 0, 0, 401},
  };
  std::vector<Coord> coords = random_coords(400, 12, 15, 2);
  coords.push_back(coords[7]);
  const ConvGeometry geom{1, 1, false};
  for (const Pin& pin : pins) {
    SCOPED_TRACE(static_cast<int>(pin.backend));
    const KernelMap km = build_kernel_map(coords, coords, geom,
                                          {pin.backend, true});
    ASSERT_EQ(km.maps.size(), 1u);
    ASSERT_EQ(km.maps[0].size(), coords.size());
    for (std::size_t i = 0; i < coords.size(); ++i)
      EXPECT_EQ(km.maps[0][i],
                (MapEntry{static_cast<int32_t>(i), static_cast<int32_t>(i)}));
    EXPECT_TRUE(km.stats.used_symmetry);
    EXPECT_EQ(km.stats.backend, pin.backend);
    EXPECT_EQ(km.stats.queries, pin.queries);
    EXPECT_EQ(km.stats.index_accesses, pin.index_accesses);
    EXPECT_EQ(km.stats.build_accesses, pin.build_accesses);
  }
}

TEST(MapSearch, SubmanifoldMapSizesAreSymmetric) {
  // |M[delta]| == |M[-delta]| (paper §4.2.1).
  const auto coords = random_coords(500, 14, 8);
  ConvGeometry geom{3, 1, false};
  const KernelMap km = build_kernel_map(coords, coords, geom,
                                        {MapBackend::kGrid, false});
  for (int n = 0; n < 27; ++n)
    EXPECT_EQ(km.size(n), km.size(mirror_offset_index(27, n)));
}

TEST(MapSearch, TransposedMatchesBruteForce) {
  // Coarse inputs, fine outputs (decoder direction).
  const auto fine = random_coords(200, 10, 9);
  std::vector<Coord> coarse;
  std::unordered_set<uint64_t> seen;
  for (const Coord& p : fine) {
    const Coord q{p.b, p.x / 2, p.y / 2, p.z / 2};
    if (seen.insert(pack_coord(q)).second) coarse.push_back(q);
  }
  ConvGeometry geom{2, 2, true};
  expect_same_maps(
      build_kernel_map(coarse, fine, geom, {MapBackend::kGrid, false}),
      brute_force_map(coarse, fine, geom));
}

/// Transposed builds on both backends, pinned. Fine outputs straddle
/// the origin over 2 batches; the coarse inputs are their floor-halves
/// in first-seen order, with one coordinate repeated at the end (its
/// first position must win). `huge_box` adds one far input that
/// stretches the (b, x, y, z) bounding box past 2^22 cells. The maps
/// must equal the oracle in emission order and the modeled counters
/// must equal the pinned constants.
TEST(MapSearch, TransposedBuildsPinned) {
  struct Pin {
    bool huge_box;
    int kernel;
    MapBackend backend;
    std::size_t queries, index_accesses, build_accesses;
  };
  const Pin pins[] = {
      {false, 2, MapBackend::kHashMap, 300, 364, 355},
      {false, 2, MapBackend::kGrid, 300, 300, 291},
      {false, 3, MapBackend::kHashMap, 985, 1361, 355},
      {false, 3, MapBackend::kGrid, 985, 985, 291},
      {true, 2, MapBackend::kHashMap, 300, 364, 357},
      {true, 2, MapBackend::kGrid, 300, 300, 292},
      {true, 3, MapBackend::kHashMap, 985, 1365, 357},
      {true, 3, MapBackend::kGrid, 985, 985, 292},
  };
  std::vector<Coord> fine = random_coords(300, 24, 13, 2);
  for (Coord& p : fine) {
    p.x -= 12;
    p.y -= 12;
    p.z -= 12;
  }
  const auto half = [](int32_t v) { return v >= 0 ? v / 2 : (v - 1) / 2; };
  std::vector<Coord> coarse;
  std::unordered_set<uint64_t> seen;
  for (const Coord& p : fine) {
    const Coord q{p.b, half(p.x), half(p.y), half(p.z)};
    if (seen.insert(pack_coord(q)).second) coarse.push_back(q);
  }
  coarse.push_back(coarse[5]);
  for (const Pin& pin : pins) {
    SCOPED_TRACE(::testing::Message()
                 << "huge_box=" << pin.huge_box << " kernel=" << pin.kernel
                 << " backend=" << static_cast<int>(pin.backend));
    std::vector<Coord> in = coarse;
    if (pin.huge_box) in.push_back(Coord{1, 3000, -3000, 3000});
    Coord lo, hi;
    ASSERT_TRUE(coord_bounds(in, lo, hi));
    const double cells = (hi.b - lo.b + 1.0) * (hi.x - lo.x + 1.0) *
                         (hi.y - lo.y + 1.0) * (hi.z - lo.z + 1.0);
    EXPECT_EQ(cells > double(1 << 22), pin.huge_box);
    const ConvGeometry geom{pin.kernel, 2, true};
    const KernelMap km = build_kernel_map(in, fine, geom, {pin.backend, false});
    expect_same_maps(km, brute_force_map(in, fine, geom), /*ordered=*/true);
    EXPECT_EQ(km.stats.queries, pin.queries);
    EXPECT_EQ(km.stats.index_accesses, pin.index_accesses);
    EXPECT_EQ(km.stats.build_accesses, pin.build_accesses);
  }
}

TEST(MapSearch, TransposeOfForwardEqualsTransposedSearch) {
  // The decoder's map-reuse trick: transpose(forward map) must equal the
  // directly searched transposed map, dilated or not, on both backends.
  const auto fine = random_coords(400, 12, 10);
  std::vector<Coord> coarse;
  std::unordered_set<uint64_t> seen;
  for (const Coord& p : fine) {
    const Coord q{p.b, p.x / 2, p.y / 2, p.z / 2};
    if (seen.insert(pack_coord(q)).second) coarse.push_back(q);
  }
  for (int kernel : {2, 3}) {
    for (int dilation : {1, 2}) {
      for (MapBackend backend : {MapBackend::kHashMap, MapBackend::kGrid}) {
        SCOPED_TRACE(::testing::Message()
                     << "kernel=" << kernel << " dilation=" << dilation
                     << " backend=" << static_cast<int>(backend));
        const ConvGeometry fwd{kernel, 2, false, dilation};
        const ConvGeometry inv{kernel, 2, true, dilation};
        const KernelMap forward =
            build_kernel_map(fine, coarse, fwd, {backend, false});
        EXPECT_GT(forward.total(), 0u);
        const KernelMap direct =
            build_kernel_map(coarse, fine, inv, {backend, false});
        expect_same_maps(transpose_kernel_map(forward), direct);
        expect_same_maps(direct, brute_force_map(coarse, fine, inv),
                         /*ordered=*/true);
      }
    }
  }
}

/// Candidates outside the packable range cannot match: a packed key
/// would wrap x = kCoordSpatialMin - 1 onto kCoordSpatialMax. Both
/// backends must equal the oracle, and the hashmap backend charges each
/// such candidate one probe, as a miss on an empty table.
TEST(MapSearch, EdgeCandidatesDoNotWrap) {
  const std::vector<Coord> in = {{0, kCoordSpatialMin, 0, 0},
                                 {0, kCoordSpatialMax, 0, 0}};
  const ConvGeometry geom{3, 1, false};
  const KernelMap want = brute_force_map(in, in, geom);
  EXPECT_EQ(want.total(), 2u);
  for (MapBackend backend : {MapBackend::kHashMap, MapBackend::kGrid}) {
    SCOPED_TRACE(static_cast<int>(backend));
    const KernelMap direct = build_kernel_map(in, in, geom, {backend, false});
    expect_same_maps(direct, want, /*ordered=*/true);
    const KernelMap sym = build_kernel_map(in, in, geom, {backend, true});
    expect_same_maps(sym, want);
    EXPECT_EQ(sym.stats.queries, 26u);
    if (backend == MapBackend::kHashMap) {
      EXPECT_EQ(direct.stats.index_accesses, 57u);
      EXPECT_EQ(sym.stats.index_accesses, 27u);
    }
  }
}

/// A bad geometry is a typed error naming the value, on both backends.
TEST(MapSearch, RejectsBadGeometry) {
  const auto coords = random_coords(20, 4, 14);
  struct Bad {
    ConvGeometry geom;
    std::string message;
  };
  const Bad bad[] = {
      {{2, 0, true}, "build_kernel_map: stride must be >= 1 (got 0)"},
      {{2, -2, true}, "build_kernel_map: stride must be >= 1 (got -2)"},
      {{3, 0, false}, "build_kernel_map: stride must be >= 1 (got 0)"},
      {{-3, 1, false}, "build_kernel_map: kernel_size must be >= 1 (got -3)"},
      {{0, 2, false}, "build_kernel_map: kernel_size must be >= 1 (got 0)"},
  };
  for (MapBackend backend : {MapBackend::kHashMap, MapBackend::kGrid}) {
    for (const Bad& b : bad) {
      try {
        build_kernel_map(coords, coords, b.geom, {backend, false});
        FAIL() << "expected std::invalid_argument: " << b.message;
      } catch (const std::invalid_argument& e) {
        EXPECT_EQ(std::string(e.what()), b.message);
      }
    }
    // Zero dilation stays supported.
    EXPECT_NO_THROW(build_kernel_map(
        coords, coords, ConvGeometry{3, 1, false, 0}, {backend, false}));
  }
}

TEST(MapSearch, GridAndHashBackendsReportDifferentAccessCosts) {
  const auto coords = random_coords(2000, 20, 11);
  ConvGeometry geom{3, 1, false};
  const KernelMap grid = build_kernel_map(coords, coords, geom,
                                          {MapBackend::kGrid, false});
  const KernelMap hash = build_kernel_map(coords, coords, geom,
                                          {MapBackend::kHashMap, false});
  EXPECT_EQ(grid.stats.index_accesses, grid.stats.queries);
  EXPECT_GT(hash.stats.index_accesses, hash.stats.queries);
}

}  // namespace
}  // namespace ts
