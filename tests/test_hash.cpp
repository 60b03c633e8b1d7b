// Coordinate packing, bounding boxes, and the conventional hashmap.
#include <gtest/gtest.h>

#include <random>
#include <unordered_set>

#include "hash/coords.hpp"
#include "hash/flat_hashmap.hpp"

namespace ts {
namespace {

TEST(Coords, PackUnpackRoundTrip) {
  const Coord cases[] = {
      {0, 0, 0, 0},         {1, 5, -3, 7},     {1023, 1000, -1000, 99},
      {0, kCoordSpatialMin, kCoordSpatialMax, 0},
      {3, -1, -1, -1},      {7, 131071, -131072, 131071}};
  for (const Coord& c : cases) {
    ASSERT_TRUE(coord_in_packable_range(c));
    EXPECT_EQ(unpack_coord(pack_coord(c)), c);
  }
}

TEST(Coords, PackIsInjectiveOnRandomSample) {
  std::mt19937_64 rng(3);
  std::uniform_int_distribution<int32_t> d(-5000, 5000);
  std::unordered_set<uint64_t> keys;
  std::set<std::tuple<int, int, int, int>> coords;
  for (int i = 0; i < 50000; ++i) {
    const Coord c{std::abs(d(rng)) % 1024, d(rng), d(rng), d(rng)};
    keys.insert(pack_coord(c));
    coords.insert({c.b, c.x, c.y, c.z});
  }
  EXPECT_EQ(keys.size(), coords.size());
}

TEST(Coords, RangeValidation) {
  EXPECT_FALSE(coord_in_packable_range({-1, 0, 0, 0}));
  EXPECT_FALSE(coord_in_packable_range({1024, 0, 0, 0}));
  EXPECT_FALSE(coord_in_packable_range({0, kCoordSpatialMax + 1, 0, 0}));
  EXPECT_FALSE(coord_in_packable_range({0, 0, kCoordSpatialMin - 1, 0}));
  EXPECT_TRUE(coord_in_packable_range({0, 0, 0, 0}));
}

TEST(CoordBounds, ComputesInclusiveBox) {
  Coord lo, hi;
  EXPECT_FALSE(coord_bounds({}, lo, hi));
  std::vector<Coord> cs = {{0, 1, -2, 3}, {0, -4, 5, 0}, {1, 2, 2, 2}};
  ASSERT_TRUE(coord_bounds(cs, lo, hi));
  EXPECT_EQ(lo, (Coord{0, -4, -2, 0}));
  EXPECT_EQ(hi, (Coord{1, 2, 5, 3}));
}

TEST(FlatHashMap, InsertAndFind) {
  FlatHashMap m(16);
  m.insert(Coord{0, 1, 2, 3}, 42);
  m.insert(Coord{0, 4, 5, 6}, 7);
  EXPECT_EQ(m.find(Coord{0, 1, 2, 3}), 42);
  EXPECT_EQ(m.find(Coord{0, 4, 5, 6}), 7);
  EXPECT_EQ(m.find(Coord{0, 9, 9, 9}), FlatHashMap::kNotFound);
  EXPECT_EQ(m.size(), 2u);
}

TEST(FlatHashMap, DuplicateKeepsFirstValue) {
  FlatHashMap m(4);
  m.insert(Coord{0, 1, 1, 1}, 10);
  m.insert(Coord{0, 1, 1, 1}, 20);
  EXPECT_EQ(m.find(Coord{0, 1, 1, 1}), 10);
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatHashMap, GrowsBeyondInitialCapacity) {
  FlatHashMap m(2);
  for (int i = 0; i < 5000; ++i) m.insert(Coord{0, i, 2 * i, -i}, i);
  EXPECT_EQ(m.size(), 5000u);
  for (int i = 0; i < 5000; ++i)
    ASSERT_EQ(m.find(Coord{0, i, 2 * i, -i}), i) << i;
}

TEST(FlatHashMap, ProbeCountingIsPositive) {
  FlatHashMap m(1024);
  std::size_t probes = m.insert(Coord{0, 1, 2, 3}, 0);
  EXPECT_GE(probes, 1u);
  std::size_t q = 0;
  m.find(Coord{0, 1, 2, 3}, &q);
  EXPECT_GE(q, 1u);
  EXPECT_GT(m.total_insert_probes(), 0u);
}

}  // namespace
}  // namespace ts
