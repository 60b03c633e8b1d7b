// Serialization round-trip and malformed-input tests.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "data/voxelize.hpp"
#include "io/serialize.hpp"

namespace ts {
namespace {

TEST(Io, PointsRoundTrip) {
  LidarSpec spec = nuscenes_spec(1);
  spec.azimuth_steps = 100;
  const auto pts = generate_scan(spec, 5);
  std::stringstream ss;
  io::save_points(ss, pts);
  const auto back = io::load_points(ss);
  ASSERT_EQ(back.size(), pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(back[i].x, pts[i].x);
    EXPECT_EQ(back[i].intensity, pts[i].intensity);
    EXPECT_EQ(back[i].time, pts[i].time);
  }
}

TEST(Io, EmptyPointsRoundTrip) {
  std::stringstream ss;
  io::save_points(ss, {});
  EXPECT_TRUE(io::load_points(ss).empty());
}

TEST(Io, TensorRoundTrip) {
  LidarSpec spec = semantic_kitti_spec();
  spec.azimuth_steps = 80;
  const SparseTensor t = make_input(spec, segmentation_voxels(), 7);
  std::stringstream ss;
  io::save_tensor(ss, t);
  const SparseTensor back = io::load_tensor(ss);
  EXPECT_EQ(back.coords(), t.coords());
  EXPECT_EQ(back.feats(), t.feats());
  EXPECT_EQ(back.stride(), t.stride());
}

TEST(Io, TensorFileRoundTrip) {
  std::vector<Coord> coords = {{0, 1, 2, 3}, {1, 4, 5, 6}};
  Matrix feats(2, 3);
  feats.at(0, 0) = 1.5f;
  feats.at(1, 2) = -2.25f;
  const SparseTensor t(coords, feats);
  const std::string path = "/tmp/ts_io_test.tsten";
  io::save_tensor_file(path, t);
  const SparseTensor back = io::load_tensor_file(path);
  EXPECT_EQ(back.coords(), t.coords());
  EXPECT_EQ(back.feats(), t.feats());
}

TEST(Io, StridedTensorRoundTrip) {
  // load_tensor re-wraps a non-unit stride around the loaded features.
  std::vector<Coord> coords = {{0, 1, 2, 3}, {0, 4, 5, 6}};
  Matrix feats(2, 2);
  feats.at(0, 1) = 3.5f;
  feats.at(1, 0) = -1.0f;
  const SparseTensor base(coords, feats);
  const SparseTensor strided(base.coords_ptr(), base.feats(), 4,
                             base.cache());
  std::stringstream ss;
  io::save_tensor(ss, strided);
  const SparseTensor back = io::load_tensor(ss);
  EXPECT_EQ(back.stride(), 4);
  EXPECT_EQ(back.coords(), strided.coords());
  EXPECT_EQ(back.feats(), strided.feats());
  EXPECT_EQ(back.channels(), 2u);
}

TEST(Io, SaveRejectsFeaturelessTensor) {
  // A cost-only tensor carries a channel count but no features; its
  // header would promise n x c floats that never follow.
  std::vector<Coord> coords = {{0, 1, 2, 3}, {1, 4, 5, 6}};
  const SparseTensor shape =
      SparseTensor(coords, Matrix(2, 3)).shape_with_fresh_cache();
  ASSERT_FALSE(shape.has_features());
  std::stringstream ss;
  try {
    io::save_tensor(ss, shape);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("save_tensor: input has no features"),
              std::string::npos);
  }
  EXPECT_TRUE(ss.str().empty());  // nothing written

  const std::string path = "/tmp/ts_io_featureless.tsten";
  std::remove(path.c_str());
  EXPECT_THROW(io::save_tensor_file(path, shape), std::invalid_argument);
  EXPECT_FALSE(std::ifstream(path).is_open());  // nor created
}

TEST(Io, RejectsBadMagic) {
  std::stringstream ss;
  ss << "not a tensor file at all, definitely";
  EXPECT_THROW(io::load_tensor(ss), std::runtime_error);
  std::stringstream ss2;
  ss2 << "garbage";
  EXPECT_THROW(io::load_points(ss2), std::runtime_error);
}

TEST(Io, RejectsTruncatedStream) {
  std::vector<Coord> coords = {{0, 1, 1, 1}};
  const SparseTensor t(coords, Matrix(1, 4, 1.0f));
  std::stringstream ss;
  io::save_tensor(ss, t);
  const std::string full = ss.str();
  std::stringstream cut(full.substr(0, full.size() / 2));
  EXPECT_THROW(io::load_tensor(cut), std::runtime_error);
}

TEST(Io, RejectsCrossFormatLoads) {
  std::stringstream ss;
  io::save_points(ss, {Point3{1, 2, 3, 0.5f, 0}});
  EXPECT_THROW(io::load_tensor(ss), std::runtime_error);
}

// Header layout of the tensor format (all little-endian):
// [magic u32][version u32][points u64][channels u64][stride i32][coords...]
constexpr std::size_t kChannelsOffset = 4 + 4 + 8;
constexpr std::size_t kStrideOffset = kChannelsOffset + 8;

std::string serialized(const SparseTensor& t) {
  std::stringstream ss;
  io::save_tensor(ss, t);
  return ss.str();
}

/// Appends the little-endian bytes of `v` to `out`.
template <typename T>
void put(std::string& out, T v) {
  char bytes[sizeof(T)];
  std::memcpy(bytes, &v, sizeof(T));
  out.append(bytes, sizeof(T));
}

// Tensor images stay at format version 1 (only map-cache images moved
// to version 2): a hand-built version-1 image loads.
TEST(Io, VersionOneTensorImageLoads) {
  std::string image;
  put<uint32_t>(image, 0x5453544e);  // "TSTN"
  put<uint32_t>(image, 1);           // version
  put<uint64_t>(image, 2);           // points
  put<uint64_t>(image, 1);           // channels
  put<int32_t>(image, 2);            // stride
  for (int32_t v : {0, 1, -2, 3, 1, 4, 5, -6}) put<int32_t>(image, v);
  put<float>(image, 0.5f);
  put<float>(image, -1.5f);
  std::stringstream is(image);
  const SparseTensor t = io::load_tensor(is);
  EXPECT_EQ(t.coords(), (std::vector<Coord>{{0, 1, -2, 3}, {1, 4, 5, -6}}));
  EXPECT_EQ(t.stride(), 2);
  ASSERT_EQ(t.channels(), 1u);
  EXPECT_EQ(t.feats().at(0, 0), 0.5f);
  EXPECT_EQ(t.feats().at(1, 0), -1.5f);
  // The writer still emits version 1.
  uint32_t version = 0;
  std::memcpy(&version, serialized(t).data() + 4, sizeof(version));
  EXPECT_EQ(version, 1u);
}

TEST(Io, RejectsZeroChannelsWithNonzeroPoints) {
  // Regression (ROADMAP "Hardening", io/serialize load sweep): a corrupt
  // header claiming 0 channels for a populated tensor used to produce a
  // structurally impossible tensor (points with no features); it must be
  // rejected at the format boundary.
  std::vector<Coord> coords = {{0, 1, 2, 3}, {0, 4, 5, 6}};
  std::string bytes = serialized(SparseTensor(coords, Matrix(2, 3, 1.0f)));
  for (std::size_t i = 0; i < 8; ++i) bytes[kChannelsOffset + i] = '\0';
  std::stringstream corrupt(bytes);
  try {
    io::load_tensor(corrupt);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "channel count 0 with nonzero points");
  }
  // 0 channels with 0 points stays legal (an empty tensor round-trips).
  std::stringstream empty;
  io::save_tensor(empty, SparseTensor({}, Matrix(0, 0)));
  EXPECT_EQ(io::load_tensor(empty).num_points(), 0u);
}

TEST(Io, RejectsNonFiniteFeatureValues) {
  // Downstream numerics (pooling averages, BatchNorm) assume finite
  // features; NaN/Inf in the stream is corruption, not data.
  std::vector<Coord> coords = {{0, 1, 1, 1}};
  Matrix nan_feats(1, 2, 1.0f);
  nan_feats.at(0, 1) = std::numeric_limits<float>::quiet_NaN();
  std::stringstream with_nan(serialized(SparseTensor(coords, nan_feats)));
  EXPECT_THROW(io::load_tensor(with_nan), std::runtime_error);

  Matrix inf_feats(1, 2, 1.0f);
  inf_feats.at(0, 0) = std::numeric_limits<float>::infinity();
  std::stringstream with_inf(serialized(SparseTensor(coords, inf_feats)));
  EXPECT_THROW(io::load_tensor(with_inf), std::runtime_error);
}

TEST(Io, RejectsCoordinateStrideOverflow) {
  // A stride-s coordinate is a stride-1 lattice point divided by s; a
  // (coordinate, stride) pair whose product leaves the packable grid
  // cannot have come from this engine and would overflow grid
  // addressing. Construct one via the derived-tensor constructor (the
  // save path does not re-validate semantic invariants).
  std::vector<Coord> coords = {{0, kCoordSpatialMax, 0, 0}};
  const SparseTensor base(coords, Matrix(1, 2, 1.0f));
  const SparseTensor strided(base.coords_ptr(), base.feats(), 1 << 16,
                             base.cache());
  std::stringstream ss(serialized(strided));
  try {
    io::load_tensor(ss);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(),
                 "coordinate/stride combination overflows grid addressing");
  }
}

TEST(Io, RejectsImplausibleStride) {
  std::vector<Coord> coords = {{0, 1, 1, 1}};
  const SparseTensor base(coords, Matrix(1, 2, 1.0f));
  const SparseTensor strided(base.coords_ptr(), base.feats(),
                             kCoordSpatialMax + 1, base.cache());
  std::stringstream too_big(serialized(strided));
  EXPECT_THROW(io::load_tensor(too_big), std::runtime_error);

  // Negative stride via byte patching (the derived constructor would be
  // a caller bug; the stream is adversarial input).
  std::string bytes = serialized(base);
  bytes[kStrideOffset + 3] = static_cast<char>(0x80);  // sign bit
  std::stringstream negative(bytes);
  EXPECT_THROW(io::load_tensor(negative), std::runtime_error);
}

TEST(Io, RejectsTruncatedCoordBlock) {
  std::vector<Coord> coords = {{0, 1, 1, 1}, {0, 2, 2, 2}};
  const std::string full = serialized(SparseTensor(coords, Matrix(2, 2)));
  // Cut inside the second coordinate record, before any feature bytes.
  std::stringstream cut(full.substr(0, kStrideOffset + 4 + 16 + 8));
  EXPECT_THROW(io::load_tensor(cut), std::runtime_error);
}

// --- Map-cache snapshots (.tsmc) --------------------------------------
//
// Byte layout under test (all little-endian):
//   [magic u32 @0][version u32 @4][byte_budget u64 @8][count u64 @16]
//   per entry: [key.lo u64][key.hi u64][build_wall_seconds f64]
//              [declared bytes u64][kind u8][payload...]
// so entry 0 starts at offset 24 with its kind byte at offset 56.
constexpr std::size_t kSnapCountOffset = 16;
constexpr std::size_t kSnapEntry0 = 24;
constexpr std::size_t kSnapEntryHeader = 8 + 8 + 8 + 8 + 1;
constexpr std::size_t kSnapBuildTimeOffset = kSnapEntry0 + 16;
constexpr std::size_t kSnapDeclaredOffset = kSnapEntry0 + 24;
constexpr std::size_t kSnapKindOffset = kSnapEntry0 + 32;

/// One kernel-map entry followed by one downsample-coords entry — both
/// payload kinds in one stream, in a deterministic hand-built shape so
/// corruption offsets are computable.
MapCacheSnapshot sample_snapshot() {
  MapCacheSnapshot snap;
  snap.byte_budget = std::size_t(1) << 20;

  auto km = std::make_shared<KernelMap>();
  km->kernel_size = 3;
  km->maps.resize(2);
  km->maps[0].push_back({0, 1});
  km->maps[1].push_back({1, 0});
  km->stats.queries = 4;
  km->stats.index_accesses = 2;
  km->stats.build_accesses = 8;
  km->stats.used_symmetry = false;
  km->stats.backend = MapBackend::kGrid;
  MapCacheSnapshotEntry kmap_entry;
  kmap_entry.key = {0x1111, 0x2222};
  kmap_entry.payload.kmap = std::move(km);
  kmap_entry.bytes = map_cache_payload_bytes(kmap_entry.payload);
  kmap_entry.build_wall_seconds = 0.5;
  snap.entries.push_back(std::move(kmap_entry));

  auto cs = std::make_shared<std::vector<Coord>>(
      std::vector<Coord>{{0, 1, 2, 3}, {0, 4, 5, 6}, {1, 7, 8, 9}});
  MapCacheSnapshotEntry coords_entry;
  coords_entry.key = {0x3333, 0x4444};
  coords_entry.payload.coords = std::move(cs);
  coords_entry.payload.ds_counters.kernel_launches = 3;
  coords_entry.payload.ds_counters.dram_bytes = 1234.5;
  coords_entry.payload.ds_counters.instr_ops = 67.0;
  coords_entry.payload.ds_counters.candidates = 24;
  coords_entry.payload.ds_counters.kept = 3;
  coords_entry.bytes = map_cache_payload_bytes(coords_entry.payload);
  coords_entry.build_wall_seconds = 0.25;
  snap.entries.push_back(std::move(coords_entry));
  return snap;
}

std::string snapshot_bytes(const MapCacheSnapshot& snap) {
  std::stringstream ss;
  io::save_map_cache(ss, snap);
  return ss.str();
}

/// Offset of entry 1 in the sample image = header + entry 0's extent,
/// measured by serializing a one-entry snapshot rather than hand-adding
/// payload field sizes.
std::size_t sample_entry1_offset() {
  MapCacheSnapshot head = sample_snapshot();
  head.entries.pop_back();
  return snapshot_bytes(head).size();
}

void expect_load_error(std::string bytes, const std::string& needle) {
  std::stringstream corrupt(std::move(bytes));
  try {
    io::load_map_cache(corrupt);
    FAIL() << "expected std::runtime_error containing '" << needle << "'";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "actual message: " << e.what();
  }
}

TEST(MapCacheIo, FileRoundTrip) {
  const MapCacheSnapshot snap = sample_snapshot();
  const std::string path = "/tmp/ts_io_test.tsmc";
  io::save_map_cache_file(path, snap);
  const MapCacheSnapshot back = io::load_map_cache_file(path);
  EXPECT_EQ(back.byte_budget, snap.byte_budget);
  ASSERT_EQ(back.entries.size(), snap.entries.size());
  for (std::size_t i = 0; i < snap.entries.size(); ++i) {
    EXPECT_EQ(back.entries[i].key, snap.entries[i].key);
    EXPECT_EQ(back.entries[i].bytes, snap.entries[i].bytes);
    EXPECT_DOUBLE_EQ(back.entries[i].build_wall_seconds,
                     snap.entries[i].build_wall_seconds);
  }
  EXPECT_TRUE(back.entries[0].payload.kmap);
  EXPECT_TRUE(back.entries[1].payload.coords);
  EXPECT_EQ(back.entries[1].payload.coords->size(), 3u);
  EXPECT_DOUBLE_EQ(back.entries[1].payload.ds_counters.dram_bytes, 1234.5);

  EXPECT_THROW(io::load_map_cache_file("/tmp/ts_io_does_not_exist.tsmc"),
               std::runtime_error);
}

TEST(MapCacheIo, RejectsTruncatedSnapshot) {
  const std::string full = snapshot_bytes(sample_snapshot());
  // Cut inside the header, inside entry 0, and one byte short of the
  // end: each is a loud error, never a silently shorter cache.
  for (const std::size_t cut :
       {std::size_t(6), kSnapEntry0 + 10, full.size() - 1}) {
    expect_load_error(full.substr(0, cut), "truncated stream");
  }
}

TEST(MapCacheIo, RejectsBadMagicAndVersion) {
  const std::string full = snapshot_bytes(sample_snapshot());
  std::string bad_magic = full;
  bad_magic[0] = 'X';
  expect_load_error(std::move(bad_magic), "bad magic");
  std::string bad_version = full;
  bad_version[4] = 9;
  expect_load_error(std::move(bad_version), "unsupported version");
}

// Map-cache images are at format version 2: their keys mix set digests
// (coords_digest), so a version-1 image's keys would never hit again. A
// version-1 image is rejected, and loading it leaves the cache as it was.
TEST(MapCacheIo, VersionOneImageIsRejected) {
  const std::string full = snapshot_bytes(sample_snapshot());
  uint32_t version = 0;
  std::memcpy(&version, full.data() + 4, sizeof(version));
  EXPECT_EQ(version, 2u);
  std::string v1 = full;
  const uint32_t one = 1;
  std::memcpy(v1.data() + 4, &one, sizeof(one));
  expect_load_error(v1, "unsupported version");

  KernelMapCache cache(std::size_t(1) << 20);
  MapCachePayload resident;
  resident.coords = std::make_shared<const std::vector<Coord>>(
      std::vector<Coord>{{0, 1, 1, 1}});
  ASSERT_TRUE(cache.admit({0x5555, 0x6666}, resident));
  const MapCacheStats before = cache.stats();
  std::stringstream is(v1);
  try {
    cache.load_snapshot(is);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "unsupported version");
  }
  const MapCacheStats after = cache.stats();
  EXPECT_EQ(after.entries, before.entries);
  EXPECT_EQ(after.bytes_in_use, before.bytes_in_use);
  EXPECT_EQ(after.insertions, before.insertions);
  EXPECT_TRUE(cache.contains({0x5555, 0x6666}));
  for (const MapCacheSnapshotEntry& e : sample_snapshot().entries)
    EXPECT_FALSE(cache.contains(e.key));
}

TEST(MapCacheIo, RejectsImplausibleEntryCount) {
  std::string bytes = snapshot_bytes(sample_snapshot());
  // Patch the count's 4th byte: 2 entries become 2 + 2^24, past the
  // loader's plausibility limit — rejected before any allocation.
  bytes[kSnapCountOffset + 3] = 1;
  expect_load_error(std::move(bytes), "implausible element count");
}

TEST(MapCacheIo, RejectsOverBudgetEntry) {
  MapCacheSnapshot snap = sample_snapshot();
  std::string bytes = snapshot_bytes(snap);
  const uint64_t declared = static_cast<uint64_t>(snap.byte_budget) + 1;
  std::memcpy(&bytes[kSnapDeclaredOffset], &declared, sizeof(declared));
  expect_load_error(std::move(bytes),
                    "past the snapshot's own byte budget");
}

TEST(MapCacheIo, RejectsDigestPayloadMismatch) {
  std::string bytes = snapshot_bytes(sample_snapshot());
  uint64_t declared = 0;
  std::memcpy(&declared, &bytes[kSnapDeclaredOffset], sizeof(declared));
  ++declared;  // still under budget, but no longer what the payload is
  std::memcpy(&bytes[kSnapDeclaredOffset], &declared, sizeof(declared));
  expect_load_error(std::move(bytes), "snapshot digest/payload mismatch");
}

TEST(MapCacheIo, RejectsNegativeBuildTime) {
  std::string bytes = snapshot_bytes(sample_snapshot());
  bytes[kSnapBuildTimeOffset + 7] |= char(0x80);  // f64 sign bit
  expect_load_error(std::move(bytes),
                    "non-finite or negative build time");
}

TEST(MapCacheIo, RejectsUnknownPayloadKind) {
  std::string bytes = snapshot_bytes(sample_snapshot());
  bytes[kSnapKindOffset] = 7;
  expect_load_error(std::move(bytes), "unknown payload kind in snapshot");
}

TEST(MapCacheIo, RejectsCorruptKernelMapPayload) {
  const std::string full = snapshot_bytes(sample_snapshot());
  // kernel_size (i32) sits right after entry 0's kind byte.
  std::string zero_kernel = full;
  for (std::size_t i = 0; i < 4; ++i) zero_kernel[kSnapKindOffset + 1 + i] = 0;
  expect_load_error(std::move(zero_kernel),
                    "implausible kernel size in snapshot");

  // First pair's `in` index: kernel_size(4) + volume(8) + map-0 count(8).
  const std::size_t in_offset = kSnapKindOffset + 1 + 4 + 8 + 8;
  std::string negative_index = full;
  negative_index[in_offset + 3] = char(0x80);
  expect_load_error(std::move(negative_index),
                    "negative kernel-map index in snapshot");

  // Entry 0's last two bytes are the symmetry flag and the backend tag.
  const std::size_t entry1 = sample_entry1_offset();
  std::string bad_backend = full;
  bad_backend[entry1 - 1] = 2;
  expect_load_error(std::move(bad_backend), "bad map backend in snapshot");
  std::string bad_symmetry = full;
  bad_symmetry[entry1 - 2] = 2;
  expect_load_error(std::move(bad_symmetry), "bad symmetry flag in snapshot");
}

TEST(MapCacheIo, RejectsCorruptCoordsPayload) {
  const std::string full = snapshot_bytes(sample_snapshot());
  const std::size_t entry1 = sample_entry1_offset();
  // First coordinate's x field: entry header + coord count + Coord::b.
  const std::size_t x_offset = entry1 + kSnapEntryHeader + 8 + 4;
  std::string huge_coord = full;
  huge_coord[x_offset + 2] = char(0xFF);
  huge_coord[x_offset + 3] = char(0x7F);
  expect_load_error(std::move(huge_coord),
                    "coordinate out of range in snapshot");

  // dram_bytes (f64) is 4th-from-last of the five trailing counters.
  const std::size_t dram_offset = full.size() - 8 * 4;
  std::string negative_dram = full;
  negative_dram[dram_offset + 7] |= char(0x80);
  expect_load_error(std::move(negative_dram),
                    "non-finite or negative downsample counter in snapshot");
}

TEST(MapCacheIo, RejectsDuplicateDigest) {
  MapCacheSnapshot snap = sample_snapshot();
  snap.entries[1].key = snap.entries[0].key;
  // The save path doesn't deduplicate (it trusts the exporting cache,
  // whose map can't hold duplicates); the loader must.
  expect_load_error(snapshot_bytes(snap), "duplicate digest in snapshot");
}

TEST(MapCacheIo, SaveRejectsMalformedEntries) {
  // Exactly one payload per entry: zero or both is a caller bug the
  // writer refuses to serialize rather than emit an unloadable stream.
  MapCacheSnapshot empty_payload = sample_snapshot();
  empty_payload.entries[0].payload.kmap.reset();
  std::stringstream ss;
  EXPECT_THROW(io::save_map_cache(ss, empty_payload), std::runtime_error);

  MapCacheSnapshot both = sample_snapshot();
  both.entries[0].payload.coords = both.entries[1].payload.coords;
  std::stringstream ss2;
  EXPECT_THROW(io::save_map_cache(ss2, both), std::runtime_error);
}

TEST(Io, TimelineCsvContainsAllStages) {
  Timeline t;
  t.add(Stage::kGather, 0.001);
  t.add(Stage::kNMS, 0.0005);
  const std::string csv = io::timeline_csv(t);
  EXPECT_NE(csv.find("Gather,0.001"), std::string::npos);
  EXPECT_NE(csv.find("NMS,0.0005"), std::string::npos);
  EXPECT_NE(csv.find("total,"), std::string::npos);
  EXPECT_NE(csv.find("Mapping,0"), std::string::npos);
}

}  // namespace
}  // namespace ts
