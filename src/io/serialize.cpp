#include "io/serialize.hpp"

#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unordered_set>
#include <utility>

namespace ts::io {

namespace {

constexpr uint32_t kPointsMagic = 0x54535054;    // "TSPT"
constexpr uint32_t kTensorMagic = 0x5453544e;    // "TSTN"
constexpr uint32_t kMapCacheMagic = 0x5453434d;  // "TSCM"
// Points and tensor images are at format version 1. Map-cache images
// have their own version, 2: their keys mix set digests (coords_digest),
// so a version-1 image's keys would never be looked up again.
constexpr uint32_t kVersion = 1;
constexpr uint32_t kMapCacheVersion = 2;

template <typename T>
void write_pod(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T read_pod(std::istream& is) {
  T v{};
  is.read(reinterpret_cast<char*>(&v), sizeof(T));
  if (!is) throw std::runtime_error("truncated stream");
  return v;
}

void expect_header(std::istream& is, uint32_t magic, uint32_t version) {
  if (read_pod<uint32_t>(is) != magic)
    throw std::runtime_error("bad magic");
  if (read_pod<uint32_t>(is) != version)
    throw std::runtime_error("unsupported version");
}

uint64_t read_count(std::istream& is, uint64_t limit) {
  const uint64_t n = read_pod<uint64_t>(is);
  if (n > limit) throw std::runtime_error("implausible element count");
  return n;
}

/// Saving to a failed/full stream must be a loud error in Debug and
/// Release alike, not a silently truncated file discovered at load time.
void check_write(const std::ostream& os, const char* what) {
  if (!os)
    throw std::runtime_error(std::string("write failed while saving ") +
                             what);
}

}  // namespace

void save_points(std::ostream& os, const std::vector<Point3>& pts) {
  write_pod(os, kPointsMagic);
  write_pod(os, kVersion);
  write_pod(os, static_cast<uint64_t>(pts.size()));
  for (const Point3& p : pts) {
    write_pod(os, p.x);
    write_pod(os, p.y);
    write_pod(os, p.z);
    write_pod(os, p.intensity);
    write_pod(os, p.time);
  }
  check_write(os, "points");
}

std::vector<Point3> load_points(std::istream& is) {
  expect_header(is, kPointsMagic, kVersion);
  const uint64_t n = read_count(is, 1ull << 32);
  std::vector<Point3> pts(n);
  for (Point3& p : pts) {
    p.x = read_pod<float>(is);
    p.y = read_pod<float>(is);
    p.z = read_pod<float>(is);
    p.intensity = read_pod<float>(is);
    p.time = read_pod<float>(is);
  }
  return pts;
}

void save_tensor(std::ostream& os, const SparseTensor& t) {
  // The header promises n x c floats; a feature-less tensor has none.
  require_features(t, "save_tensor");
  write_pod(os, kTensorMagic);
  write_pod(os, kVersion);
  write_pod(os, static_cast<uint64_t>(t.num_points()));
  write_pod(os, static_cast<uint64_t>(t.channels()));
  write_pod(os, static_cast<int32_t>(t.stride()));
  for (const Coord& c : t.coords()) {
    write_pod(os, c.b);
    write_pod(os, c.x);
    write_pod(os, c.y);
    write_pod(os, c.z);
  }
  os.write(reinterpret_cast<const char*>(t.feats().data()),
           static_cast<std::streamsize>(t.feats().size() * sizeof(float)));
  check_write(os, "tensor");
}

SparseTensor load_tensor(std::istream& is) {
  expect_header(is, kTensorMagic, kVersion);
  const uint64_t n = read_count(is, 1ull << 32);
  const uint64_t c = read_count(is, 1ull << 20);
  // A corrupt header can pass the magic check and still describe an
  // impossible tensor; every structural claim is validated before it can
  // mis-size an allocation or feed the engine state it assumes away.
  if (c == 0 && n > 0)
    throw std::runtime_error("channel count 0 with nonzero points");
  const int32_t stride = read_pod<int32_t>(is);
  if (stride < 1) throw std::runtime_error("bad tensor stride");
  if (stride > kCoordSpatialMax)
    throw std::runtime_error("implausible tensor stride");
  std::vector<Coord> coords(n);
  for (Coord& cc : coords) {
    cc.b = read_pod<int32_t>(is);
    cc.x = read_pod<int32_t>(is);
    cc.y = read_pod<int32_t>(is);
    cc.z = read_pod<int32_t>(is);
    if (!coord_in_packable_range(cc))
      throw std::runtime_error("coordinate out of range");
    // A stride-s coordinate is a stride-1 lattice point divided by s;
    // if scaling it back overflows the packable grid, the (coordinate,
    // stride) pair cannot have come from this engine and would overflow
    // grid addressing downstream.
    const auto scaled_ok = [stride](int32_t v) {
      const int64_t sv = static_cast<int64_t>(v) * stride;
      return sv >= kCoordSpatialMin && sv <= kCoordSpatialMax;
    };
    if (!(scaled_ok(cc.x) && scaled_ok(cc.y) && scaled_ok(cc.z)))
      throw std::runtime_error(
          "coordinate/stride combination overflows grid addressing");
  }
  Matrix feats(n, c);
  is.read(reinterpret_cast<char*>(feats.data()),
          static_cast<std::streamsize>(feats.size() * sizeof(float)));
  if (!is) throw std::runtime_error("truncated feature block");
  // Downstream numerics (pooling averages, BatchNorm, dense heads)
  // assume finite features; reject poison at the format boundary.
  for (std::size_t i = 0; i < feats.size(); ++i) {
    if (!std::isfinite(feats.data()[i]))
      throw std::runtime_error("non-finite feature value in tensor stream");
  }
  // Loaded tensors start a fresh cache at stride 1 semantics; non-unit
  // strides are restored by re-wrapping.
  SparseTensor base(std::move(coords), std::move(feats));
  if (stride == 1) return base;
  return SparseTensor(base.coords_ptr(), std::move(base.feats()), stride,
                      base.cache());
}

void save_points_file(const std::string& path,
                      const std::vector<Point3>& pts) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("cannot open " + path);
  save_points(os, pts);
}

std::vector<Point3> load_points_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("cannot open " + path);
  return load_points(is);
}

void save_tensor_file(const std::string& path, const SparseTensor& t) {
  require_features(t, "save_tensor");  // before the file is created
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("cannot open " + path);
  save_tensor(os, t);
}

SparseTensor load_tensor_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("cannot open " + path);
  return load_tensor(is);
}

namespace {

/// Payload kind tags of the snapshot format. Exactly one payload per
/// entry, discriminated up front so the loader never has to guess at a
/// corrupt entry's shape.
constexpr uint8_t kPayloadKernelMap = 0;
constexpr uint8_t kPayloadCoords = 1;

void save_map_cache_entry(std::ostream& os, const MapCacheSnapshotEntry& e) {
  const bool has_kmap = static_cast<bool>(e.payload.kmap);
  const bool has_coords = static_cast<bool>(e.payload.coords);
  if (has_kmap == has_coords)
    throw std::runtime_error(
        "save_map_cache: snapshot entry must hold exactly one payload "
        "(kernel map or downsampled coords)");
  write_pod(os, e.key.lo);
  write_pod(os, e.key.hi);
  write_pod(os, e.build_wall_seconds);
  write_pod(os, static_cast<uint64_t>(e.bytes));
  write_pod(os, has_kmap ? kPayloadKernelMap : kPayloadCoords);
  if (has_kmap) {
    const KernelMap& km = *e.payload.kmap;
    write_pod(os, static_cast<int32_t>(km.kernel_size));
    write_pod(os, static_cast<uint64_t>(km.maps.size()));
    for (const std::vector<MapEntry>& m : km.maps) {
      write_pod(os, static_cast<uint64_t>(m.size()));
      for (const MapEntry& me : m) {
        write_pod(os, me.in);
        write_pod(os, me.out);
      }
    }
    write_pod(os, static_cast<uint64_t>(km.stats.queries));
    write_pod(os, static_cast<uint64_t>(km.stats.index_accesses));
    write_pod(os, static_cast<uint64_t>(km.stats.build_accesses));
    write_pod(os, static_cast<uint8_t>(km.stats.used_symmetry ? 1 : 0));
    write_pod(os, static_cast<uint8_t>(
                      km.stats.backend == MapBackend::kGrid ? 1 : 0));
  } else {
    const std::vector<Coord>& cs = *e.payload.coords;
    write_pod(os, static_cast<uint64_t>(cs.size()));
    for (const Coord& c : cs) {
      write_pod(os, c.b);
      write_pod(os, c.x);
      write_pod(os, c.y);
      write_pod(os, c.z);
    }
    const DownsampleCounters& dc = e.payload.ds_counters;
    write_pod(os, static_cast<uint64_t>(dc.kernel_launches));
    write_pod(os, dc.dram_bytes);
    write_pod(os, dc.instr_ops);
    write_pod(os, static_cast<uint64_t>(dc.candidates));
    write_pod(os, static_cast<uint64_t>(dc.kept));
  }
}

MapCacheSnapshotEntry load_map_cache_entry(std::istream& is,
                                           std::size_t byte_budget) {
  MapCacheSnapshotEntry e;
  e.key.lo = read_pod<uint64_t>(is);
  e.key.hi = read_pod<uint64_t>(is);
  e.build_wall_seconds = read_pod<double>(is);
  if (!std::isfinite(e.build_wall_seconds) || e.build_wall_seconds < 0)
    throw std::runtime_error(
        "snapshot entry has a non-finite or negative build time");
  const uint64_t declared = read_pod<uint64_t>(is);
  // A saved cache never holds an entry past its own budget (oversized
  // payloads are returned to the builder, not cached), so this claim can
  // only come from a corrupt or forged stream — and it would mis-size
  // every downstream re-admission decision.
  if (declared > byte_budget)
    throw std::runtime_error(
        "snapshot entry declares " + std::to_string(declared) +
        " payload bytes, past the snapshot's own byte budget of " +
        std::to_string(byte_budget));
  const uint8_t kind = read_pod<uint8_t>(is);
  if (kind == kPayloadKernelMap) {
    auto km = std::make_shared<KernelMap>();
    km->kernel_size = read_pod<int32_t>(is);
    if (km->kernel_size < 1 || km->kernel_size > 64)
      throw std::runtime_error("implausible kernel size in snapshot");
    const uint64_t volume = read_count(is, 1ull << 20);
    km->maps.resize(volume);
    for (std::vector<MapEntry>& m : km->maps) {
      const uint64_t cnt = read_count(is, 1ull << 28);
      m.resize(cnt);
      for (MapEntry& me : m) {
        me.in = read_pod<int32_t>(is);
        me.out = read_pod<int32_t>(is);
        if (me.in < 0 || me.out < 0)
          throw std::runtime_error("negative kernel-map index in snapshot");
      }
    }
    km->stats.queries =
        static_cast<std::size_t>(read_pod<uint64_t>(is));
    km->stats.index_accesses =
        static_cast<std::size_t>(read_pod<uint64_t>(is));
    km->stats.build_accesses =
        static_cast<std::size_t>(read_pod<uint64_t>(is));
    const uint8_t symmetry = read_pod<uint8_t>(is);
    if (symmetry > 1)
      throw std::runtime_error("bad symmetry flag in snapshot");
    km->stats.used_symmetry = symmetry == 1;
    const uint8_t backend = read_pod<uint8_t>(is);
    if (backend > 1)
      throw std::runtime_error("bad map backend in snapshot");
    km->stats.backend =
        backend == 1 ? MapBackend::kGrid : MapBackend::kHashMap;
    e.payload.kmap = std::move(km);
  } else if (kind == kPayloadCoords) {
    const uint64_t cnt = read_count(is, 1ull << 32);
    auto cs = std::make_shared<std::vector<Coord>>(cnt);
    for (Coord& c : *cs) {
      c.b = read_pod<int32_t>(is);
      c.x = read_pod<int32_t>(is);
      c.y = read_pod<int32_t>(is);
      c.z = read_pod<int32_t>(is);
      if (!coord_in_packable_range(c))
        throw std::runtime_error("coordinate out of range in snapshot");
    }
    e.payload.coords = std::move(cs);
    DownsampleCounters dc;
    dc.kernel_launches = static_cast<std::size_t>(read_pod<uint64_t>(is));
    dc.dram_bytes = read_pod<double>(is);
    dc.instr_ops = read_pod<double>(is);
    if (!std::isfinite(dc.dram_bytes) || dc.dram_bytes < 0 ||
        !std::isfinite(dc.instr_ops) || dc.instr_ops < 0)
      throw std::runtime_error(
          "non-finite or negative downsample counter in snapshot");
    dc.candidates = static_cast<std::size_t>(read_pod<uint64_t>(is));
    dc.kept = static_cast<std::size_t>(read_pod<uint64_t>(is));
    e.payload.ds_counters = dc;
  } else {
    throw std::runtime_error("unknown payload kind in snapshot");
  }
  // The declared footprint must be reproducible from the payload itself;
  // a mismatch means the digest header and the payload body disagree
  // about what was saved (bit rot, a splice of two snapshots, or a
  // truncation that happened to land on a field boundary).
  e.bytes = map_cache_payload_bytes(e.payload);
  if (e.bytes != declared)
    throw std::runtime_error(
        "snapshot digest/payload mismatch: entry declares " +
        std::to_string(declared) + " bytes but its payload reconstructs to " +
        std::to_string(e.bytes));
  return e;
}

}  // namespace

void save_map_cache(std::ostream& os, const MapCacheSnapshot& snap) {
  write_pod(os, kMapCacheMagic);
  write_pod(os, kMapCacheVersion);
  write_pod(os, static_cast<uint64_t>(snap.byte_budget));
  write_pod(os, static_cast<uint64_t>(snap.entries.size()));
  for (const MapCacheSnapshotEntry& e : snap.entries)
    save_map_cache_entry(os, e);
  check_write(os, "map cache snapshot");
}

MapCacheSnapshot load_map_cache(std::istream& is) {
  expect_header(is, kMapCacheMagic, kMapCacheVersion);
  MapCacheSnapshot snap;
  snap.byte_budget = static_cast<std::size_t>(read_pod<uint64_t>(is));
  const uint64_t n = read_count(is, 1ull << 24);
  snap.entries.reserve(static_cast<std::size_t>(n));
  std::unordered_set<MapCacheKey, MapCacheKeyHash> seen;
  seen.reserve(static_cast<std::size_t>(n));
  for (uint64_t i = 0; i < n; ++i) {
    MapCacheSnapshotEntry e = load_map_cache_entry(is, snap.byte_budget);
    if (!seen.insert(e.key).second)
      throw std::runtime_error("duplicate digest in snapshot");
    snap.entries.push_back(std::move(e));
  }
  return snap;
}

void save_map_cache_file(const std::string& path,
                         const MapCacheSnapshot& snap) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("cannot open " + path);
  save_map_cache(os, snap);
}

MapCacheSnapshot load_map_cache_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("cannot open " + path);
  return load_map_cache(is);
}

std::string timeline_csv(const Timeline& t) {
  std::ostringstream os;
  os << "stage,seconds\n";
  for (std::size_t s = 0; s < kNumStages; ++s) {
    const Stage st = static_cast<Stage>(s);
    os << to_string(st) << "," << t.stage_seconds(st) << "\n";
  }
  os << "total," << t.total_seconds() << "\n";
  return os.str();
}

}  // namespace ts::io

namespace ts {

// Declared in core/kernel_map_cache.hpp; defined here so the stream
// format lives with the other io formats while the cache header stays
// free of serialization concerns.
void KernelMapCache::save_snapshot(std::ostream& os) const {
  io::save_map_cache(os, export_snapshot());
}

void KernelMapCache::load_snapshot(std::istream& is) {
  import_snapshot(io::load_map_cache(is));
}

}  // namespace ts
