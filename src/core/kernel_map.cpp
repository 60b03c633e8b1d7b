#include "core/kernel_map.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>

#include "hash/flat_hashmap.hpp"

namespace ts {

namespace {

/// Paper §4.4: the collision-free grid "requires exactly one DRAM access
/// per entry" — one per input coordinate it indexes and one per query it
/// answers, a query outside the grid's box included. Both grid builders
/// charge this rule, whatever the host does to find the matches.
void charge_grid_accesses(MapBuildStats& stats, std::size_t n_in) {
  stats.build_accesses = n_in;
  stats.index_accesses = stats.queries;
}

/// The probe loop's coordinate index: `in_coords` in one FlatHashMap,
/// inserted in order so a duplicated coordinate keeps its first position.
/// The hashmap backend is charged its real probe counts. The grid
/// backend is charged by charge_grid_accesses; its lookups skip any
/// candidate outside the input's (b, x, y, z) bounding box, which cannot
/// match. A candidate outside the packable range cannot match either (its
/// packed key would wrap onto an in-range one): it misses without a
/// lookup, and the hashmap backend charges it one probe, as a miss on an
/// empty table.
class ProbeIndex {
 public:
  ProbeIndex(const std::vector<Coord>& in_coords, MapBackend backend)
      : table_(in_coords.size()), grid_(backend == MapBackend::kGrid) {
    for (std::size_t i = 0; i < in_coords.size(); ++i)
      build_probes_ += table_.insert(in_coords[i], static_cast<int64_t>(i));
    if (grid_) coord_bounds(in_coords, lo_, hi_);
  }

  /// Returns the input position of `c`, or -1.
  int64_t find(const Coord& c) {
    if (grid_) {
      const bool in_box = c.b >= lo_.b && c.b <= hi_.b && c.x >= lo_.x &&
                          c.x <= hi_.x && c.y >= lo_.y && c.y <= hi_.y &&
                          c.z >= lo_.z && c.z <= hi_.z;
      return in_box ? table_.find(c) : FlatHashMap::kNotFound;
    }
    if (!coord_in_packable_range(c)) {
      ++find_probes_;
      return FlatHashMap::kNotFound;
    }
    std::size_t probes = 0;
    const int64_t j = table_.find(c, &probes);
    find_probes_ += probes;
    return j;
  }

  /// Host-side cache hint for an upcoming find(c); no modeled counters.
  void prefetch(const Coord& c) const { table_.prefetch(pack_coord(c)); }

  /// Hashmap backend: summed insert probes and summed find probes.
  std::size_t build_probes() const { return build_probes_; }
  std::size_t find_probes() const { return find_probes_; }

 private:
  FlatHashMap table_;
  bool grid_;
  Coord lo_{}, hi_{};
  std::size_t build_probes_ = 0;
  std::size_t find_probes_ = 0;
};

/// Completes a symmetric search of the first `volume / 2` offsets: mirrors
/// each searched map into its negated offset (in and out swapped) and
/// emits the center offset as the identity map over `n` points, with zero
/// queries.
void mirror_and_center(KernelMap& km, std::size_t n) {
  const int volume = km.volume();
  const int mid = volume / 2;
  for (int i = 0; i < mid; ++i) {
    const auto& m = km.maps[static_cast<std::size_t>(i)];
    auto& mm = km.maps[static_cast<std::size_t>(
        mirror_offset_index(volume, i))];
    mm.reserve(m.size());
    for (const MapEntry& e : m) mm.push_back({e.out, e.in});
  }
  auto& center = km.maps[static_cast<std::size_t>(mid)];
  center.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    center.push_back({static_cast<int32_t>(i), static_cast<int32_t>(i)});
}

/// Appends entries for offset `n` by querying candidate input coordinates
/// for every output point.
void search_offset(const std::vector<Coord>& out_coords, const Offset3& d,
                   const ConvGeometry& geom, ProbeIndex& index,
                   std::vector<MapEntry>& out, std::size_t& queries) {
  const int s = geom.stride;
  const int dil = geom.dilation;
  // Amortize push_back growth: matches are a sizable fraction of the
  // output set on real scans, so start at a quarter and let at most two
  // doublings cover dense offsets.
  out.reserve(out.size() + out_coords.size() / 4 + 16);
  const int32_t ox = dil * d.dx, oy = dil * d.dy, oz = dil * d.dz;
  if (!geom.transposed) {
    // Input lives at r = s*q + dilation*delta (paper Alg. 1, Fig. 5).
    // Each find() is a random probe into an index far larger than host
    // L1, so the loop is latency-bound: prefetch the probe slot a few
    // outputs ahead (host hint only; modeled access counts unchanged).
    constexpr std::size_t kPrefetchAhead = 8;
    const std::size_t n = out_coords.size();
    for (std::size_t k = 0; k < n; ++k) {
      if (k + kPrefetchAhead < n) {
        const Coord& f = out_coords[k + kPrefetchAhead];
        index.prefetch(
            Coord{f.b, s * f.x + ox, s * f.y + oy, s * f.z + oz});
      }
      const Coord& q = out_coords[k];
      const Coord r{q.b, s * q.x + ox, s * q.y + oy, s * q.z + oz};
      ++queries;
      const int64_t j = index.find(r);
      if (j >= 0)
        out.push_back({static_cast<int32_t>(j), static_cast<int32_t>(k)});
    }
    return;
  }
  for (std::size_t k = 0; k < out_coords.size(); ++k) {
    const Coord& q = out_coords[k];
    // Transposed conv: input (coarse) at (q - dilation*delta)/s when
    // divisible, the inverse of the forward relation.
    const int32_t ux = q.x - ox, uy = q.y - oy, uz = q.z - oz;
    // Arithmetic-correct floor-divisibility for negatives.
    auto divisible = [s](int32_t v) {
      return ((v % s) + s) % s == 0;
    };
    if (!(divisible(ux) && divisible(uy) && divisible(uz))) continue;
    auto div = [s](int32_t v) {
      return (v - (((v % s) + s) % s)) / s;  // floor division (exact here)
    };
    const Coord r{q.b, div(ux), div(uy), div(uz)};
    ++queries;
    const int64_t j = index.find(r);
    if (j >= 0)
      out.push_back({static_cast<int32_t>(j), static_cast<int32_t>(k)});
  }
}

// ---------------------------------------------------------------------
// Grid-backend fast path: column-fused sorted merge-join instead of
// per-point probes.
//
// The grid's modeled cost (charge_grid_accesses) is independent of how
// the host finds the matches. The host-side probe (a random access into
// a table far larger than L1) is the map-build wall-clock hotspot; we replace
// it with a merge-join over key-sorted coordinate lists: packed keys are
// lexicographic in (b, x, y, z), and the candidate map r = s*q + dil*delta
// is componentwise monotone, so candidates generated from sorted outputs
// are themselves sorted and one forward-only cursor over the sorted
// inputs finds every match.
//
// Offsets that differ only in dz form a column (offsets are enumerated
// with z fastest, so a column is a run of consecutive offset indices).
// The candidates of one output across a column share (b, x', y') and so
// lie in one short window of packed keys: one merge pass per column
// resolves all of them. The cursor advances to the window's first key
// (monotone in output order); every input key inside the window is then
// a match for the offset its z selects, and an empty window costs one
// compare.
//
// Emission order is the probe loop's — ascending output position, one
// entry per output at most — and the modeled counters are charged by the
// same rule, so the maps and stats are byte-identical to the probe loop's.
// ---------------------------------------------------------------------

constexpr uint64_t kZFieldMask = 0x3ffff;  // z field of a packed key

/// Merge-join for one column: offsets `col[0..nz)` share (dx, dy), and
/// their candidates for output q are s*q + dil*delta, searched within
/// the input level `in`'s bounds by one cursor over its keys. `sq` holds
/// the outputs in key order, scaled by the stride (s*q). The matches of
/// col[iz] go to `maps[iz]` in ascending output position, at exact
/// capacity (`count` holds the nz tallies): staged in `found` (`n_out`
/// slots per offset) when `out_pos` is empty (outputs in place), else
/// scattered into `scratch` (nz slots per output, all -1 on entry and on
/// return) and gathered by output position.
void search_column_grid_merge(const LevelKeys& in, const Coord* sq,
                              std::size_t n_out,
                              const std::vector<int32_t>& out_pos,
                              const Offset3* col, int nz, int dil,
                              std::vector<MapEntry>* maps, std::size_t* count,
                              std::vector<MapEntry>& found,
                              std::vector<int32_t>& scratch) {
  const int32_t ox = dil * col[0].dx, oy = dil * col[0].dy;
  int32_t oz_min = dil * col[0].dz, oz_max = oz_min;
  for (int iz = 1; iz < nz; ++iz) {
    oz_min = std::min(oz_min, dil * col[iz].dz);
    oz_max = std::max(oz_max, dil * col[iz].dz);
  }
  // Offset selected by a window key, indexed by z - (s*q.z + oz_min); -1
  // for z values between dilated candidates.
  std::vector<int> slot_of(static_cast<std::size_t>(oz_max - oz_min) + 1, -1);
  for (int iz = 0; iz < nz; ++iz)
    slot_of[static_cast<std::size_t>(dil * col[iz].dz - oz_min)] = iz;

  // In-bounds tests as one unsigned compare per axis.
  const Coord& lo = in.lo;
  const Coord& hi = in.hi;
  const auto span = [](int32_t l, int32_t h) {
    return static_cast<uint32_t>(h) - static_cast<uint32_t>(l);
  };
  const auto inside = [](int32_t v, int32_t l, uint32_t width) {
    return static_cast<uint32_t>(v) - static_cast<uint32_t>(l) <= width;
  };
  const uint32_t wb = span(lo.b, hi.b), wx = span(lo.x, hi.x),
                 wy = span(lo.y, hi.y);
  const auto field = [](int32_t v) {
    return static_cast<uint32_t>(v) - static_cast<uint32_t>(kCoordSpatialMin);
  };

  const std::size_t n_in = in.size();
  const uint64_t* keys = in.keys.data();
  const bool direct = out_pos.empty();
  MapEntry* const staged = found.data();
  int32_t* const slots = scratch.data();
  std::fill(count, count + nz, std::size_t{0});
  std::size_t ip = 0;
  for (std::size_t t = 0; t < n_out; ++t) {
    const Coord& q = sq[t];
    const int32_t x = q.x + ox, y = q.y + oy;
    const int32_t z_first = std::max(q.z + oz_min, lo.z);
    const int32_t z_last = std::min(q.z + oz_max, hi.z);
    if (!inside(q.b, lo.b, wb) || !inside(x, lo.x, wx) ||
        !inside(y, lo.y, wy) || z_first > z_last)
      continue;  // out of bounds: no possible match
    // Packed key layout (pack_coord); every field is in range here.
    const uint64_t row = static_cast<uint64_t>(q.b) << 54 |
                         uint64_t{field(x)} << 36 | uint64_t{field(y)} << 18;
    const uint64_t first = row | field(z_first);
    const uint64_t last = row | field(z_last);
    // The cursor usually moves a key or two per output: step without
    // branches first, then finish any longer skip in a loop.
    ip += keys[ip] < first;
    ip += keys[ip] < first;
    while (keys[ip] < first) ++ip;
    // z - (s*q.z + oz_min) of a window key, exact modulo 2^32 even where
    // s*q.z + oz_min lies below the packable range (the window itself
    // is clamped to lo.z).
    const uint32_t z_base = field(q.z + oz_min);
    for (std::size_t p = ip; p < n_in && keys[p] <= last; ++p) {
      const int iz =
          slot_of[static_cast<uint32_t>(keys[p] & kZFieldMask) - z_base];
      // A duplicated input coordinate matches at its first (lowest)
      // position only, as the probe loop's index keeps the first value.
      if (iz < 0 || (p > ip && keys[p] == keys[p - 1])) continue;
      const int32_t j = in.position(p);
      const auto k = static_cast<std::size_t>(iz);
      if (direct)
        staged[k * n_out + count[k]] = {j, static_cast<int32_t>(t)};
      else
        slots[static_cast<std::size_t>(out_pos[t]) *
                  static_cast<std::size_t>(nz) + k] = j;
      ++count[k];
    }
  }
  if (direct) {
    for (std::size_t k = 0; k < static_cast<std::size_t>(nz); ++k)
      maps[k].assign(staged + k * n_out, staged + k * n_out + count[k]);
    return;
  }
  for (std::size_t k = 0; k < static_cast<std::size_t>(nz); ++k)
    maps[k].reserve(count[k]);
  for (std::size_t t = 0; t < n_out; ++t) {
    int32_t* slot = slots + t * static_cast<std::size_t>(nz);
    for (std::size_t k = 0; k < static_cast<std::size_t>(nz); ++k) {
      if (slot[k] < 0) continue;
      maps[k].push_back({slot[k], static_cast<int32_t>(t)});
      slot[k] = -1;
    }
  }
}

/// Offsets a build searches: half the volume (rounded down) when it
/// mirrors the rest, else all of them.
int searched_offsets(const ConvGeometry& geom, const MapSearchOptions& opts) {
  const int volume = kernel_volume(geom.kernel_size);
  return opts.use_symmetry && geom.is_submanifold() ? volume / 2 : volume;
}

/// The column merge-join over the first `searched` offsets, into `km`:
/// `in` and `out` are the level records of the input set and of
/// `out_coords`. Kept out of line: inlined into build_kernel_map_grid,
/// the join ran 5-10% slower (bench_micro_kernels, BM_MapSearch*).
[[gnu::noinline]] void merge_join_offsets(const LevelKeys& in,
                                          const LevelKeys& out,
                                          const std::vector<Coord>& out_coords,
                                          const ConvGeometry& geom,
                                          int searched, KernelMap& km) {
  const auto offsets = kernel_offsets(geom.kernel_size);
  const std::size_t n_out = out_coords.size();
  // A column groups the offsets sharing (dx, dy); a zero dilation
  // collapses each column onto one z, so it searches offsets singly.
  const int kz = geom.dilation == 0 ? 1 : geom.kernel_size;
  // Outputs in key order, scaled by the stride: used in place when
  // already sorted at stride 1, else copied. Matches of sorted outputs
  // are staged per offset; others are scattered by output position.
  const int st = geom.stride;
  std::vector<Coord> scaled;
  if (!out.pos.empty() || st != 1) {
    scaled.resize(n_out);
    for (std::size_t t = 0; t < n_out; ++t) {
      const Coord& q = out_coords[static_cast<std::size_t>(out.position(t))];
      scaled[t] = {q.b, st * q.x, st * q.y, st * q.z};
    }
  }
  const Coord* sq = scaled.empty() ? out_coords.data() : scaled.data();
  std::vector<MapEntry> found;
  std::vector<int32_t> scratch;
  std::vector<std::size_t> count(static_cast<std::size_t>(kz));
  if (out.pos.empty())
    found.resize(static_cast<std::size_t>(kz) * n_out);
  else
    scratch.assign(n_out * static_cast<std::size_t>(kz), -1);
  for (int n = 0; n < searched;) {
    const Offset3& d = offsets[static_cast<std::size_t>(n)];
    int nz = 1;
    while (nz < kz && n + nz < searched &&
           offsets[static_cast<std::size_t>(n + nz)].dx == d.dx &&
           offsets[static_cast<std::size_t>(n + nz)].dy == d.dy)
      ++nz;
    search_column_grid_merge(in, sq, n_out, out.pos, &d, nz, geom.dilation,
                             &km.maps[static_cast<std::size_t>(n)],
                             count.data(), found, scratch);
    n += nz;
  }
}

/// Forward grid builds: the stats by the one-access rule, the merge-join
/// over the searched offsets (a symmetric k=1 build searches none and
/// reads no record), then the mirrored half and the center. A null level
/// record is made here; a submanifold build makes one for both sides.
KernelMap build_kernel_map_grid(const std::vector<Coord>& in_coords,
                                const std::vector<Coord>& out_coords,
                                const ConvGeometry& geom,
                                const MapSearchOptions& opts, bool symmetric,
                                const LevelKeys* in_level,
                                const LevelKeys* out_level) {
  const int searched = searched_offsets(geom, opts);
  KernelMap km;
  km.kernel_size = geom.kernel_size;
  km.maps.resize(static_cast<std::size_t>(kernel_volume(geom.kernel_size)));
  km.stats = grid_forward_stats(static_cast<std::size_t>(searched),
                                in_coords.size(), out_coords.size(),
                                symmetric);
  if (searched > 0 && !in_coords.empty()) {
    std::optional<LevelKeys> own_in, own_out;
    if (!in_level) in_level = &own_in.emplace(level_keys(in_coords));
    if (!out_level)
      out_level = &in_coords == &out_coords || in_coords == out_coords
                      ? in_level
                      : &own_out.emplace(level_keys(out_coords));
    merge_join_offsets(*in_level, *out_level, out_coords, geom, searched, km);
  }
  if (symmetric) mirror_and_center(km, out_coords.size());
  return km;
}

/// Throws std::invalid_argument for a kernel size or stride below 1, or
/// for symmetric search over two different sets.
void check_build(const std::vector<Coord>& in_coords,
                 const std::vector<Coord>& out_coords,
                 const ConvGeometry& geom, const MapSearchOptions& opts) {
  if (geom.kernel_size < 1)
    throw std::invalid_argument(
        "build_kernel_map: kernel_size must be >= 1 (got " +
        std::to_string(geom.kernel_size) + ")");
  if (geom.stride < 1)
    throw std::invalid_argument("build_kernel_map: stride must be >= 1 (got " +
                                std::to_string(geom.stride) + ")");
  // Mirroring a searched map is only valid when P_in == P_out; with
  // distinct sets it would emit entries indexing past the input set.
  if (opts.use_symmetry && geom.is_submanifold() &&
      &in_coords != &out_coords && in_coords != out_coords)
    throw std::invalid_argument(
        "build_kernel_map: symmetric map search needs identical input and "
        "output coordinate sets (got " +
        std::to_string(in_coords.size()) + " inputs, " +
        std::to_string(out_coords.size()) + " outputs)");
}

/// The probe loop: the hashmap backend, and transposed grid builds.
KernelMap build_kernel_map_probe(const std::vector<Coord>& in_coords,
                                 const std::vector<Coord>& out_coords,
                                 const ConvGeometry& geom,
                                 const MapSearchOptions& opts,
                                 bool symmetric) {
  const auto offsets = kernel_offsets(geom.kernel_size);
  const int volume = static_cast<int>(offsets.size());

  KernelMap km;
  km.kernel_size = geom.kernel_size;
  km.maps.resize(static_cast<std::size_t>(volume));
  km.stats.backend = opts.backend;
  km.stats.used_symmetry = symmetric;

  ProbeIndex index(in_coords, opts.backend);
  // Submanifold: P_in == P_out. Search the first half of the offsets and
  // infer the rest by mirroring.
  const int searched = searched_offsets(geom, opts);
  for (int n = 0; n < searched; ++n)
    search_offset(out_coords, offsets[static_cast<std::size_t>(n)], geom,
                  index, km.maps[static_cast<std::size_t>(n)],
                  km.stats.queries);
  if (symmetric) mirror_and_center(km, out_coords.size());

  if (opts.backend == MapBackend::kGrid) {
    charge_grid_accesses(km.stats, in_coords.size());
  } else {
    km.stats.build_accesses = index.build_probes();
    km.stats.index_accesses = index.find_probes();
  }
  return km;
}

}  // namespace

// Grid backend, forward convs: probe-free merge-join (identical maps,
// identical modeled counters, much cheaper host-side). The hashmap
// backend keeps the real probe loop — its modeled cost depends on the
// actual collision/probe counts of the table — and so do transposed grid
// builds, which are rare: decoders reuse the encoder's maps.
bool map_search_reads_levels(const ConvGeometry& geom,
                             const MapSearchOptions& opts) {
  return opts.backend == MapBackend::kGrid && !geom.transposed &&
         searched_offsets(geom, opts) > 0;
}

KernelMap build_kernel_map(const std::vector<Coord>& in_coords,
                           const std::vector<Coord>& out_coords,
                           const ConvGeometry& geom,
                           const MapSearchOptions& opts,
                           const LevelKeys* in_level,
                           const LevelKeys* out_level) {
  check_build(in_coords, out_coords, geom, opts);
  const bool symmetric = opts.use_symmetry && geom.is_submanifold();
  if (opts.backend == MapBackend::kGrid && !geom.transposed)
    return build_kernel_map_grid(in_coords, out_coords, geom, opts,
                                 symmetric, in_level, out_level);
  return build_kernel_map_probe(in_coords, out_coords, geom, opts,
                                symmetric);
}

MapBuildStats grid_forward_stats(std::size_t searched, std::size_t n_in,
                                 std::size_t n_out, bool symmetric) {
  MapBuildStats stats;
  stats.backend = MapBackend::kGrid;
  stats.used_symmetry = symmetric;
  // Each searched offset issues one query per output, bounds-rejected
  // ones included, as in the probe loop. The host never builds a grid.
  stats.queries = searched * n_out;
  charge_grid_accesses(stats, n_in);
  return stats;
}

KernelMap transpose_kernel_map(const KernelMap& km) {
  KernelMap out;
  out.kernel_size = km.kernel_size;
  out.maps.resize(km.maps.size());
  // A forward entry p_j = s*q_k + delta_n reads, in the transposed conv,
  // as output f_j = s * c_k + delta_n: same offset index, roles swapped.
  for (std::size_t n = 0; n < km.maps.size(); ++n) {
    out.maps[n].reserve(km.maps[n].size());
    for (const MapEntry& e : km.maps[n]) out.maps[n].push_back({e.out, e.in});
  }
  return out;
}

}  // namespace ts
