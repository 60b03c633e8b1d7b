#include "core/downsample.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/kernel_offsets.hpp"
#include "hash/coords.hpp"

namespace ts {

namespace {

constexpr double kCoordBytes = 16.0;  // (b,x,y,z) as 4x int32
constexpr double kKeyBytes = 8.0;     // packed 1-D key
constexpr double kMaskBytes = 1.0;

/// floor(v / s) for s > 0.
int32_t floor_div(int32_t v, int32_t s) {
  return v / s - (v % s < 0 ? 1 : 0);
}

/// Charges the final "Unique Filtering" kernel over `n` surviving keys.
/// Sort + unique touch the key array a few times in both the staged and
/// the fused pipeline.
void charge_unique(std::size_t n, DownsampleCounters* c) {
  if (!c) return;
  c->kernel_launches += 1;
  c->dram_bytes += 4.0 * kKeyBytes * static_cast<double>(n);
  c->instr_ops += 8.0 * static_cast<double>(n);
}

/// The output level of the `m` ascending unique keys at `sorted`.
DownsampledLevel make_level(const uint64_t* sorted, std::size_t m) {
  DownsampledLevel out;
  out.keys.keys.reserve(m + 1);
  out.keys.keys.assign(sorted, sorted + m);
  out.keys.keys.push_back(~uint64_t{0});
  out.coords.resize(m);
  if (m == 0) return out;
  Coord lo = unpack_coord(sorted[0]), hi = lo;
  for (std::size_t i = 0; i < m; ++i) {
    const Coord u = unpack_coord(sorted[i]);
    out.coords[i] = u;
    lo = {std::min(lo.b, u.b), std::min(lo.x, u.x), std::min(lo.y, u.y),
          std::min(lo.z, u.z)};
    hi = {std::max(hi.b, u.b), std::max(hi.x, u.x), std::max(hi.y, u.y),
          std::max(hi.z, u.z)};
  }
  out.keys.lo = lo;
  out.keys.hi = hi;
  return out;
}

/// Sorts and deduplicates the surviving keys into the output level. The
/// radix sort's scratch is the second half of `keys`, which the sweep's
/// reservation already holds for every geometry the models use.
DownsampledLevel unique_sorted(std::vector<uint64_t>& keys) {
  const std::size_t n = keys.size();
  keys.resize(2 * n);
  uint64_t* sorted =
      radix_sort_keys(keys.data(), keys.data() + n, nullptr, nullptr, n);
  return make_level(sorted, static_cast<std::size_t>(
                                std::unique(sorted, sorted + n) - sorted));
}

/// unique_sorted, moving each key's candidate index (input position *
/// volume + offset index) along, then filling the strided map from the
/// sorted pairs. Candidates of one output stay in sweep order, ascending
/// input position, so the first pair of an (output, offset) holds the
/// lowest input position; a later one comes from a duplicated input and
/// is dropped. Each offset's entries come out in ascending output order.
DownsampledLevel unique_sorted_with_map(std::vector<uint64_t>& keys,
                                        std::vector<int32_t>& cand,
                                        int kernel_size, std::size_t n_in) {
  const std::size_t n = keys.size();
  keys.resize(2 * n);
  cand.resize(2 * n);
  uint64_t* sorted = radix_sort_keys(keys.data(), keys.data() + n,
                                     cand.data(), cand.data() + n, n);
  const bool first_half = sorted == keys.data();
  // Each pair's candidate index, rewritten to its offset index, or to -1
  // for a dropped pair.
  int32_t* pair = first_half ? cand.data() : cand.data() + n;
  // The sort's other key half is free: it holds each pair's entry,
  // output rank above input position, until the fill.
  uint64_t* entry = first_half ? keys.data() + n : keys.data();
  const int32_t volume = kernel_volume(kernel_size);
  const auto v = static_cast<std::size_t>(volume);
  std::vector<int32_t> last_out(v, -1);  // last output given each offset
  std::vector<std::size_t> count(v, 0);
  std::size_t m = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (m == 0 || sorted[i] != sorted[m - 1]) sorted[m++] = sorted[i];
    const auto t = static_cast<int32_t>(m - 1);
    const int32_t j = pair[i] / volume;
    const int32_t o = pair[i] - j * volume;
    const auto slot = static_cast<std::size_t>(o);
    if (last_out[slot] == t) {
      pair[i] = -1;
      continue;
    }
    last_out[slot] = t;
    ++count[slot];
    pair[i] = o;
    entry[i] = uint64_t{static_cast<uint32_t>(t)} << 32 |
               static_cast<uint32_t>(j);
  }
  DownsampledLevel out = make_level(sorted, m);
  KernelMap& km = out.map.emplace();
  km.kernel_size = kernel_size;
  km.maps.resize(v);
  km.stats = grid_forward_stats(v, n_in, m, false);
  for (std::size_t o = 0; o < v; ++o) km.maps[o].reserve(count[o]);
  for (std::size_t i = 0; i < n; ++i) {
    if (pair[i] < 0) continue;
    km.maps[static_cast<std::size_t>(pair[i])].push_back(
        {static_cast<int32_t>(static_cast<uint32_t>(entry[i])),
         static_cast<int32_t>(entry[i] >> 32)});
  }
  return out;
}

/// downsample_level, and with kEmitMap downsample_level_with_map.
template <bool kEmitMap>
DownsampledLevel downsample(const std::vector<Coord>& in,
                            const LevelKeys* in_level, int kernel_size,
                            int stride, bool fused, bool simplified_control,
                            DownsampleCounters* counters) {
  if (stride < 2)
    throw std::invalid_argument("downsample_coords: stride must be >= 2 (got " +
                                std::to_string(stride) + ")");
  if (kernel_size < 1)
    throw std::invalid_argument(
        "downsample_coords: kernel_size must be >= 1 (got " +
        std::to_string(kernel_size) + ")");
  if (kEmitMap && !downsample_map_fits(in.size(), kernel_size))
    throw std::invalid_argument(
        "downsample_level_with_map: " + std::to_string(in.size()) +
        " points at kernel size " + std::to_string(kernel_size) +
        " have more candidates than an int32 indexes");
  const auto offsets = kernel_offsets(kernel_size);
  const std::size_t k = offsets.size();
  const std::size_t n_cand = in.size() * k;
  if (counters) counters->candidates = n_cand;

  Coord lo{}, hi{};
  if (in_level) {
    lo = in_level->lo;
    hi = in_level->hi;
  } else {
    coord_bounds(in, lo, hi);
  }
  // A candidate u = s * c survives the boundary check exactly when its
  // coarse coordinate c lies in [ceil(lo / s), floor(hi / s)].
  const Coord c_lo{0, -floor_div(-lo.x, stride), -floor_div(-lo.y, stride),
                   -floor_div(-lo.z, stride)};
  const Coord c_hi{0, floor_div(hi.x, stride), floor_div(hi.y, stride),
                   floor_div(hi.z, stride)};

  std::vector<uint64_t> keys;
  keys.reserve(n_cand / static_cast<std::size_t>(stride));
  // With the map: the candidate index of each surviving key.
  std::vector<int32_t> cand;
  if constexpr (kEmitMap) cand.reserve(keys.capacity());

  // One host pass computes the surviving keys for both pipeline variants:
  // the staged/fused split only changes the *modeled* kernel count and
  // intermediate DRAM traffic (charged analytically below), never the
  // surviving coordinates, so the host need not materialize the staged
  // pipeline's intermediate candidate arrays.
  //
  // The sweep visits each input's residue class alone. p - d lies on the
  // coarse grid exactly when d = p (mod s) on every axis, and the offsets
  // are the product of one axis range {o, ..., o + K - 1} (kernel_offsets),
  // so along each axis the class holds the range indices i = g - s * c
  // with g = p - o, for c from floor(g / s) down while i < K. Walking x,
  // then y, then z in ascending i keeps the all-offsets sweep's order:
  // ascending input position, then ascending offset index.
  const int32_t axis_lo = offsets.front().dx;
  struct AxisStart {
    int64_t i;  // first range index of the class along the axis
    int32_t c;  // its coarse coordinate
  };
  auto start = [&](int32_t v) {
    const int32_t g = v - axis_lo;
    const int32_t c = floor_div(g, stride);
    return AxisStart{g - int64_t{c} * stride, c};
  };
  const int64_t kk = kernel_size;
  [[maybe_unused]] int32_t base = 0;  // input position * volume
  for (const Coord& p : in) {
    const AxisStart x0 = start(p.x), y0 = start(p.y), z0 = start(p.z);
    for (int64_t ix = x0.i, cx = x0.c; ix < kk; ix += stride, --cx) {
      if (cx < c_lo.x || cx > c_hi.x) continue;
      for (int64_t iy = y0.i, cy = y0.c; iy < kk; iy += stride, --cy) {
        if (cy < c_lo.y || cy > c_hi.y) continue;
        const int64_t ixy = (ix * kk + iy) * kk;
        for (int64_t iz = z0.i, cz = z0.c; iz < kk; iz += stride, --cz) {
          if (cz < c_lo.z || cz > c_hi.z) continue;
          keys.push_back(pack_coord(Coord{p.b, static_cast<int32_t>(cx),
                                          static_cast<int32_t>(cy),
                                          static_cast<int32_t>(cz)}));
          if constexpr (kEmitMap)
            cand.push_back(base + static_cast<int32_t>(ixy + iz));
        }
      }
    }
    if constexpr (kEmitMap) base += static_cast<int32_t>(k);
  }

  if (!fused) {
    // --- Staged pipeline: five kernels, intermediates in DRAM (Fig. 10
    // top): candidate calculation (broadcast add), modular check,
    // boundary check, nD -> 1D conversion of survivors.
    if (counters) {
      const double nc = static_cast<double>(n_cand);
      const double nin = static_cast<double>(in.size());
      counters->kernel_launches += 4;
      counters->dram_bytes +=
          nin * kCoordBytes + nc * kCoordBytes +          // S1: read, write
          nc * (kCoordBytes + kMaskBytes) +               // S2: read, write
          nc * (kCoordBytes + kMaskBytes + kMaskBytes) +  // S3
          nc * (kCoordBytes + kMaskBytes) +               // S4 reads
          static_cast<double>(keys.size()) * kKeyBytes;   // S4 writes
      counters->instr_ops += nc * 36.0;  // 4 control-heavy kernel passes
    }
  } else {
    // --- Fused kernel: stages 1-4 in registers, one pass (Fig. 10
    // bottom). Identical math, no intermediate arrays.
    if (counters) {
      counters->kernel_launches += 1;
      counters->dram_bytes += static_cast<double>(in.size()) * kCoordBytes +
                              static_cast<double>(keys.size()) * kKeyBytes;
      counters->instr_ops += static_cast<double>(n_cand) *
                             (simplified_control ? 5.0 : 16.0);
    }
  }

  if (counters) counters->kept = keys.size();
  charge_unique(keys.size(), counters);
  if constexpr (kEmitMap)
    return unique_sorted_with_map(keys, cand, kernel_size, in.size());
  else
    return unique_sorted(keys);
}

}  // namespace

std::vector<Coord> downsample_coords(const std::vector<Coord>& in,
                                     int kernel_size, int stride, bool fused,
                                     bool simplified_control,
                                     DownsampleCounters* counters) {
  return downsample_level(in, nullptr, kernel_size, stride, fused,
                          simplified_control, counters)
      .coords;
}

DownsampledLevel downsample_level(const std::vector<Coord>& in,
                                  const LevelKeys* in_level, int kernel_size,
                                  int stride, bool fused,
                                  bool simplified_control,
                                  DownsampleCounters* counters) {
  return downsample<false>(in, in_level, kernel_size, stride, fused,
                           simplified_control, counters);
}

bool downsample_map_fits(std::size_t n_in, int kernel_size) {
  const auto volume = static_cast<std::size_t>(kernel_volume(kernel_size));
  return volume == 0 ||
         n_in <= static_cast<std::size_t>(
                     std::numeric_limits<int32_t>::max()) / volume;
}

DownsampledLevel downsample_level_with_map(
    const std::vector<Coord>& in, const LevelKeys* in_level, int kernel_size,
    int stride, bool fused, bool simplified_control,
    DownsampleCounters* counters) {
  return downsample<true>(in, in_level, kernel_size, stride, fused,
                          simplified_control, counters);
}

}  // namespace ts
