#include "core/conv3d.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/downsample.hpp"
#include "core/gather_scatter.hpp"
#include "core/kernel_offsets.hpp"
#include "core/mapping_cost.hpp"
#include "core/matmul_group.hpp"
#include "gpusim/coalesce.hpp"

namespace ts {

namespace {

/// Applies the modeled accounting for a mapping-stage product resolved
/// through the cross-request cache. Immediate mode (no event log) charges
/// the warm or cold cost directly; deferred mode always charges cold and
/// records the event for the owner's deterministic submission-order
/// replay (see core/kernel_map_cache.hpp).
void account_cache_resolve(const MapCacheKey& key, std::size_t bytes,
                           const MapCharge& cold, const MapCharge& warm,
                           bool was_hit, ExecContext& ctx) {
  if (ctx.cache_events) {
    apply_map_charge(cold, ctx);
    ctx.cache_events->push_back({key, bytes, cold.seconds, cold.dram_bytes,
                                 cold.launches, warm.seconds,
                                 warm.dram_bytes, warm.launches});
    return;
  }
  apply_map_charge(was_hit ? warm : cold, ctx);
}

/// Resolves the output coordinate set (paper §2.1.1): identity for
/// stride 1, cached-or-computed coarse coordinates for downsampling, and
/// cached fine coordinates for transposed (decoder) convolutions.
std::shared_ptr<const std::vector<Coord>> resolve_output_coords(
    const SparseTensor& x, const ConvGeometry& geom, int& out_stride,
    ExecContext& ctx) {
  TensorCache& cache = *x.cache();
  if (geom.transposed) {
    if (geom.stride <= 0 || x.stride() % geom.stride != 0)
      throw std::runtime_error("transposed conv stride " +
                               std::to_string(geom.stride) +
                               " does not divide tensor stride " +
                               std::to_string(x.stride()));
    out_stride = x.stride() / geom.stride;
    auto it = cache.coords_at_stride.find(out_stride);
    if (it == cache.coords_at_stride.end())
      throw std::runtime_error(
          "transposed conv requires cached coordinates at the target "
          "stride (run the matching downsample first)");
    return it->second;
  }
  if (geom.stride == 1) {
    out_stride = x.stride();
    return x.coords_ptr();
  }
  out_stride = x.stride() * geom.stride;
  if (auto it = cache.coords_at_stride.find(out_stride);
      it != cache.coords_at_stride.end())
    return it->second;

  std::shared_ptr<const std::vector<Coord>> coords;
  if (ctx.map_cache) {
    // The model namespace salts the digest so two models with identical
    // geometry resolve disjoint cache entries (salt 0 = identity).
    const MapCacheKey ck = salt_cache_key(
        downsample_cache_key(x.coords(), geom.kernel_size, geom.stride,
                             ctx.cfg.fused_downsample,
                             ctx.cfg.simplified_control),
        ctx.cache_namespace);
    bool hit = false;
    const MapCachePayload payload = ctx.map_cache->get_or_build(
        ck,
        [&] {
          MapCachePayload p;
          DownsampleCounters dc;
          p.coords = std::make_shared<const std::vector<Coord>>(
              downsample_coords(x.coords(), geom.kernel_size, geom.stride,
                                ctx.cfg.fused_downsample,
                                ctx.cfg.simplified_control, &dc));
          p.ds_counters = dc;
          return p;
        },
        &hit);
    coords = payload.coords;
    account_cache_resolve(
        ck, map_cache_payload_bytes(payload),
        downsample_charge(payload.ds_counters, ctx),
        map_cache_hit_charge(x.num_points(), coords->size(), ctx), hit, ctx);
  } else {
    DownsampleCounters dc;
    coords = std::make_shared<const std::vector<Coord>>(downsample_coords(
        x.coords(), geom.kernel_size, geom.stride, ctx.cfg.fused_downsample,
        ctx.cfg.simplified_control, &dc));
    charge_downsample(dc, ctx);
  }
  cache.coords_at_stride[out_stride] = coords;
  return coords;
}

/// Resolves the kernel map, reusing the tensor cache: stride-1 maps are
/// shared by every submanifold layer at the same level, and transposed
/// convolutions relabel the matching downsample map (in/out swapped).
/// On a tensor-cache miss, the cross-request KernelMapCache (when
/// enabled) is consulted by content key before building from scratch.
std::shared_ptr<const KernelMap> resolve_kernel_map(
    const SparseTensor& x, const ConvGeometry& geom,
    const std::vector<Coord>& out_coords, ExecContext& ctx) {
  TensorCache& cache = *x.cache();
  const int fine_stride =
      geom.transposed ? x.stride() / geom.stride : x.stride();
  const MapKey key{fine_stride, geom.kernel_size, geom.stride,
                   geom.dilation};

  if (auto it = cache.kmaps.find(key); it != cache.kmaps.end()) {
    if (!geom.transposed) return it->second;  // direct reuse, no kernels
    auto km = std::make_shared<KernelMap>(transpose_kernel_map(*it->second));
    charge_map_transpose(km->total(), ctx);
    return km;
  }

  MapSearchOptions opts;
  opts.backend = ctx.cfg.map_backend;
  opts.use_symmetry = ctx.cfg.symmetric_map_search && geom.is_submanifold();

  std::shared_ptr<const KernelMap> km;
  if (ctx.map_cache) {
    const MapCacheKey ck = salt_cache_key(
        kernel_map_cache_key(x.coords(), out_coords, geom, opts),
        ctx.cache_namespace);
    bool hit = false;
    const MapCachePayload payload = ctx.map_cache->get_or_build(
        ck,
        [&] {
          MapCachePayload p;
          p.kmap = std::make_shared<const KernelMap>(
              build_kernel_map(x.coords(), out_coords, geom, opts));
          return p;
        },
        &hit);
    km = payload.kmap;
    account_cache_resolve(
        ck, map_cache_payload_bytes(payload),
        map_build_charge(km->stats, km->total(), out_coords.size(), ctx),
        map_cache_hit_charge(x.num_points(), out_coords.size(), ctx), hit,
        ctx);
  } else {
    KernelMap built = build_kernel_map(x.coords(), out_coords, geom, opts);
    charge_map_build(built.stats, built.total(), out_coords.size(), ctx);
    km = std::make_shared<const KernelMap>(std::move(built));
  }

  if (geom.transposed) {
    // Store the forward orientation so a later layer can reuse it.
    cache.kmaps[key] =
        std::make_shared<const KernelMap>(transpose_kernel_map(*km));
  } else {
    cache.kmaps[key] = km;
  }
  return km;
}

/// Fetch-on-demand dataflow (MinkowskiEngine's small-workload path, §5.2
/// and Lin et al. 2021): one implicit-GEMM kernel per layer, no gather or
/// scatter buffers — input rows are fetched as needed and partial sums
/// reduced in registers. Wins when launch overhead and buffer traffic
/// dominate; loses utilization on large workloads.
void charge_fetch_on_demand(const KernelMap& km, std::size_t n_out,
                            std::size_t c_in, std::size_t c_out,
                            ExecContext& ctx) {
  const double total = static_cast<double>(km.total());
  if (total == 0) return;
  const Precision p = ctx.cfg.precision;
  const std::size_t row_in = c_in * bytes_per_channel(p);
  const std::size_t row_out =
      c_out * bytes_per_channel(p == Precision::kFP32 ? Precision::kFP32
                                                      : Precision::kFP16);
  const double flops = 2.0 * total * static_cast<double>(c_in) *
                       static_cast<double>(c_out);
  // Implicit GEMM over irregular neighbor segments: well below the
  // utilization of an explicit GEMM with the same total rows (it skips
  // the gather/scatter buffers but pays in MAC efficiency) — which is why
  // fetch-on-demand only wins on small workloads (paper §5.2).
  const double util =
      0.30 * ctx.cost.mm_utilization(total, static_cast<double>(c_in),
                                     static_cast<double>(c_out), p);
  const double compute = flops / (ctx.cost.peak_tflops(p) * 1e12 * util);

  double dram = 0;
  if (ctx.simulate_cache) {
    const double before = ctx.l2.dram_bytes();
    ctx.l2.replay([&](CacheSim::ReplaySink& l2s) {
      for (const auto& m : km.maps)
        for (const MapEntry& e : m)
          l2s.access(static_cast<uint64_t>(e.in) * row_in, row_in, false);
      for (std::size_t k = 0; k < n_out; ++k)
        l2s.access((3ull << 40) + k * row_out, row_out, true);
    });
    dram = ctx.l2.dram_bytes() - before;
  } else {
    const std::size_t lines = (row_in + kTransactionBytes - 1) /
                              kTransactionBytes;
    dram = total * static_cast<double>(lines * kTransactionBytes) +
           static_cast<double>(n_out) * static_cast<double>(row_out);
  }
  dram += total * 8.0;  // map entries
  const double t = ctx.cost.launch_seconds() + std::max(compute,
                                                        ctx.cost.dram_seconds(dram));
  ctx.timeline.add(Stage::kMatMul, t);
  ctx.timeline.add_flops(flops);
  ctx.timeline.add_dram_bytes(dram);
  ctx.timeline.add_kernel_launches(1);
}

/// Matmul cost via the planned grouping (paper §4.2, Alg. 4).
void charge_matmuls(const std::vector<std::size_t>& sizes, bool submanifold,
                    std::size_t c_in, std::size_t c_out, ExecContext& ctx) {
  const auto groups = plan_groups(sizes, submanifold, ctx.cfg.grouping,
                                  ctx.params_for_layer());
  for (const MMGroup& g : groups) {
    KernelCost kc;
    if (g.use_bmm) {
      kc = ctx.cost.bmm(g.offsets.size(), g.padded_rows, c_in, c_out,
                        ctx.cfg.precision);
    } else {
      for (int n : g.offsets) {
        const KernelCost one = ctx.cost.mm(
            sizes[static_cast<std::size_t>(n)], c_in, c_out,
            ctx.cfg.precision);
        kc.seconds += one.seconds;
        kc.flops += one.flops;
        kc.dram_bytes += one.dram_bytes;
        ctx.timeline.add_kernel_launches(1);
      }
    }
    if (g.use_bmm) ctx.timeline.add_kernel_launches(1);
    ctx.timeline.add(Stage::kMatMul, kc.seconds);
    ctx.timeline.add_flops(kc.flops);
    ctx.timeline.add_dram_bytes(kc.dram_bytes);
  }
}

/// Output rows below which a numerics partition costs more to hand out
/// than it saves.
constexpr std::size_t kMinRowsPerPartition = 64;

/// Numerics partitions per pool thread: more partitions than threads let
/// whoever finishes first take a slow partition's neighbours.
constexpr std::size_t kPartitionsPerThread = 3;

}  // namespace

SparseTensor sparse_conv3d(const SparseTensor& x, const Conv3dParams& p,
                           ExecContext& ctx) {
  const ConvGeometry& geom = p.geom;
  const int volume = kernel_volume(geom.kernel_size);
  if (static_cast<int>(p.weights.size()) != volume)
    throw std::invalid_argument(
        "sparse_conv3d: got " + std::to_string(p.weights.size()) +
        " weight matrices for kernel volume " + std::to_string(volume));
  if (geom.stride <= 0)
    throw std::invalid_argument("sparse_conv3d: stride must be positive, got " +
                                std::to_string(geom.stride));
  const std::size_t c_in = p.in_channels();
  const std::size_t c_out = p.out_channels();
  if (x.channels() != c_in)
    throw std::invalid_argument(
        "sparse_conv3d: input has " + std::to_string(x.channels()) +
        " channels but the layer expects " + std::to_string(c_in));

  int out_stride = x.stride();
  auto out_coords = resolve_output_coords(x, geom, out_stride, ctx);
  auto km = resolve_kernel_map(x, geom, *out_coords, ctx);

  const std::size_t n_in = x.num_points();
  const std::size_t n_out = out_coords->size();
  const auto sizes = km->sizes();
  const bool submanifold = geom.is_submanifold();
  const int center = submanifold ? center_offset_index(geom.kernel_size) : -1;

  if (ctx.recorder) {
    LayerRecord rec;
    rec.layer_id = ctx.layer_id;
    rec.map_sizes = sizes;
    rec.c_in = c_in;
    rec.c_out = c_out;
    rec.submanifold = submanifold;
    ctx.recorder->push_back(std::move(rec));
  }

  Matrix out_feats(n_out, c_out);

  // Dataflow selection: MinkowskiEngine-style engines switch to
  // fetch-on-demand when the mean per-offset workload is small.
  const double mean_size =
      static_cast<double>(km->total()) / static_cast<double>(volume);
  const bool use_fod =
      ctx.cfg.dataflow == Dataflow::kFetchOnDemand ||
      (ctx.cfg.fod_threshold > 0 && mean_size < ctx.cfg.fod_threshold);
  // Data movement covers every nonzero offset except (for submanifold
  // layers with the optimization enabled, on gather-matmul-scatter) the
  // center, which multiplies the input features in place.
  const bool center_in_place =
      !use_fod && submanifold && ctx.cfg.skip_center_movement;

  if (use_fod) {
    charge_fetch_on_demand(*km, n_out, c_in, c_out, ctx);
  } else {
    std::vector<int> move_offsets;
    for (int n = 0; n < volume; ++n)
      if (sizes[static_cast<std::size_t>(n)] > 0 &&
          !(center_in_place && n == center))
        move_offsets.push_back(n);
    charge_gather_scatter(*km, move_offsets, n_in, n_out, c_in, c_out, ctx);
    charge_matmuls(sizes, submanifold, c_in, c_out, ctx);
  }

  if (ctx.compute_numerics) {
    PoolRunner run;
    conv_numerics(x.feats(), *km, p.weights, center_in_place ? center : -1,
                  ctx.cfg.precision, /*round_psums=*/!use_fod,
                  numerics_partitions(n_out, run.threads()), run, out_feats);
  }
  return SparseTensor(out_coords, std::move(out_feats), out_stride,
                      x.cache());
}

std::size_t numerics_partitions(std::size_t n_out, std::size_t threads) {
  if (threads <= 1) return 1;  // one inline partition, nothing to share
  return std::clamp<std::size_t>(n_out / kMinRowsPerPartition, 1,
                                 kPartitionsPerThread * threads);
}

void conv_numerics(const Matrix& x, const KernelMap& km,
                   const std::vector<Matrix>& weights, int in_place,
                   Precision precision, bool round_psums, std::size_t parts,
                   PartitionRunner& run, Matrix& out) {
  const std::size_t n_out = out.rows(), c_in = x.cols(), c_out = out.cols();
  const std::size_t volume = km.maps.size();
  if (weights.size() != volume)
    throw std::invalid_argument(
        "conv_numerics: got " + std::to_string(weights.size()) +
        " weight matrices for " + std::to_string(volume) + " offsets");
  for (const Matrix& w : weights)
    if (w.rows() != c_in || w.cols() != c_out)
      throw std::invalid_argument(
          "conv_numerics: a weight matrix is [" + std::to_string(w.rows()) +
          "," + std::to_string(w.cols()) + "] but the layer maps " +
          std::to_string(c_in) + " to " + std::to_string(c_out) +
          " channels");
  if (in_place >= 0 && x.rows() != n_out)
    throw std::invalid_argument(
        "conv_numerics: in-place offset with " + std::to_string(x.rows()) +
        " input rows but " + std::to_string(n_out) + " output rows");

  std::vector<float> amax;
  if (precision == Precision::kINT8) {
    std::vector<float> row_max(x.rows(), 0.0f);
    for (std::size_t r = 0; r < x.rows(); ++r)
      for (std::size_t c = 0; c < c_in; ++c)
        row_max[r] = std::max(row_max[r], std::fabs(x.at(r, c)));
    amax.assign(volume, 0.0f);
    for (std::size_t n = 0; n < volume; ++n)
      for (const MapEntry& e : km.maps[n])
        amax[n] = std::max(amax[n], row_max[static_cast<std::size_t>(e.in)]);
  }

  // Scratch for the whole layer, made here so that no worker allocates:
  // partition q gathers into rows [r0, r1) of `gathered` and multiplies
  // into the same rows of `psums`. A map holds each output at most once
  // per offset (build_kernel_map searches each output once per offset),
  // so an offset's rows fit one pass; a map that lists an output twice
  // takes more passes, with the same bits.
  parts = std::max<std::size_t>(parts, 1);
  const auto gathered = std::make_unique_for_overwrite<float[]>(n_out * c_in);
  const auto psums = std::make_unique_for_overwrite<float[]>(n_out * c_out);
  const auto rows = std::make_unique_for_overwrite<int32_t[]>(n_out);
  auto partition = [&](std::size_t q) {
    const std::size_t r0 = n_out * q / parts, r1 = n_out * (q + 1) / parts;
    if (r0 == r1) return;
    float* g = gathered.get() + r0 * c_in;
    float* ps = psums.get() + r0 * c_out;
    int32_t* idx = rows.get() + r0;
    for (std::size_t n = 0; n < volume; ++n) {
      const std::vector<MapEntry>& m = km.maps[n];
      const float* w = weights[n].data();
      if (static_cast<int>(n) == in_place) {
        if (!m.empty()) mm_rows(x.data(), w, out.data(), c_in, c_out, r0, r1);
        continue;
      }
      for (std::size_t next = 0; next < m.size();) {
        const std::size_t k =
            gather_owned_rows(x, m, next, r0, r1, r1 - r0, g, idx);
        if (k == 0) break;
        if (precision == Precision::kFP16) fp16_round_all(g, k * c_in);
        if (precision == Precision::kINT8) int8_round_all(g, k * c_in, amax[n]);
        std::fill_n(ps, k * c_out, 0.0f);
        mm_rows(g, w, ps, c_in, c_out, 0, k);
        if (round_psums && precision != Precision::kFP32)
          fp16_round_all(ps, k * c_out);
        scatter_add_owned_rows(ps, idx, k, out);
      }
    }
    if (precision != Precision::kFP32)
      fp16_round_all(out.row(r0), (r1 - r0) * c_out);
  };
  run.start(parts, partition);
  run.join();
}

}  // namespace ts
