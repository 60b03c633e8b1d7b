#include "core/gather_scatter.hpp"

#include <algorithm>

#include "gpusim/coalesce.hpp"

namespace ts {

std::size_t gather_owned_rows(const Matrix& src,
                              const std::vector<MapEntry>& map,
                              std::size_t& next, std::size_t r0,
                              std::size_t r1, std::size_t cap, float* dst,
                              int32_t* rows) {
  const std::size_t c = src.cols();
  std::size_t count = 0;
  while (count < cap && next < map.size()) {
    const MapEntry& e = map[next++];
    // One unsigned compare tests r0 <= out < r1.
    if (static_cast<std::size_t>(e.out) - r0 >= r1 - r0) continue;
    const float* s = src.row(static_cast<std::size_t>(e.in));
    std::copy(s, s + c, dst + count * c);
    rows[count++] = e.out;
  }
  return count;
}

void scatter_add_owned_rows(const float* psum, const int32_t* rows,
                            std::size_t count, Matrix& dst) {
  const std::size_t c = dst.cols();
  for (std::size_t i = 0; i < count; ++i) {
    const float* s = psum + i * c;
    float* d = dst.row(static_cast<std::size_t>(rows[i]));
    for (std::size_t j = 0; j < c; ++j) d[j] += s[j];
  }
}

namespace {

// Simulated device address-space regions (disjoint slabs).
constexpr uint64_t kXBase = 0;                    // input features
constexpr uint64_t kFBase = 1ull << 40;           // gather buffer
constexpr uint64_t kPBase = 2ull << 40;           // partial sums
constexpr uint64_t kYBase = 3ull << 40;           // output features

/// CSR adjacency: for each point, the gather-buffer slots it touches.
/// This is the paper's "neighbor set N_j" (§4.3.2).
struct NeighborCsr {
  std::vector<uint32_t> row_ptr;
  std::vector<uint32_t> slots;
};

NeighborCsr build_csr(const KernelMap& km, const std::vector<int>& offsets,
                      std::size_t n_points, bool by_out) {
  NeighborCsr csr;
  csr.row_ptr.assign(n_points + 1, 0);
  std::size_t total = 0;
  for (int n : offsets) total += km.size(n);
  csr.slots.resize(total);
  for (int n : offsets)
    for (const MapEntry& e : km.maps[static_cast<std::size_t>(n)])
      ++csr.row_ptr[static_cast<std::size_t>(by_out ? e.out : e.in) + 1];
  for (std::size_t i = 1; i < csr.row_ptr.size(); ++i)
    csr.row_ptr[i] += csr.row_ptr[i - 1];
  std::vector<uint32_t> cursor(csr.row_ptr.begin(), csr.row_ptr.end() - 1);
  uint32_t slot = 0;
  for (int n : offsets) {
    for (const MapEntry& e : km.maps[static_cast<std::size_t>(n)]) {
      const std::size_t p = static_cast<std::size_t>(by_out ? e.out : e.in);
      csr.slots[cursor[p]++] = slot;
      ++slot;
    }
  }
  return csr;
}

/// Accumulates the modeled cost of one data-movement kernel.
struct KernelAccum {
  double txns = 0;          // 128-byte memory transactions issued
  double analytic_bytes = 0;// DRAM bytes in the no-cache approximation
  double stream_bytes = 0;  // extra perfectly-streamed bytes (maps etc.)
};

double lines_bytes(std::size_t rows, std::size_t row_bytes) {
  const std::size_t lines = (row_bytes + kTransactionBytes - 1) /
                            kTransactionBytes;
  return static_cast<double>(rows) * static_cast<double>(lines) *
         static_cast<double>(kTransactionBytes);
}

}  // namespace

void charge_gather_scatter(const KernelMap& km,
                           const std::vector<int>& move_offsets,
                           std::size_t n_in, std::size_t n_out,
                           std::size_t c_in, std::size_t c_out,
                           ExecContext& ctx) {
  const EngineConfig& cfg = ctx.cfg;
  if (move_offsets.empty()) return;

  std::size_t total = 0;
  std::vector<std::size_t> cum;  // gather-buffer slot base per offset
  cum.reserve(move_offsets.size());
  for (int n : move_offsets) {
    cum.push_back(total);
    total += km.size(n);
  }
  if (total == 0) return;

  const Precision prec_in = cfg.precision;
  // INT8 scatter stays 16-bit (paper §4.3.1): psums/outputs never go
  // below FP16.
  const Precision prec_out =
      cfg.precision == Precision::kFP32 ? Precision::kFP32
                                        : Precision::kFP16;
  const std::size_t row_in = c_in * bytes_per_channel(prec_in);
  const std::size_t row_out = c_out * bytes_per_channel(prec_out);
  const double t_in =
      static_cast<double>(transactions_per_row(c_in, prec_in, cfg.vectorized));
  const double t_out = static_cast<double>(
      transactions_per_row(c_out, prec_out, cfg.vectorized));

  const bool sim = ctx.simulate_cache;
  CacheSim& l2 = ctx.l2;

  auto charge = [&](Stage stage, const KernelAccum& acc, double cache_bytes,
                    std::size_t launches) {
    const double dram = (sim ? cache_bytes : acc.analytic_bytes) +
                        acc.stream_bytes;
    // Irregular row traffic achieves only a fraction of peak bandwidth.
    const double eff = ctx.cost.device().gather_efficiency;
    const double t =
        static_cast<double>(launches) * ctx.cost.launch_seconds() +
        std::max(ctx.cost.transaction_seconds(acc.txns),
                 ctx.cost.dram_seconds(dram) / eff);
    ctx.timeline.add(stage, t);
    ctx.timeline.add_dram_bytes(dram);
    ctx.timeline.add_kernel_launches(launches);
  };

  // Touches the gather-buffer and psum slabs the matmuls stream through,
  // so the cache state seen by the next movement kernel is realistic
  // (matmul kernel *time* is charged separately by the conv orchestrator).
  auto matmul_touch = [&](std::size_t slot0, std::size_t rows) {
    if (!sim || rows == 0) return;
    l2.replay([&](CacheSim::ReplaySink& l2s) {
      l2s.access(kFBase + slot0 * row_in, rows * row_in, false);
      l2s.access(kPBase + slot0 * row_out, rows * row_out, true);
    });
  };

  const double map_bytes_total = static_cast<double>(total) * 8.0;

  if (!cfg.fused_gather_scatter) {
    // --- Alg. 2 verbatim: per-offset gather / (matmul) / scatter kernels,
    // weight-stationary order. 2 launches per offset.
    for (std::size_t gi = 0; gi < move_offsets.size(); ++gi) {
      const int n = move_offsets[gi];
      const auto& m = km.maps[static_cast<std::size_t>(n)];
      if (m.empty()) continue;
      const double rows = static_cast<double>(m.size());
      const double map_bytes = rows * 8.0;

      KernelAccum g;
      g.txns = rows * 2.0 * t_in + map_bytes / kTransactionBytes;
      g.analytic_bytes = lines_bytes(m.size(), row_in) +  // random reads
                         rows * static_cast<double>(row_in);  // seq writes
      g.stream_bytes = map_bytes;
      double cache_bytes = 0;
      if (sim) {
        const double before = l2.dram_bytes();
        l2.replay([&](CacheSim::ReplaySink& l2s) {
          for (std::size_t i = 0; i < m.size(); ++i) {
            l2s.access(kXBase + static_cast<uint64_t>(m[i].in) * row_in,
                       row_in, false);
            l2s.access(kFBase + (cum[gi] + i) * row_in, row_in, true);
          }
        });
        cache_bytes = l2.dram_bytes() - before;
      }
      charge(Stage::kGather, g, cache_bytes, 1);

      matmul_touch(cum[gi], m.size());

      // Weight-stationary scatter: atomic accumulation into the output
      // rows. Atomics are resolved at the L2 (no read round-trip from the
      // SM); DRAM cost is the eventual write-back of each dirty line.
      KernelAccum s;
      s.txns = rows * 2.0 * t_out + map_bytes / kTransactionBytes;
      s.analytic_bytes = rows * static_cast<double>(row_out) +  // psum seq
                         lines_bytes(m.size(), row_out);  // out writebacks
      s.stream_bytes = map_bytes;
      cache_bytes = 0;
      if (sim) {
        const double before = l2.dram_bytes();
        l2.replay([&](CacheSim::ReplaySink& l2s) {
          for (std::size_t i = 0; i < m.size(); ++i) {
            l2s.access(kPBase + (cum[gi] + i) * row_out, row_out, false);
            l2s.access(kYBase + static_cast<uint64_t>(m[i].out) * row_out,
                       row_out, true);
          }
        });
        cache_bytes = l2.dram_bytes() - before;
      }
      charge(Stage::kScatter, s, cache_bytes, 1);
    }
    return;
  }

  if (!cfg.locality_aware) {
    // --- Fused, still weight-stationary: one gather kernel and one
    // scatter kernel for all offsets. Transaction totals are unchanged;
    // the cache replay shows why this alone barely helps (per-offset
    // working sets exceed L2 before any reuse can occur).
    const double rows = static_cast<double>(total);
    KernelAccum g;
    g.txns = rows * 2.0 * t_in + map_bytes_total / kTransactionBytes;
    g.analytic_bytes = lines_bytes(total, row_in) +
                       rows * static_cast<double>(row_in);
    g.stream_bytes = map_bytes_total;
    double cache_bytes = 0;
    if (sim) {
      const double before = l2.dram_bytes();
      l2.replay([&](CacheSim::ReplaySink& l2s) {
        for (std::size_t gi = 0; gi < move_offsets.size(); ++gi) {
          const auto& m = km.maps[static_cast<std::size_t>(move_offsets[gi])];
          for (std::size_t i = 0; i < m.size(); ++i) {
            l2s.access(kXBase + static_cast<uint64_t>(m[i].in) * row_in,
                       row_in, false);
            l2s.access(kFBase + (cum[gi] + i) * row_in, row_in, true);
          }
        }
      });
      cache_bytes = l2.dram_bytes() - before;
    }
    charge(Stage::kGather, g, cache_bytes, 1);

    matmul_touch(0, total);

    KernelAccum s;
    s.txns = rows * 2.0 * t_out + map_bytes_total / kTransactionBytes;
    s.analytic_bytes = rows * static_cast<double>(row_out) +
                       lines_bytes(total, row_out);  // atomic writebacks
    s.stream_bytes = map_bytes_total;
    cache_bytes = 0;
    if (sim) {
      const double before = l2.dram_bytes();
      l2.replay([&](CacheSim::ReplaySink& l2s) {
        for (std::size_t gi = 0; gi < move_offsets.size(); ++gi) {
          const auto& m = km.maps[static_cast<std::size_t>(move_offsets[gi])];
          for (std::size_t i = 0; i < m.size(); ++i) {
            l2s.access(kPBase + (cum[gi] + i) * row_out, row_out, false);
            l2s.access(kYBase + static_cast<uint64_t>(m[i].out) * row_out,
                       row_out, true);
          }
        }
      });
      cache_bytes = l2.dram_bytes() - before;
    }
    charge(Stage::kScatter, s, cache_bytes, 1);
    return;
  }

  // --- Fused + locality-aware (paper §4.3.2): input-stationary gather
  // (each input row read from DRAM exactly once, held in registers, written
  // to every neighbor slot) and output-stationary scatter (neighbor psums
  // reduced in registers, each output row written exactly once).
  //
  // The CSR neighbor adjacencies exist only to drive the L2 replay, so
  // they are built lazily inside the `sim` branches — the analytic
  // approximation pays neither the adjacency construction nor the replay.
  const double rows = static_cast<double>(total);

  KernelAccum g;
  g.txns = (static_cast<double>(n_in) + rows) * t_in +
           map_bytes_total / kTransactionBytes;
  g.analytic_bytes = static_cast<double>(n_in * row_in) +  // seq reads, 1x
                     rows * static_cast<double>(row_in);   // slot writes
  g.stream_bytes = map_bytes_total;
  double cache_bytes = 0;
  if (sim) {
    const NeighborCsr in_csr = build_csr(km, move_offsets, n_in, false);
    const uint32_t* row_ptr = in_csr.row_ptr.data();
    const uint32_t* slots = in_csr.slots.data();
    const double before = l2.dram_bytes();
    l2.replay([&](CacheSim::ReplaySink& l2s) {
      for (std::size_t j = 0; j < n_in; ++j) {
        l2s.access(kXBase + j * row_in, row_in, false);
        for (uint32_t t = row_ptr[j]; t < row_ptr[j + 1]; ++t)
          l2s.access(kFBase + static_cast<uint64_t>(slots[t]) * row_in,
                     row_in, true);
      }
    });
    cache_bytes = l2.dram_bytes() - before;
  }
  charge(Stage::kGather, g, cache_bytes, 1);

  matmul_touch(0, total);

  KernelAccum s;
  s.txns = rows * t_out + static_cast<double>(n_out) * t_out +
           map_bytes_total / kTransactionBytes;
  s.analytic_bytes = lines_bytes(total, row_out) +          // slot reads
                     static_cast<double>(n_out * row_out);  // seq writes, 1x
  s.stream_bytes = map_bytes_total;
  cache_bytes = 0;
  if (sim) {
    const NeighborCsr out_csr = build_csr(km, move_offsets, n_out, true);
    const uint32_t* row_ptr = out_csr.row_ptr.data();
    const uint32_t* slots = out_csr.slots.data();
    const double before = l2.dram_bytes();
    l2.replay([&](CacheSim::ReplaySink& l2s) {
      for (std::size_t kk = 0; kk < n_out; ++kk) {
        for (uint32_t t = row_ptr[kk]; t < row_ptr[kk + 1]; ++t)
          l2s.access(kPBase + static_cast<uint64_t>(slots[t]) * row_out,
                     row_out, false);
        l2s.access(kYBase + kk * row_out, row_out, true);
      }
    });
    cache_bytes = l2.dram_bytes() - before;
  }
  charge(Stage::kScatter, s, cache_bytes, 1);
}

}  // namespace ts
