// Execution context: engine configuration knobs + cost-model state.
//
// Every optimization the paper describes is an independent switch here, so
// the ablation benches (Tables 2-3, Fig. 7, Fig. 13) can toggle exactly
// one dimension at a time, and the engine presets in src/engines are just
// different settings of the same machinery.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/kernel_map.hpp"
#include "core/kernel_map_cache.hpp"
#include "core/matmul_group.hpp"
#include "gpusim/cache.hpp"
#include "gpusim/cost_model.hpp"
#include "gpusim/timeline.hpp"
#include "tensor/precision.hpp"

namespace ts {

/// Sparse convolution dataflow (paper §2.2 / §7): explicit
/// gather-matmul-scatter, or MinkowskiEngine-style fetch-on-demand, which
/// skips the explicit buffers and excels at small workloads.
enum class Dataflow { kGatherScatter, kFetchOnDemand };

struct EngineConfig {
  std::string name = "torchsparse";

  Dataflow dataflow = Dataflow::kGatherScatter;
  /// If > 0 and the layer's mean per-offset map size falls below this,
  /// use fetch-on-demand instead (MinkowskiEngine's small-model path).
  double fod_threshold = 0.0;

  // -- §4.3 data movement --
  Precision precision = Precision::kFP16;
  bool vectorized = true;          // half2/char4 memory transactions
  bool fused_gather_scatter = true;// one gather + one scatter kernel/layer
  bool locality_aware = true;      // input-/output-stationary access order
  bool skip_center_movement = true;// center offset computed without movement

  // -- §4.2 matmul --
  GroupingStrategy grouping = GroupingStrategy::kAdaptive;
  GroupParams group_params;        // default (epsilon, S); tuner overrides

  // -- §4.4 mapping --
  MapBackend map_backend = MapBackend::kGrid;
  bool fused_downsample = true;    // fuse output-coords stages 1-4 (Fig 10)
  bool simplified_control = true;  // simplified control + loop unrolling
  bool symmetric_map_search = true;// search half the offsets, mirror rest
};

/// One executed conv layer's workload snapshot — what the Alg. 5 tuner
/// needs to evaluate grouping strategies offline.
struct LayerRecord {
  int layer_id = -1;
  std::vector<std::size_t> map_sizes;  // per kernel offset
  std::size_t c_in = 0;
  std::size_t c_out = 0;
  bool submanifold = false;
};

/// Mutable state threaded through a network execution: the device cost
/// model, accumulated timeline, L2 cache simulator, and per-layer tuned
/// grouping parameters (from Alg. 5).
struct ExecContext {
  ExecContext(const DeviceSpec& dev, const EngineConfig& config)
      : cost(dev),
        cfg(config),
        l2(static_cast<std::size_t>(dev.l2_bytes)) {}

  CostModel cost;
  EngineConfig cfg;
  Timeline timeline;
  CacheSim l2;

  /// Compute real numerics (tests/examples) or cost only (large benches).
  /// Cost-only passes carry tensor shapes without feature storage.
  bool compute_numerics = true;
  /// Replay access streams through the L2 simulator (true) or use the
  /// analytic no-reuse approximation (false, faster).
  bool simulate_cache = true;

  /// Identifier of the layer currently executing (set by nn modules);
  /// indexes the tuned grouping parameters.
  int layer_id = -1;
  std::unordered_map<int, GroupParams> tuned;

  /// When non-null, every conv layer appends its workload snapshot here
  /// (used by the Alg. 5 tuning pass and the Fig. 12 statistics).
  std::vector<LayerRecord>* recorder = nullptr;

  /// Optional cross-request kernel-map cache (null = disabled). Shared by
  /// every worker of a serving pool and kept alive across reset_context;
  /// results are bit-identical with or without it (the content key proves
  /// the cached product equals what the cold path would rebuild).
  std::shared_ptr<KernelMapCache> map_cache;
  /// Model/namespace salt mixed into every cache digest this context
  /// resolves (salt_cache_key). 0 — the default and the single-model
  /// serving path — is the identity, keeping legacy digests and warm
  /// snapshots byte-stable; a multi-model serve::Server stamps each
  /// request's context with its model's namespace so two models never
  /// alias each other's cache entries. Survives reset_context (a
  /// multi-model worker restamps it per request anyway).
  uint64_t cache_namespace = 0;
  /// When non-null, mapping-stage cache accounting is deferred: lookups
  /// charge the cold path into the timeline and append a MapCacheEvent
  /// here, and the owner replays the events in submission order
  /// (MapCacheReplay) so modeled stats are deterministic under any worker
  /// count. When null (single-threaded runs), hits charge immediately.
  std::vector<MapCacheEvent>* cache_events = nullptr;

  GroupParams params_for_layer() const {
    if (auto it = tuned.find(layer_id); it != tuned.end()) return it->second;
    return cfg.group_params;
  }
};

}  // namespace ts
