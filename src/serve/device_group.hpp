// Multi-device sharded serving: a group of N modeled device instances
// with per-device worker lanes, per-device modeled kernel-map caches,
// and per-device clock/utilization accounting.
//
// The paper's engine is single-device; at serving scale the next
// throughput multiplier is sharding the stream across devices. Where the
// win actually comes from — per Tangram's affinity-aware placement of
// serverless work onto GPUs that already hold the warm state (PAPERS.md)
// — is routing: a dispatched batch that lands on the device whose cache
// already holds its kernel maps pays the warm re-key cost instead of the
// full map rebuild. The KernelMapCache's content digests (PR 3) make
// that signal exact, so the dispatcher can ask "which device owns this
// batch's dominant digest?" and route accordingly.
//
// Fleets are heterogeneous: a group is a vector of DeviceSpecs, one per
// shard, so a deployment can mix GPU generations (the paper's 1080Ti /
// 2080Ti / 3090 evaluation matrix) in one group. Heterogeneity enters
// the modeled schedule only through the RoutingPolicy's
// device_service_estimate hook — the group itself never consults the
// specs, which is what keeps homogeneous groups bit-identical to the
// pre-fleet scheduler.
//
// Scale: the scheduling core is discrete-event. Each shard keeps its
// worker lanes as a min-heap of (modeled-free-time, lane) events and the
// group keeps an ordered (busy_seconds, device) load index plus a
// digest->owners map mirroring the modeled caches, so placing a batch is
// O(log lanes), least_loaded() is O(1), and owner_of() is O(1) expected —
// independent of fleet size, per the ROADMAP's "hundreds of modeled
// devices" north star. The heap pops the true minimum of a total order
// ((free, lane), ties impossible), so it reproduces the old
// lowest-index-lane linear scan exactly (pinned by test).
//
// Determinism contract. Routing runs inside the deterministic accounting
// pass (the serving placer), over the submission-ordered request
// stream — never over racy wall-clock cache state. Two consequences:
//  * With one device, every policy degenerates to device 0 and the
//    schedule/accounting math reduces exactly to the single-device
//    serve path: results and stats are bit-identical to a 1-device run.
//  * Routing inputs (accumulated modeled work, modeled cache ownership)
//    are independent of the per-device worker-lane count, so per-device
//    cache accounting — and every modeled serve statistic — is invariant
//    to worker count at every device count (tests/test_device_group.cpp).
#pragma once

#include <cstddef>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/kernel_map_cache.hpp"
#include "gpusim/device.hpp"
#include "serve/fault.hpp"

namespace ts::serve {

/// Built-in batch-routing policies of the sharded dispatcher. Each is
/// also available as a RoutingPolicy object via make_routing_policy
/// (serve_policies.hpp), which is where custom policies plug in.
enum class RoutePolicy {
  /// Batch k to device k mod N. The baseline: perfectly fair, blind to
  /// both load imbalance and cache state.
  kRoundRobin,
  /// Device with the least accumulated modeled work (earliest modeled
  /// free time on the device's work queue; ties -> lowest id). Computed
  /// from assigned service + overhead seconds — deliberately not from
  /// lane state, so routing (and therefore per-device cache accounting)
  /// is independent of the per-device worker count.
  kLeastLoaded,
  /// Device whose modeled cache already owns the batch's dominant
  /// kernel-map digest (the content key with the largest summed cold
  /// mapping charge across the batch's cache events); falls back to
  /// least-loaded when no device owns it (cold digest, or caching off).
  kCacheAffinity,
  /// Heterogeneous-fleet routing: device with the earliest estimated
  /// completion (accumulated modeled work + the batch's service time
  /// scaled to the device's tier relative to spec(0), the measurement
  /// reference). Grouped-GEMM-heavy batches gravitate to tensor-core
  /// tiers, map/data-movement-heavy ones to the bandwidth-competitive
  /// 1080Ti tier. On a homogeneous group every scale factor is exactly
  /// 1 and the rule degenerates to least_loaded (bit-identical, pinned
  /// by test).
  kEstimateAware,
};

const char* to_string(RoutePolicy p);

/// Upper bound on modeled device instances per group. Far above any
/// realistic deployment; exists so an absurd request fails loudly
/// (std::invalid_argument) instead of overflowing pool arithmetic or
/// allocating billions of shards.
inline constexpr int kMaxModeledDevices = 4096;

/// Sharding knobs of a serving deployment (ServerConfig::shard).
struct ShardOptions {
  /// Modeled device instances in the group; clamped to >= 1, rejected
  /// past kMaxModeledDevices. Each gets its own worker lanes
  /// (BatchOptions::workers *per device*), its own modeled kernel-map
  /// cache, and its own clock/utilization counters. Ignored when
  /// ServerConfig::fleet names per-shard specs explicitly.
  int devices = 1;
  RoutePolicy route = RoutePolicy::kLeastLoaded;
};

/// One tier of a heterogeneous fleet description: `count` instances of
/// `spec` (see ServerConfig::with_fleet and expand_fleet).
struct FleetTier {
  DeviceSpec spec;
  int count = 1;
};

/// Expands a tier list into the per-shard spec vector a DeviceGroup
/// consumes, in tier order. Validation (std::invalid_argument, with the
/// offending tier named): the list must be non-empty, every count >= 1,
/// and the total must not exceed kMaxModeledDevices.
std::vector<DeviceSpec> expand_fleet(const std::vector<FleetTier>& tiers);

/// One device's modeled serve outcome. Deterministic throughout; the
/// routing/accounting fields (batches, requests, busy_seconds,
/// map_cache) are additionally worker-count independent, while the
/// placement fields (free_seconds, utilization) legitimately change
/// with the lane count — more lanes drain the same assigned work
/// earlier (see the header comment).
struct DeviceShardStats {
  int device = 0;
  std::string name;                 // the shard's DeviceSpec::name
  /// Dispatched batches / member requests placed here. Under a
  /// FaultPlan these count every placement *attempt*, including ones a
  /// fault later killed — the shard really spent that modeled time
  /// before it went down, and the lost work is what the availability
  /// figures (bench/fig21) measure.
  std::size_t batches = 0;          // dispatched batches routed here
  std::size_t requests = 0;         // requests inside those batches
  double busy_seconds = 0;          // assigned modeled service + overhead
  double free_seconds = 0;          // modeled clock when the last lane frees
  double utilization = 0;           // busy / (workers * group makespan)
  /// Per-device submission-order kernel-map cache accounting; zeros when
  /// the cache is disabled.
  MapCacheReplayStats map_cache;
};

/// A fleet of modeled device instances — one DeviceSpec per shard,
/// possibly heterogeneous. Owns each shard's modeled kernel-map cache
/// (driven in record mode by the deterministic accounting pass),
/// worker-lane event heap, and utilization counters. Single-threaded by
/// design: it lives inside the scheduling pass, not on the measurement
/// pool's hot path.
class DeviceGroup {
 public:
  /// Heterogeneous fleet: one shard per spec, in order, with
  /// device_index stamped to the shard id. Each shard's modeled cache
  /// gets its own `map_cache_bytes` byte budget (0 = caching disabled,
  /// every record-mode lookup misses). Throws std::invalid_argument on
  /// an empty fleet or one past kMaxModeledDevices.
  DeviceGroup(std::vector<DeviceSpec> fleet, std::size_t map_cache_bytes);

  /// Homogeneous fleet: `devices` copies of `base`. Delegates to the
  /// fleet constructor (bit-identical shards); keeps the legacy
  /// semantics of clamping `devices` to >= 1 and rejecting counts past
  /// kMaxModeledDevices (std::invalid_argument).
  DeviceGroup(const DeviceSpec& base, int devices,
              std::size_t map_cache_bytes);

  /// Pinned in place: the health view may point at the group's own
  /// idle injector, which a copy or move would leave dangling.
  DeviceGroup(const DeviceGroup&) = delete;
  DeviceGroup& operator=(const DeviceGroup&) = delete;

  int size() const { return static_cast<int>(shards_.size()); }
  const DeviceSpec& spec(int device) const;

  /// Direct cache access for observability and tests. Record-mode
  /// *writes* must go through DeviceGroup::record_lookup instead, so the
  /// digest->owner index stays in sync with the cache population.
  KernelMapCache& cache(int device);
  const KernelMapCache& cache(int device) const;

  /// Record-mode lookup on `device`'s modeled cache, keeping the
  /// group's digest->owner index in sync with the admission/eviction
  /// deltas. Same decisions as KernelMapCache::record_lookup (and
  /// therefore bit-compatible with MapCacheReplay).
  KernelMapCache::RecordOutcome record_lookup(int device,
                                              const MapCacheKey& key,
                                              std::size_t bytes);

  /// Installs a warm-start manifest: at every subsequent begin_schedule,
  /// each shard's freshly recreated modeled cache is pre-populated with
  /// the snapshot's entries (LRU-first admission order, so the seeded
  /// cache reproduces the saving cache's residency and eviction order —
  /// the MRU suffix survives when this group's byte budget is smaller),
  /// and the digest->owner index is seeded to match. Every shard seeds
  /// identically from the same manifest, before any request is routed,
  /// which keeps warm-started accounting deterministic and
  /// worker-count invariant. Pass nullptr to go back to cold starts.
  void warm_start(std::shared_ptr<const MapCacheSnapshot> snapshot);

  /// Prepares a fresh schedule pass: `workers` lanes per device at t=0,
  /// zeroed busy clocks and stats, cold modeled caches (and an empty
  /// owner index) — or snapshot-seeded ones when a warm-start manifest
  /// is installed. Called by the serving placer per schedule pass; a
  /// reused group therefore accounts every pass from the same state,
  /// exactly like the single-device MapCacheReplay it generalizes.
  void begin_schedule(int workers_per_device);

  /// Routing query: device with the least accumulated modeled work
  /// (ties -> lowest id). O(1): reads the front of the ordered
  /// (busy_seconds, device) load index place_batch maintains. The query
  /// is health-aware: DOWN shards are skipped and each candidate's work
  /// is discounted by its current service factor (DEGRADED/PROBATION
  /// shards look proportionally more loaded); when every shard is DOWN
  /// it falls back to the raw front. The walk stops at the first shard
  /// at service factor 1, so it stays O(1) while every shard is UP.
  int least_loaded() const;

  /// Ownership query: lowest device id whose modeled cache currently
  /// holds `key`, or -1 when none does. O(1) expected via the
  /// digest->owners index (kept in sync by record_lookup /
  /// begin_schedule) — never a scan over the fleet. Health-aware: DOWN
  /// owners are skipped (first routable owner wins; -1 when every owner
  /// is DOWN).
  int owner_of(const MapCacheKey& key) const;

  // -- Fault-tolerance hooks (see serve/fault.hpp) --------------------

  /// Attaches the scheduler's fault injector, whose health view the
  /// routing queries then read. The group does not own the injector;
  /// pass nullptr to detach (mandatory before the injector dies when the
  /// group outlives the schedule pass). A detached group reads its own
  /// empty-plan injector: every shard permanently kUp at factor 1.
  void attach_fault_injector(const FaultInjector* injector);

  /// Shard health at the injector's frontier.
  ShardHealth health(int device) const;

  /// Modeled service multiplier for `device` at the injector's frontier.
  double service_factor(int device) const;

  /// Crash semantics: drops `device`'s modeled cache (fresh cold cache)
  /// and purges the device from the digest->owners index — the crashed
  /// shard's warm state is gone.
  void invalidate_shard_cache(int device);

  /// Outage-end semantics: rebases every lane of `device` to modeled
  /// time `at_seconds` (an outage leaves no lane mid-batch — in-flight
  /// work was re-enqueued at activation) and, when `replacement` is
  /// true and a warm-start manifest is installed, re-seeds the fresh
  /// cache from the snapshot (LRU-first record-mode re-admission,
  /// mirrored into the owner index) — the Tangram move: a replacement
  /// shard comes up warm instead of cold.
  void revive_shard(int device, double at_seconds, bool replacement);

  /// Places one batch (modeled dispatch stamp, per-batch overhead,
  /// member service times appended back-to-back) on `device`'s earliest
  /// available lane — O(log lanes) against the shard's event heap, with
  /// ties broken toward the lowest lane index exactly like the legacy
  /// lane-vector scan. Returns the lane index; writes the batch's start
  /// and finish stamps, and advances the device's clock, busy counter,
  /// and batch/request tallies.
  int place_batch(int device, double dispatch_seconds,
                  double overhead_seconds,
                  const std::vector<double>& member_service_seconds,
                  double* start_seconds, double* finish_seconds);

  /// Mutable per-device accounting (the scheduler fills map_cache and
  /// the final free/utilization fields).
  DeviceShardStats& stats(int device);
  const DeviceShardStats& stats(int device) const;

  /// Modeled time at which `device`'s last-busy lane frees.
  double lane_high_water(int device) const;

 private:
  struct Shard {
    DeviceSpec spec;
    std::unique_ptr<KernelMapCache> cache;
    /// Discrete-event lane state: min-heap (std::greater over
    /// (free_time, lane)) of per-worker modeled free-time events.
    /// Empty until begin_schedule.
    std::vector<std::pair<double, int>> lane_events;
    double lane_high_water = 0;  // max finish placed so far
    DeviceShardStats stats;
  };

  Shard& shard_at(int device);
  const Shard& shard_at(int device) const;

  /// Applies one cache admission/eviction outcome on `device` to the
  /// digest->owners index (shared by record_lookup and warm seeding).
  void mirror_outcome(int device, const MapCacheKey& key,
                      const KernelMapCache::RecordOutcome& out);

  std::size_t map_cache_bytes_;
  std::shared_ptr<const MapCacheSnapshot> warm_snapshot_;
  /// Empty-plan injector read while no scheduler injector is attached.
  FaultInjector idle_faults_;
  /// Non-owning health view; never null (&idle_faults_ when detached).
  const FaultInjector* injector_ = &idle_faults_;
  std::vector<Shard> shards_;
  /// Ordered (busy_seconds, device) pairs, one per shard; begin() is the
  /// least-loaded device with the lowest-id tie-break for free.
  std::set<std::pair<double, int>> load_;
  /// digest -> sorted device ids whose modeled cache holds it.
  std::unordered_map<MapCacheKey, std::vector<int>, MapCacheKeyHash> owners_;
};

}  // namespace ts::serve
