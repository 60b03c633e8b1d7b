#include "serve/device_group.hpp"

#include <algorithm>
#include <cassert>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>

namespace ts::serve {

const char* to_string(RoutePolicy p) {
  switch (p) {
    case RoutePolicy::kRoundRobin: return "round_robin";
    case RoutePolicy::kLeastLoaded: return "least_loaded";
    case RoutePolicy::kCacheAffinity: return "cache_affinity";
    case RoutePolicy::kEstimateAware: return "estimate_aware";
  }
  return "?";
}

std::vector<DeviceSpec> expand_fleet(const std::vector<FleetTier>& tiers) {
  if (tiers.empty())
    throw std::invalid_argument(
        "expand_fleet: fleet must name at least one device tier");
  std::vector<DeviceSpec> fleet;
  long long total = 0;
  for (std::size_t t = 0; t < tiers.size(); ++t) {
    if (tiers[t].count < 1)
      throw std::invalid_argument(
          "expand_fleet: tier " + std::to_string(t) + " (\"" +
          tiers[t].spec.name + "\") has non-positive count " +
          std::to_string(tiers[t].count));
    total += tiers[t].count;
    if (total > kMaxModeledDevices)
      throw std::invalid_argument(
          "expand_fleet: fleet totals " + std::to_string(total) +
          " devices at tier " + std::to_string(t) +
          ", exceeding kMaxModeledDevices (" +
          std::to_string(kMaxModeledDevices) + ")");
    fleet.insert(fleet.end(), static_cast<std::size_t>(tiers[t].count),
                 tiers[t].spec);
  }
  return fleet;
}

namespace {

/// Fleet-size validation, run before the idle injector sizes itself
/// from the fleet.
int checked_fleet_size(const std::vector<DeviceSpec>& fleet) {
  if (fleet.empty())
    throw std::invalid_argument(
        "DeviceGroup: fleet must contain at least one DeviceSpec");
  if (fleet.size() > static_cast<std::size_t>(kMaxModeledDevices))
    throw std::invalid_argument(
        "DeviceGroup: fleet of " + std::to_string(fleet.size()) +
        " devices exceeds kMaxModeledDevices (" +
        std::to_string(kMaxModeledDevices) + ")");
  return static_cast<int>(fleet.size());
}

}  // namespace

DeviceGroup::DeviceGroup(std::vector<DeviceSpec> fleet,
                         std::size_t map_cache_bytes)
    : map_cache_bytes_(map_cache_bytes),
      idle_faults_(FaultPlan{}, FaultToleranceOptions{},
                   checked_fleet_size(fleet)) {
  shards_.reserve(fleet.size());
  for (std::size_t d = 0; d < fleet.size(); ++d) {
    Shard s;
    s.spec = std::move(fleet[d]);
    s.spec.device_index = static_cast<int>(d);
    s.cache = MapCacheReplay(map_cache_bytes);
    s.stats.device = static_cast<int>(d);
    s.stats.name = s.spec.name;
    shards_.push_back(std::move(s));
    load_.emplace(0.0, static_cast<int>(d));
  }
}

namespace {

/// The legacy homogeneous-constructor contract: counts past
/// kMaxModeledDevices fail loudly, everything below 1 clamps to 1.
int homogeneous_count(int devices) {
  if (devices > kMaxModeledDevices)
    throw std::invalid_argument(
        "DeviceGroup: " + std::to_string(devices) +
        " devices exceeds kMaxModeledDevices (" +
        std::to_string(kMaxModeledDevices) + ")");
  return std::max(devices, 1);
}

}  // namespace

DeviceGroup::DeviceGroup(const DeviceSpec& base, int devices,
                         std::size_t map_cache_bytes)
    : DeviceGroup(std::vector<DeviceSpec>(
                      static_cast<std::size_t>(homogeneous_count(devices)),
                      base),
                  map_cache_bytes) {}

DeviceGroup::Shard& DeviceGroup::shard_at(int device) {
  if (device < 0 || device >= size())
    throw std::out_of_range("DeviceGroup: device " + std::to_string(device) +
                            " out of range [0, " + std::to_string(size()) +
                            ")");
  return shards_[static_cast<std::size_t>(device)];
}

const DeviceGroup::Shard& DeviceGroup::shard_at(int device) const {
  return const_cast<DeviceGroup*>(this)->shard_at(device);
}

const DeviceSpec& DeviceGroup::spec(int device) const {
  return shard_at(device).spec;
}

const MapCacheReplay& DeviceGroup::cache(int device) const {
  return shard_at(device).cache;
}

void DeviceGroup::mirror_changes(int device) {
  // A device holds each key at most once, so erase/insert of `device`
  // in the (short) sorted owner list is exact.
  for (const MapCacheChange& c : changes_) {
    if (c.admitted) {
      std::vector<int>& owners = owners_[c.key];
      owners.insert(std::lower_bound(owners.begin(), owners.end(), device),
                    device);
      continue;
    }
    const auto it = owners_.find(c.key);
    assert(it != owners_.end());
    std::vector<int>& owners = it->second;
    owners.erase(std::find(owners.begin(), owners.end(), device));
    if (owners.empty()) owners_.erase(it);
  }
  changes_.clear();
}

std::size_t DeviceGroup::record_lookup(
    int device, const std::vector<MapCacheEvent>& events, Timeline& t) {
  const std::size_t hits = shard_at(device).cache.apply(events, t, &changes_);
  mirror_changes(device);
  return hits;
}

void DeviceGroup::warm_start(
    std::shared_ptr<const MapCacheSnapshot> snapshot) {
  warm_snapshot_ = std::move(snapshot);
}

void DeviceGroup::begin_schedule(int workers_per_device) {
  const int workers = std::max(workers_per_device, 1);
  load_.clear();
  owners_.clear();
  for (Shard& s : shards_) {
    s.lane_events.clear();
    s.lane_events.reserve(static_cast<std::size_t>(workers));
    for (int l = 0; l < workers; ++l) s.lane_events.emplace_back(0.0, l);
    std::make_heap(s.lane_events.begin(), s.lane_events.end(),
                   std::greater<>{});
    s.lane_high_water = 0.0;
    const int id = s.stats.device;
    s.stats = DeviceShardStats{};
    s.stats.device = id;
    s.stats.name = s.spec.name;
    s.cache = MapCacheReplay(map_cache_bytes_);
    // Warm start: seed the recreated cache from the manifest, LRU-first,
    // so residency and eviction order reproduce the saving cache's, and
    // keep the owner index in step. Runs before any batch is routed and
    // identically on every shard — deterministic, worker-invariant.
    if (warm_snapshot_) {
      s.cache.warm_start(*warm_snapshot_, &changes_);
      mirror_changes(id);
    }
    load_.emplace(0.0, id);
  }
}

int DeviceGroup::least_loaded() const {
  if (load_.empty()) return 0;
  // Health-aware selection: skip DOWN shards and weight each survivor's
  // accumulated work by its service factor, so a DEGRADED shard looks
  // proportionally more loaded. Strict `<` over the busy-ascending walk
  // keeps the lowest-id tie-break; healthy shards multiply by exactly
  // 1.0, so an all-UP group answers with the raw front. Service factors
  // are >= 1, so once a factor-1 shard is scored no later (busier)
  // shard can cost strictly less: an all-UP group stops at the front,
  // keeping the O(1) read.
  int best = -1;
  double best_cost = 0;
  for (const auto& [busy, device] : load_) {
    if (injector_->health(device) == ShardHealth::kDown) continue;
    const double factor = injector_->service_factor(device);
    const double cost = busy * factor;
    if (best < 0 || cost < best_cost) {
      best = device;
      best_cost = cost;
    }
    if (factor == 1.0) break;
  }
  return best >= 0 ? best : load_.begin()->second;
}

int DeviceGroup::owner_of(const MapCacheKey& key) const {
  const auto it = owners_.find(key);
  if (it == owners_.end() || it->second.empty()) return -1;
  for (int device : it->second)
    if (injector_->health(device) != ShardHealth::kDown) return device;
  return -1;
}

void DeviceGroup::attach_fault_injector(const FaultInjector* injector) {
  injector_ = injector ? injector : &idle_faults_;
}

ShardHealth DeviceGroup::health(int device) const {
  shard_at(device);  // the group's range error, not the injector's
  return injector_->health(device);
}

double DeviceGroup::service_factor(int device) const {
  shard_at(device);
  return injector_->service_factor(device);
}

void DeviceGroup::invalidate_shard_cache(int device) {
  shard_at(device).cache.drop(&changes_);
  mirror_changes(device);
}

void DeviceGroup::revive_shard(int device, double at_seconds,
                               bool replacement) {
  Shard& s = shard_at(device);
  if (s.lane_events.empty())
    throw std::logic_error(
        "DeviceGroup::revive_shard before begin_schedule: no lanes");
  // The outage left no lane mid-batch (in-flight work was re-enqueued
  // at activation), so every lane frees at the recovery stamp.
  for (std::pair<double, int>& ev : s.lane_events) ev.first = at_seconds;
  std::make_heap(s.lane_events.begin(), s.lane_events.end(),
                 std::greater<>{});
  s.lane_high_water = std::max(s.lane_high_water, at_seconds);
  if (replacement && warm_snapshot_) {
    // Warm the replacement from the snapshot manifest instead of coming
    // up cold: drop whatever the shard holds, re-admit LRU-first, and
    // mirror both so the owner index tracks the rebuilt population.
    s.cache.drop(&changes_);
    s.cache.warm_start(*warm_snapshot_, &changes_);
    mirror_changes(device);
  }
}

int DeviceGroup::place_batch(int device, double dispatch_seconds,
                             double overhead_seconds,
                             const std::vector<double>& member_service_seconds,
                             double* start_seconds, double* finish_seconds) {
  Shard& s = shard_at(device);
  if (s.lane_events.empty())
    throw std::logic_error(
        "DeviceGroup::place_batch before begin_schedule: no lanes");
  // Pop the earliest-free lane event. (free_time, lane) is a total order
  // — lane ids are unique — so the heap minimum is exactly the
  // lowest-index earliest lane the legacy linear scan picked.
  std::pop_heap(s.lane_events.begin(), s.lane_events.end(),
                std::greater<>{});
  std::pair<double, int>& ev = s.lane_events.back();
  const double start = std::max(dispatch_seconds, ev.first);
  double cursor = start + overhead_seconds;
  for (double service : member_service_seconds) cursor += service;
  const int lane = ev.second;
  ev.first = cursor;
  std::push_heap(s.lane_events.begin(), s.lane_events.end(),
                 std::greater<>{});
  s.lane_high_water = std::max(s.lane_high_water, cursor);
  const double busy_before = s.stats.busy_seconds;
  s.stats.busy_seconds += cursor - start;
  s.stats.batches += 1;
  s.stats.requests += member_service_seconds.size();
  load_.erase({busy_before, device});
  load_.emplace(s.stats.busy_seconds, device);
  if (start_seconds) *start_seconds = start;
  if (finish_seconds) *finish_seconds = cursor;
  return lane;
}

DeviceShardStats& DeviceGroup::stats(int device) {
  return shard_at(device).stats;
}

const DeviceShardStats& DeviceGroup::stats(int device) const {
  return shard_at(device).stats;
}

double DeviceGroup::lane_high_water(int device) const {
  return shard_at(device).lane_high_water;
}

}  // namespace ts::serve
