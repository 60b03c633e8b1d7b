#include "core/kernel_map_cache.hpp"

#include <chrono>
#include <stdexcept>
#include <utility>

namespace ts {

namespace {

/// Two independent splitmix-style chains over one value.
inline void mix2(uint64_t v, uint64_t& lo, uint64_t& hi) {
  lo = hash_key(lo ^ v);
  hi = hash_key(hi + 0x632be59bd9b4e019ull + v);
}

/// Mixes a set digest into a product key.
inline void mix_digest(const MapCacheKey& d, uint64_t& lo, uint64_t& hi) {
  mix2(d.lo, lo, hi);
  mix2(d.hi, lo, hi);
}

/// The admission contract: exactly one of kmap/coords, as
/// save_map_cache also demands of every snapshot entry.
void check_admissible(const MapCachePayload& p) {
  if (static_cast<bool>(p.kmap) == static_cast<bool>(p.coords))
    throw std::invalid_argument(
        "KernelMapCache::admit: payload must hold exactly one of kmap or "
        "coords");
}

/// Swaps one event's cold mapping charge in `t` for its warm re-key
/// charge.
void apply_map_cache_hit(const MapCacheEvent& ev, Timeline& t) {
  t.add(Stage::kMapping, ev.hit_seconds - ev.cold_seconds);
  t.add_dram_bytes(ev.hit_dram_bytes - ev.cold_dram_bytes);
  if (ev.cold_launches > ev.hit_launches)
    t.remove_kernel_launches(ev.cold_launches - ev.hit_launches);
  else
    t.add_kernel_launches(ev.hit_launches - ev.cold_launches);
}

}  // namespace

MapCacheKey coords_digest(const std::vector<Coord>& coords) {
  uint64_t lo = 0x8ebc6af09c88c6e3ull, hi = 0x589965cc75374cc3ull;
  mix2(coords.size(), lo, hi);
  for (const Coord& c : coords) mix2(pack_coord(c), lo, hi);
  return {lo, hi};
}

MapCacheKey kernel_map_cache_key(const MapCacheKey& in_digest,
                                 const MapCacheKey& out_digest,
                                 const ConvGeometry& geom,
                                 const MapSearchOptions& opts) {
  uint64_t lo = 0x9e3779b97f4a7c15ull, hi = 0xc2b2ae3d27d4eb4full;
  mix2(static_cast<uint64_t>(geom.kernel_size) |
           (static_cast<uint64_t>(geom.stride) << 8) |
           (static_cast<uint64_t>(geom.dilation) << 16) |
           (static_cast<uint64_t>(geom.transposed) << 24) |
           (static_cast<uint64_t>(opts.backend == MapBackend::kGrid) << 25) |
           (static_cast<uint64_t>(opts.use_symmetry) << 26),
       lo, hi);
  mix_digest(in_digest, lo, hi);
  mix_digest(out_digest, lo, hi);
  return {lo, hi};
}

MapCacheKey kernel_map_cache_key(const std::vector<Coord>& in_coords,
                                 const std::vector<Coord>& out_coords,
                                 const ConvGeometry& geom,
                                 const MapSearchOptions& opts) {
  return kernel_map_cache_key(coords_digest(in_coords),
                              coords_digest(out_coords), geom, opts);
}

MapCacheKey downsample_cache_key(const MapCacheKey& in_digest,
                                 int kernel_size, int stride, bool fused,
                                 bool simplified_control) {
  uint64_t lo = 0xd6e8feb86659fd93ull, hi = 0xa0761d6478bd642full;
  mix2(static_cast<uint64_t>(kernel_size) |
           (static_cast<uint64_t>(stride) << 8) |
           (static_cast<uint64_t>(fused) << 16) |
           (static_cast<uint64_t>(simplified_control) << 17),
       lo, hi);
  mix_digest(in_digest, lo, hi);
  return {lo, hi};
}

MapCacheKey downsample_cache_key(const std::vector<Coord>& in_coords,
                                 int kernel_size, int stride, bool fused,
                                 bool simplified_control) {
  return downsample_cache_key(coords_digest(in_coords), kernel_size, stride,
                              fused, simplified_control);
}

MapCacheKey input_content_digest(const MapCacheKey& coords_digest,
                                 int stride) {
  uint64_t lo = 0x2545f4914f6cdd1dull, hi = 0x9e6c63d0a4e1a3bdull;
  mix2(static_cast<uint64_t>(stride), lo, hi);
  mix_digest(coords_digest, lo, hi);
  return {lo, hi};
}

MapCacheKey input_content_digest(const std::vector<Coord>& coords,
                                 int stride) {
  return input_content_digest(coords_digest(coords), stride);
}

MapCacheKey salt_cache_key(const MapCacheKey& key, uint64_t ns) {
  // Namespace 0 must be the exact identity (not a mix of zero): the
  // single-model digest space predates namespaces, and warm-start
  // snapshots saved by salt-free deployments must keep hitting.
  if (ns == 0) return key;
  uint64_t lo = key.lo, hi = key.hi;
  mix2(ns, lo, hi);
  return {lo, hi};
}

std::size_t map_cache_payload_bytes(const MapCachePayload& p) {
  std::size_t bytes = sizeof(MapCachePayload);
  if (p.kmap) {
    bytes += sizeof(KernelMap) +
             p.kmap->maps.size() * sizeof(std::vector<MapEntry>) +
             p.kmap->total() * sizeof(MapEntry);
  }
  if (p.coords) bytes += sizeof(*p.coords) + p.coords->size() * sizeof(Coord);
  return bytes;
}

KernelMapCache::KernelMapCache(std::size_t byte_budget)
    : budget_(byte_budget) {
  stats_.byte_budget = byte_budget;
}

MapCachePayload KernelMapCache::get_or_build(
    const MapCacheKey& key, const std::function<MapCachePayload()>& build,
    bool* was_hit) {
  {
    MutexLock lock(mu_);
    ++stats_.lookups;
    if (auto it = entries_.find(key); it != entries_.end()) {
      Entry& e = it->second;
      ++stats_.hits;
      stats_.build_wall_seconds_saved += e.build_wall_seconds;
      lru_.splice(lru_.begin(), lru_, e.lru_it);
      if (was_hit) *was_hit = true;
      return e.payload;
    }
    ++stats_.misses;
  }
  if (was_hit) *was_hit = false;

  // Build outside the lock: concurrent misses on one key may duplicate
  // wall work during warmup, but never block the whole pool on one build.
  // det-lint: allow(wall-clock): host-side build-time measurement seam —
  // feeds MapCacheStats observability only, never a modeled statistic
  // (modeled accounting is the deterministic MapCacheReplay).
  const auto t0 = std::chrono::steady_clock::now();
  MapCachePayload built = build();
  const double wall =
      // det-lint: allow(wall-clock): same measurement seam as above.
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const std::size_t bytes = map_cache_payload_bytes(built);

  MutexLock lock(mu_);
  stats_.build_wall_seconds += wall;
  if (auto it = entries_.find(key); it != entries_.end()) {
    // A racing builder inserted first; share its payload so every holder
    // of this key aliases one copy.
    return it->second.payload;
  }
  if (bytes > budget_) {
    ++stats_.oversized;
    return built;
  }
  insert_locked(key, built, bytes, wall);
  return built;
}

bool KernelMapCache::contains(const MapCacheKey& key) const {
  MutexLock lock(mu_);
  return entries_.find(key) != entries_.end();
}

bool KernelMapCache::admit(const MapCacheKey& key, MapCachePayload payload,
                           double build_wall_seconds) {
  check_admissible(payload);
  MutexLock lock(mu_);
  if (auto it = entries_.find(key); it != entries_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return true;
  }
  const std::size_t bytes = map_cache_payload_bytes(payload);
  if (bytes > budget_) return false;
  insert_locked(key, std::move(payload), bytes, build_wall_seconds);
  return true;
}

void KernelMapCache::insert_locked(const MapCacheKey& key,
                                   MapCachePayload payload, std::size_t bytes,
                                   double build_wall_seconds) {
  while (!lru_.empty() && stats_.bytes_in_use + bytes > budget_) {
    auto it = entries_.find(lru_.back());
    lru_.pop_back();
    stats_.bytes_in_use -= it->second.bytes;
    entries_.erase(it);
    ++stats_.evictions;
  }
  lru_.push_front(key);
  entries_.emplace(key, Entry{std::move(payload), bytes, build_wall_seconds,
                              lru_.begin()});
  stats_.bytes_in_use += bytes;
  stats_.entries = entries_.size();
  ++stats_.insertions;
}

MapCacheSnapshot KernelMapCache::export_snapshot() const {
  MutexLock lock(mu_);
  MapCacheSnapshot snap;
  snap.byte_budget = budget_;
  snap.entries.reserve(entries_.size());
  // Walk the LRU list back-to-front so the snapshot reads LRU-first and
  // sequential re-admission leaves the same entry at the MRU position.
  for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
    const Entry& e = entries_.at(*it);
    if (!e.payload.kmap && !e.payload.coords)
      throw std::logic_error(
          "KernelMapCache::export_snapshot: entry holds no payload (a "
          "build callback returned an empty MapCachePayload)");
    snap.entries.push_back({*it, e.payload, e.bytes, e.build_wall_seconds});
  }
  return snap;
}

void KernelMapCache::import_snapshot(const MapCacheSnapshot& snapshot) {
  // Validate everything first so a bad entry leaves the cache unchanged.
  for (const MapCacheSnapshotEntry& e : snapshot.entries)
    check_admissible(e.payload);
  for (const MapCacheSnapshotEntry& e : snapshot.entries)
    admit(e.key, e.payload, e.build_wall_seconds);
}

MapCacheStats KernelMapCache::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

MapCacheReplay::MapCacheReplay(std::size_t byte_budget)
    : budget_(byte_budget) {}

bool MapCacheReplay::touch(const MapCacheKey& key) {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return false;
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  return true;
}

std::size_t MapCacheReplay::insert(const MapCacheKey& key, std::size_t bytes,
                                   std::vector<MapCacheChange>* changes) {
  if (bytes > budget_) return 0;  // oversized: never cached
  std::size_t evicted = 0;
  while (!lru_.empty() && in_use_ + bytes > budget_) {
    const MapCacheKey victim = lru_.back();
    lru_.pop_back();
    auto it = entries_.find(victim);
    in_use_ -= it->second.bytes;
    entries_.erase(it);
    ++evicted;
    if (changes) changes->push_back({victim, false});
  }
  lru_.push_front(key);
  entries_.emplace(key, SimEntry{bytes, lru_.begin()});
  in_use_ += bytes;
  if (changes) changes->push_back({key, true});
  return evicted;
}

void MapCacheReplay::warm_start(const MapCacheSnapshot& snapshot,
                                std::vector<MapCacheChange>* changes) {
  for (const MapCacheSnapshotEntry& se : snapshot.entries)
    if (!touch(se.key)) insert(se.key, se.bytes, changes);
}

std::size_t MapCacheReplay::apply(const std::vector<MapCacheEvent>& events,
                                  Timeline& t,
                                  std::vector<MapCacheChange>* changes) {
  std::size_t hits = 0;
  for (const MapCacheEvent& ev : events) {
    ++stats_.lookups;
    if (touch(ev.key)) {
      ++stats_.hits;
      ++hits;
      apply_map_cache_hit(ev, t);
      stats_.modeled_seconds_saved += ev.cold_seconds - ev.hit_seconds;
      continue;
    }
    ++stats_.misses;
    stats_.evictions += insert(ev.key, ev.bytes, changes);
  }
  return hits;
}

void MapCacheReplay::drop(std::vector<MapCacheChange>* changes) {
  if (changes)
    for (const MapCacheKey& key : lru_) changes->push_back({key, false});
  lru_.clear();
  entries_.clear();
  in_use_ = 0;
}

bool MapCacheReplay::contains(const MapCacheKey& key) const {
  return entries_.find(key) != entries_.end();
}

}  // namespace ts
