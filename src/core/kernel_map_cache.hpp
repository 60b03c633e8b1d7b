// Cross-request kernel-map cache: content-addressed reuse of mapping-stage
// products (kernel maps and downsampled coordinate sets) across requests.
//
// The paper's core claim is that sparse-conv serving cost is dominated by
// map construction and data movement, not GEMM. Within one request the
// TensorCache already shares maps between layers at the same stride level;
// across requests, however, every serve request rebuilds identical maps
// from scratch even when near-duplicate LiDAR scans (consecutive frames,
// retried requests, multi-camera rigs) hit the queue back to back. This
// cache closes that gap, in the spirit of Tangram's reuse of already-
// loaded GPU state across serverless invocations (PAPERS.md): the key is
// a content digest of the exact build inputs — input coordinate set,
// output coordinate set, convolution geometry, and search options — so a
// hit is *proof* that the cached product is byte-identical to what the
// cold path would rebuild. Results are therefore bit-identical with the
// cache on or off; only the mapping-stage cost changes.
//
// Accounting happens on two clocks:
//  * Host wall clock: a hit skips the real build (the fig13 hotspot).
//    The cache tracks per-entry build wall time and bytes, and evicts
//    LRU entries beyond a byte budget. Thread-safe; a serving session
//    shares one cache across its whole measurement pool.
//  * Modeled clock: a hit charges a small re-key cost instead of the
//    full map-build kernels. Under concurrent serving the *wall* order
//    of lookups is racy, so modeled accounting is deferred: requests
//    measure cold and record MapCacheEvents, and each routed device's
//    record-mode cache (record_lookup) re-runs the cache decisions in
//    submission order — deterministic for any worker count.
//    MapCacheReplay is the single-device reference that replay must
//    match bit for bit (see docs/PERFORMANCE.md).
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/conv_config.hpp"
#include "core/sync.hpp"
#include "core/downsample.hpp"
#include "core/kernel_map.hpp"
#include "gpusim/timeline.hpp"
#include "hash/coords.hpp"

namespace ts {

/// 128-bit content digest identifying one mapping-stage product. Two
/// independent 64-bit mixes over the same stream make an accidental
/// collision (which would silently serve a wrong map) cryptographically
/// unlikely for any realistic cache population.
struct MapCacheKey {
  uint64_t lo = 0;
  uint64_t hi = 0;
  friend bool operator==(const MapCacheKey&, const MapCacheKey&) = default;
};

struct MapCacheKeyHash {
  std::size_t operator()(const MapCacheKey& k) const {
    return static_cast<std::size_t>(k.lo ^ (k.hi * 0x9e3779b97f4a7c15ull));
  }
};

/// Digest of (input coords, output coords, geometry, search options) —
/// the exact inputs of build_kernel_map.
MapCacheKey kernel_map_cache_key(const std::vector<Coord>& in_coords,
                                 const std::vector<Coord>& out_coords,
                                 const ConvGeometry& geom,
                                 const MapSearchOptions& opts);

/// Digest of (input coords, kernel size, stride, pipeline flags) — the
/// exact inputs of downsample_coords.
MapCacheKey downsample_cache_key(const std::vector<Coord>& in_coords,
                                 int kernel_size, int stride, bool fused,
                                 bool simplified_control);

/// Digest of one serve request's input (coordinate set + tensor stride).
/// Two requests with equal digests resolve the same mapping-stage
/// products through the cache, which is the grouping key duplicate-aware
/// batch formation (serve::DedupBatchingPolicy) dispatches on.
MapCacheKey input_content_digest(const std::vector<Coord>& coords,
                                 int stride);

/// Mixes a model/namespace salt into a content digest. Namespace 0 is
/// the identity — the legacy single-model digest space, so existing
/// digests, .tsmc snapshots, and bench baselines are byte-unchanged —
/// while any nonzero namespace remaps the key through an independent
/// splitmix chain. Two models hosted on one serve::Server get distinct
/// namespaces (ExecContext::cache_namespace), so identical geometry
/// under different models can never alias one cache entry: a cross-
/// namespace collision is exactly as unlikely as any other 128-bit
/// digest collision.
MapCacheKey salt_cache_key(const MapCacheKey& key, uint64_t ns);

/// A cached mapping-stage product: exactly one of `kmap` (kernel map) or
/// `coords` (downsampled output coordinates, with the counters that
/// reproduce its cold modeled charge) is set.
struct MapCachePayload {
  std::shared_ptr<const KernelMap> kmap;
  std::shared_ptr<const std::vector<Coord>> coords;
  DownsampleCounters ds_counters;  // meaningful when `coords` is set
};

/// Approximate host bytes a payload pins in the cache.
std::size_t map_cache_payload_bytes(const MapCachePayload& p);

/// Aggregate wall-clock-side statistics (per-cache, thread-safe reads).
struct MapCacheStats {
  std::size_t lookups = 0;
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t insertions = 0;
  std::size_t evictions = 0;
  std::size_t oversized = 0;  // built but never cached (entry > budget)
  std::size_t entries = 0;
  std::size_t bytes_in_use = 0;
  std::size_t byte_budget = 0;
  double build_wall_seconds = 0;  // wall time spent inside build callbacks
  double build_wall_seconds_saved = 0;  // entry build time * its hits
  double hit_rate() const {
    return lookups ? static_cast<double>(hits) / static_cast<double>(lookups)
                   : 0.0;
  }
};

/// One snapshotted cache entry: the content digest, its payload, the
/// payload's byte footprint, and the build wall time re-admission
/// restores to the saved-seconds accounting.
struct MapCacheSnapshotEntry {
  MapCacheKey key;
  MapCachePayload payload;
  std::size_t bytes = 0;
  double build_wall_seconds = 0;
};

/// In-memory image of a cache's population, ordered LRU-first (the
/// most recently used entry last), so replaying the admissions in order
/// reproduces the source cache's exact eviction order. `byte_budget`
/// records the saving cache's budget; a loader can re-admit into any
/// budget (smaller budgets keep the MRU suffix, the LRU rule).
struct MapCacheSnapshot {
  std::size_t byte_budget = 0;
  std::vector<MapCacheSnapshotEntry> entries;  // LRU -> MRU
};

/// Thread-safe content-addressed LRU cache with a byte budget.
class KernelMapCache {
 public:
  /// `byte_budget` bounds the summed payload bytes; entries larger than
  /// the whole budget are returned to the caller but never cached.
  explicit KernelMapCache(std::size_t byte_budget);

  /// Returns the payload for `key`, invoking `build` on a miss and
  /// caching the result. `was_hit`, when non-null, reports whether the
  /// payload came from the cache. Concurrent misses on the same key may
  /// each run `build` (the first inserted result wins and is returned to
  /// everyone); this only costs duplicated wall work during warmup, never
  /// correctness — the content digest guarantees every build of a key
  /// yields the same bytes.
  MapCachePayload get_or_build(const MapCacheKey& key,
                               const std::function<MapCachePayload()>& build,
                               bool* was_hit = nullptr);

  /// Probe without building; null payload pointers when absent.
  MapCachePayload peek(const MapCacheKey& key) const;

  /// Ownership query: does the cache currently hold `key`? Unlike peek,
  /// this does not copy the payload and never touches the LRU order, so
  /// routing layers (serve::DeviceGroup's cache-affinity dispatcher) can
  /// probe many devices without perturbing eviction state.
  bool contains(const MapCacheKey& key) const;

  /// Outcome of one record-mode lookup (see record_lookup). Besides the
  /// hit/miss decision it reports the cache-population deltas — whether
  /// `key` was admitted and exactly which keys were evicted to admit it —
  /// so an external ownership index (serve::DeviceGroup's digest->owner
  /// map) can mirror the cache contents without rescanning them.
  struct RecordOutcome {
    bool hit = false;
    bool inserted = false;      // key admitted to the cache by this lookup
    std::size_t evictions = 0;  // entries evicted to admit this key
    std::vector<MapCacheKey> evicted;  // the evicted keys, LRU order
  };

  /// Record-mode lookup: applies the cache's exact hit/miss/LRU/eviction
  /// bookkeeping for `key` with a declared payload footprint of `bytes`,
  /// without storing any payload. This is how a *modeled* device cache is
  /// driven (serve::DeviceGroup): the deterministic submission-order
  /// accounting pass replays each request's MapCacheEvents through the
  /// device it was routed to, and the decisions here are bit-compatible
  /// with MapCacheReplay for any event stream. Entries larger than the
  /// whole budget follow the get_or_build rule (counted oversized, never
  /// cached). Do not mix record-mode and get_or_build on one cache: a
  /// record-mode hit has no payload to return.
  RecordOutcome record_lookup(const MapCacheKey& key, std::size_t bytes);

  /// Admits a payload without a lookup: inserts `key` at the MRU
  /// position through the normal eviction path, counting an insertion
  /// but no lookup/hit/miss — warm-start seeding must not perturb the
  /// hit-rate accounting. An already-present key is refreshed to MRU
  /// (the payload is content-addressed, so it cannot differ); a payload
  /// larger than the whole budget is skipped. Returns whether the key
  /// is resident afterwards.
  bool admit(const MapCacheKey& key, MapCachePayload payload,
             double build_wall_seconds = 0);

  /// Record-mode admit: the admission half of record_lookup without the
  /// lookup accounting, reporting the same population deltas so an
  /// external ownership index can mirror warm-start seeding exactly
  /// like live traffic (serve::DeviceGroup::begin_schedule).
  RecordOutcome admit_record(const MapCacheKey& key, std::size_t bytes);

  /// Warm re-seed hook for shard replacement (serve::DeviceGroup::
  /// revive_shard): drops the entire population, then re-admits the
  /// snapshot manifest's footprints in record mode (LRU-first, so the
  /// restored residency and eviction order match import_snapshot's).
  /// Returns one RecordOutcome per manifest entry, in order, so an
  /// external ownership index can mirror the rebuilt population.
  /// Atomic: the drop and every re-admission happen under one lock
  /// acquisition, so a concurrent reader never observes the half-reseeded
  /// population.
  std::vector<RecordOutcome> reseed_record(const MapCacheSnapshot& snapshot);

  /// Captures the full population — every entry's key, payload, bytes,
  /// and build wall time, LRU-first. Throws std::logic_error when an
  /// entry has no payload (a record-mode cache holds footprints only
  /// and cannot be exported as a payload snapshot).
  MapCacheSnapshot export_snapshot() const;

  /// Re-admits a snapshot's entries in order (LRU-first) through
  /// admit(), so the restored LRU/eviction state is exactly what the
  /// saving cache would have reached — modulo this cache's own byte
  /// budget, which evicts from the snapshot's LRU end first.
  void import_snapshot(const MapCacheSnapshot& snapshot);

  /// Binary snapshot serialization (implemented in io/serialize.cpp;
  /// versioned header, validated payloads). load_snapshot parses and
  /// validates the whole stream before admitting anything, throwing
  /// std::runtime_error on corrupt, truncated, or version-mismatched
  /// input with the cache left unchanged.
  void save_snapshot(std::ostream& os) const;
  void load_snapshot(std::istream& is);

  MapCacheStats stats() const;
  std::size_t byte_budget() const { return budget_; }
  void clear();

 private:
  struct Entry {
    MapCachePayload payload;
    std::size_t bytes = 0;
    std::size_t hits = 0;
    double build_wall_seconds = 0;
    std::list<MapCacheKey>::iterator lru_it;
  };

  /// Evicts LRU entries until `incoming_bytes` fits the budget. When
  /// `evicted` is non-null each victim key is appended (LRU order) —
  /// record_lookup uses this to report population deltas.
  void evict_to_fit_locked(std::size_t incoming_bytes,
                           std::vector<MapCacheKey>* evicted = nullptr)
      TS_REQUIRES(mu_);
  /// Lock-held bodies of admit_record and clear, shared by the public
  /// entry points and the atomic reseed_record compound.
  RecordOutcome admit_record_locked(const MapCacheKey& key, std::size_t bytes)
      TS_REQUIRES(mu_);
  void clear_locked() TS_REQUIRES(mu_);

  /// Immutable after construction (safe to read without mu_).
  std::size_t budget_;
  mutable Mutex mu_;
  std::list<MapCacheKey> lru_ TS_GUARDED_BY(mu_);  // front = MRU
  std::unordered_map<MapCacheKey, Entry, MapCacheKeyHash> entries_
      TS_GUARDED_BY(mu_);
  MapCacheStats stats_ TS_GUARDED_BY(mu_);
};

// ---------------------------------------------------------------------
// Deterministic modeled accounting (deferred mode)
// ---------------------------------------------------------------------

/// One deferred accounting record: a mapping-stage product the request
/// resolved through the cache, with the modeled charge it measured (cold)
/// and the charge a warm hit substitutes.
struct MapCacheEvent {
  MapCacheKey key;
  std::size_t bytes = 0;  // payload footprint in the replayed LRU
  double cold_seconds = 0;
  double cold_dram_bytes = 0;
  std::size_t cold_launches = 0;
  double hit_seconds = 0;
  double hit_dram_bytes = 0;
  std::size_t hit_launches = 0;
};

/// Applies one warm-hit substitution to a cold-measured timeline:
/// swaps the event's cold mapping charge (seconds, DRAM traffic, kernel
/// launches) for its warm re-key charge. The single definition of the
/// hit-delta arithmetic, shared by MapCacheReplay and the serving
/// layer's per-device record-mode replay — both must stay bit-identical.
void apply_map_cache_hit(const MapCacheEvent& ev, Timeline& t);

struct MapCacheReplayStats {
  std::size_t lookups = 0;
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t evictions = 0;
  double modeled_seconds_saved = 0;  // sum of (cold - hit) over hits
  double hit_rate() const {
    return lookups ? static_cast<double>(hits) / static_cast<double>(lookups)
                   : 0.0;
  }
};

/// Replays cache decisions in submission order over requests' recorded
/// events, adjusting each request's cold-measured timeline to what a
/// sequential (submission-ordered) pass over the shared cache would have
/// charged. Because the replay depends only on the event streams and the
/// byte budget — never on thread interleaving — serving statistics stay
/// bit-reproducible for any worker count.
class MapCacheReplay {
 public:
  explicit MapCacheReplay(std::size_t byte_budget);

  /// Seeds the simulated population from a snapshot manifest (keys and
  /// footprints, LRU-first) before any events replay, so snapshot-
  /// warmed digests are warm hits from the first lookup. Seeding is not
  /// replay traffic: it touches no stats counter, and entries past the
  /// budget follow the normal LRU rule (the snapshot's LRU end evicts
  /// first). Deterministic and worker-invariant like the rest of the
  /// replay — the manifest is part of the configuration.
  void warm_start(const MapCacheSnapshot& snapshot);

  /// Replays one request's events (in order) and applies the hit/cold
  /// charge deltas to `t`.
  void apply(const std::vector<MapCacheEvent>& events, Timeline& t);

  const MapCacheReplayStats& stats() const { return stats_; }

 private:
  struct SimEntry {
    std::size_t bytes = 0;
    std::list<MapCacheKey>::iterator lru_it;
  };

  std::size_t budget_;
  std::size_t in_use_ = 0;
  std::list<MapCacheKey> lru_;  // front = most recently used
  std::unordered_map<MapCacheKey, SimEntry, MapCacheKeyHash> entries_;
  MapCacheReplayStats stats_;
};

}  // namespace ts
