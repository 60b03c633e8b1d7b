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
//    MapCacheReplay re-runs the cache decisions in submission order —
//    deterministic for any worker count (see docs/PERFORMANCE.md).
//
// The two clocks keep two caches with one LRU rule each: KernelMapCache
// holds payloads and is shared by the measurement pool; MapCacheReplay
// holds only keys and byte footprints and is owned by one
// single-threaded accounting pass.
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

/// Content digest of one coordinate set: its size and every packed
/// coordinate, in order. The only place a set's contents are hashed;
/// every product key below mixes set digests into its geometry header,
/// so the conv path hashes each coordinate level once
/// (TensorCache::level_digest) and the coordinate-vector overloads give
/// the same keys.
MapCacheKey coords_digest(const std::vector<Coord>& coords);

/// Digest of (input set, output set, geometry, search options) — the
/// exact inputs of build_kernel_map. Both set digests are always mixed,
/// so equal contents key alike whichever objects hold them.
MapCacheKey kernel_map_cache_key(const MapCacheKey& in_digest,
                                 const MapCacheKey& out_digest,
                                 const ConvGeometry& geom,
                                 const MapSearchOptions& opts);
MapCacheKey kernel_map_cache_key(const std::vector<Coord>& in_coords,
                                 const std::vector<Coord>& out_coords,
                                 const ConvGeometry& geom,
                                 const MapSearchOptions& opts);

/// Digest of (input set, kernel size, stride, pipeline flags) — the
/// exact inputs of downsample_coords.
MapCacheKey downsample_cache_key(const MapCacheKey& in_digest,
                                 int kernel_size, int stride, bool fused,
                                 bool simplified_control);
MapCacheKey downsample_cache_key(const std::vector<Coord>& in_coords,
                                 int kernel_size, int stride, bool fused,
                                 bool simplified_control);

/// Digest of one serve request's input (coordinate set + tensor stride).
/// Two requests with equal digests resolve the same mapping-stage
/// products through the cache, which is the grouping key duplicate-aware
/// batch formation (serve::DedupBatchingPolicy) dispatches on.
MapCacheKey input_content_digest(const MapCacheKey& coords_digest,
                                 int stride);
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

  /// Ownership query: does the cache currently hold `key`? Never
  /// copies the payload or touches the LRU order.
  bool contains(const MapCacheKey& key) const;

  /// Admits a payload without a lookup: inserts `key` at the MRU
  /// position through the normal eviction path, counting an insertion
  /// but no lookup/hit/miss — warm-start seeding must not perturb the
  /// hit-rate accounting. An already-present key is refreshed to MRU
  /// (the payload is content-addressed, so it cannot differ); a payload
  /// larger than the whole budget is skipped. Returns whether the key
  /// is resident afterwards. Throws std::invalid_argument, leaving the
  /// cache unchanged, unless the payload holds exactly one of
  /// kmap/coords: a hit on such an entry would hand the conv path a
  /// null map.
  bool admit(const MapCacheKey& key, MapCachePayload payload,
             double build_wall_seconds = 0);

  /// Captures the full population — every entry's key, payload, bytes,
  /// and build wall time, LRU-first. Throws std::logic_error when an
  /// entry has no payload (a build callback returned an empty one).
  MapCacheSnapshot export_snapshot() const;

  /// Re-admits a snapshot's entries in order (LRU-first) through
  /// admit(), so the restored LRU/eviction state is exactly what the
  /// saving cache would have reached — modulo this cache's own byte
  /// budget, which evicts from the snapshot's LRU end first. Every
  /// payload is validated before the first admission: on an invalid
  /// one it throws std::invalid_argument with the cache unchanged.
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

 private:
  struct Entry {
    MapCachePayload payload;
    std::size_t bytes = 0;
    double build_wall_seconds = 0;
    std::list<MapCacheKey>::iterator lru_it;
  };

  /// Inserts an absent `key` at MRU, first evicting LRU entries until
  /// `bytes` fits the budget (the caller has ruled out oversized
  /// entries). Shared by get_or_build and admit.
  void insert_locked(const MapCacheKey& key, MapCachePayload payload,
                     std::size_t bytes, double build_wall_seconds)
      TS_REQUIRES(mu_);

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

/// One change to a modeled cache's population: `key` was admitted, or
/// it left (evicted to make room, or dropped). Applying a cache's
/// changes in order mirrors its contents into an external index
/// (serve::DeviceGroup's digest->owners map) without rescanning it.
struct MapCacheChange {
  MapCacheKey key;
  bool admitted = false;
};

/// The modeled kernel-map cache: replays cache decisions in submission
/// order over requests' recorded events, adjusting each request's
/// cold-measured timeline to what a sequential pass over the cache
/// would have charged. It holds keys and byte footprints only, under
/// the same byte-budget LRU rule as KernelMapCache. Because the replay
/// depends only on the event streams, the byte budget and the seeding
/// manifest — never on thread interleaving — serving statistics stay
/// bit-reproducible for any worker count. serve::DeviceGroup owns one
/// per device. Not thread-safe: one accounting pass drives it.
///
/// Every mutator takes an optional `changes` log; when non-null, each
/// admission and each eviction or drop is appended in the order it
/// happened.
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
  void warm_start(const MapCacheSnapshot& snapshot,
                  std::vector<MapCacheChange>* changes = nullptr);

  /// Replays one request's events (in order): a hit swaps the event's
  /// cold mapping charge in `t` (seconds, DRAM traffic, kernel
  /// launches) for its warm re-key charge; a miss admits the key, and
  /// an entry larger than the whole budget is never cached. Returns the
  /// number of hits.
  std::size_t apply(const std::vector<MapCacheEvent>& events, Timeline& t,
                    std::vector<MapCacheChange>* changes = nullptr);

  /// Empties the population (a crashed device's warm state is gone)
  /// but keeps every counter: the traffic already replayed still
  /// happened.
  void drop(std::vector<MapCacheChange>* changes = nullptr);

  /// Does the population hold `key`? Never touches the LRU order.
  bool contains(const MapCacheKey& key) const;
  std::size_t byte_budget() const { return budget_; }
  const MapCacheReplayStats& stats() const { return stats_; }

 private:
  struct SimEntry {
    std::size_t bytes = 0;
    std::list<MapCacheKey>::iterator lru_it;
  };

  /// Moves a resident `key` to MRU; false when it is absent.
  bool touch(const MapCacheKey& key);
  /// Admits an absent `key` at MRU, evicting LRU entries until `bytes`
  /// fits; skips an entry larger than the whole budget. Returns the
  /// number of evictions. Shared by lookup and seeding.
  std::size_t insert(const MapCacheKey& key, std::size_t bytes,
                     std::vector<MapCacheChange>* changes);

  std::size_t budget_;
  std::size_t in_use_ = 0;
  std::list<MapCacheKey> lru_;  // front = most recently used
  std::unordered_map<MapCacheKey, SimEntry, MapCacheKeyHash> entries_;
  MapCacheReplayStats stats_;
};

}  // namespace ts
