// Cross-request kernel-map cache: content-addressed keys, bit-identical
// warm-vs-cold results, byte-budget LRU eviction, hit accounting, and —
// through serve::Server sessions — thread-safe sharing with modeled
// statistics that are deterministic for any worker count.
#include <gtest/gtest.h>

#include <random>
#include <sstream>
#include <stdexcept>
#include <unordered_set>
#include <vector>

#include "core/conv3d.hpp"
#include "core/downsample.hpp"
#include "core/kernel_map_cache.hpp"
#include "engines/presets.hpp"
#include "engines/runner.hpp"
#include "gpusim/device.hpp"
#include "nn/layers.hpp"
#include "nn/minkunet.hpp"
#include "serve/server.hpp"

namespace ts {
namespace {

SparseTensor random_tensor(int n, int extent, std::size_t channels,
                           uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int32_t> d(0, extent);
  std::uniform_real_distribution<float> f(-1.0f, 1.0f);
  std::vector<Coord> coords;
  std::unordered_set<uint64_t> seen;
  while (static_cast<int>(coords.size()) < n) {
    const Coord c{0, d(rng), d(rng), d(rng)};
    if (seen.insert(pack_coord(c)).second) coords.push_back(c);
  }
  Matrix feats(coords.size(), channels);
  for (std::size_t i = 0; i < feats.size(); ++i) feats.data()[i] = f(rng);
  return SparseTensor(std::move(coords), std::move(feats));
}

/// Down + submanifold + up, so the cache sees downsample coords, strided
/// maps, stride-1 maps, and transposed reuse.
ModelFn small_unet(uint64_t seed) {
  std::mt19937_64 rng(seed);
  auto net = std::make_shared<spnn::Sequential>();
  net->emplace<spnn::ConvBlock>(4, 16, 3, 1, false, rng);
  net->emplace<spnn::ConvBlock>(16, 32, 2, 2, false, rng);
  net->emplace<spnn::ConvBlock>(32, 32, 3, 1, false, rng);
  net->emplace<spnn::ConvBlock>(32, 16, 2, 2, true, rng);
  return [net](const SparseTensor& x, ExecContext& ctx) {
    net->forward(x, ctx);
  };
}

void expect_same_timeline(const Timeline& a, const Timeline& b) {
  for (std::size_t s = 0; s < kNumStages; ++s) {
    const Stage st = static_cast<Stage>(s);
    EXPECT_DOUBLE_EQ(a.stage_seconds(st), b.stage_seconds(st))
        << to_string(st);
  }
  EXPECT_DOUBLE_EQ(a.dram_bytes(), b.dram_bytes());
  EXPECT_EQ(a.kernel_launches(), b.kernel_launches());
  EXPECT_DOUBLE_EQ(a.flops(), b.flops());
}

// --- Content keys -----------------------------------------------------

TEST(MapCacheKey, DeterministicAndContentSensitive) {
  const SparseTensor t = random_tensor(200, 14, 4, 1);
  const std::vector<Coord>& in = t.coords();
  ConvGeometry geom{3, 1, false, 1};
  MapSearchOptions opts{MapBackend::kGrid, true};

  const MapCacheKey a = kernel_map_cache_key(in, in, geom, opts);
  const MapCacheKey b = kernel_map_cache_key(in, in, geom, opts);
  EXPECT_EQ(a, b);

  // Any build-input change must move the key: coordinate content,
  // coordinate order, geometry, and search options.
  std::vector<Coord> perturbed = in;
  perturbed[0].x += 1;
  EXPECT_FALSE(a == kernel_map_cache_key(perturbed, perturbed, geom, opts));
  std::vector<Coord> swapped = in;
  std::swap(swapped[0], swapped[1]);
  EXPECT_FALSE(a == kernel_map_cache_key(swapped, swapped, geom, opts));
  ConvGeometry k5 = geom;
  k5.kernel_size = 5;
  EXPECT_FALSE(a == kernel_map_cache_key(in, in, k5, opts));
  MapSearchOptions hash_opts{MapBackend::kHashMap, true};
  EXPECT_FALSE(a == kernel_map_cache_key(in, in, geom, hash_opts));

  const MapCacheKey d1 = downsample_cache_key(in, 2, 2, true, true);
  EXPECT_EQ(d1, downsample_cache_key(in, 2, 2, true, true));
  EXPECT_FALSE(d1 == downsample_cache_key(in, 2, 2, false, true));
  EXPECT_FALSE(d1 == downsample_cache_key(perturbed, 2, 2, true, true));
}

// A key depends on the sets' contents, never on which objects hold them:
// a set passed as both input and output keys like the set and an equal
// copy, and the set-digest overloads give the coordinate-vector
// overloads' keys.
TEST(CacheKey, EqualContentSameKeyWhateverTheObject) {
  const SparseTensor t = random_tensor(200, 14, 4, 2);
  const std::vector<Coord>& in = t.coords();
  const std::vector<Coord> copy = in;
  const ConvGeometry geom{3, 1, false, 1};
  const MapSearchOptions opts{MapBackend::kGrid, true};

  const MapCacheKey same = kernel_map_cache_key(in, in, geom, opts);
  EXPECT_EQ(same, kernel_map_cache_key(in, copy, geom, opts));
  EXPECT_EQ(same, kernel_map_cache_key(copy, in, geom, opts));
  EXPECT_EQ(same, kernel_map_cache_key(coords_digest(copy),
                                       coords_digest(copy), geom, opts));
  EXPECT_EQ(downsample_cache_key(in, 3, 2, true, true),
            downsample_cache_key(coords_digest(copy), 3, 2, true, true));
  EXPECT_EQ(input_content_digest(in, 2),
            input_content_digest(coords_digest(copy), 2));

  // Input and output are distinct roles: swapping two sets moves the key.
  const std::vector<Coord> coarse = downsample_coords(in, 2, 2, true, true);
  const ConvGeometry strided{2, 2, false, 1};
  const MapSearchOptions direct{MapBackend::kGrid, false};
  EXPECT_FALSE(kernel_map_cache_key(in, coarse, strided, direct) ==
               kernel_map_cache_key(coarse, in, strided, direct));
}

// --- Warm vs cold: results and accounting -----------------------------

TEST(KernelMapCache, WarmRunIsBitIdenticalAndCheaper) {
  const SparseTensor input = random_tensor(300, 14, 4, 2);
  std::mt19937_64 rng(7);
  spnn::MinkUNet net(0.25, 4, 5, 7);

  auto run_once = [&](const std::shared_ptr<KernelMapCache>& cache,
                      Matrix& out) {
    RunOptions opt;
    opt.numerics = true;
    opt.map_cache = cache;
    ExecContext ctx = make_run_context(rtx2080ti(), torchsparse_config(), opt);
    const SparseTensor in = fresh_input(input);
    out = net.forward(in, ctx).feats();
    return ctx.timeline;
  };

  Matrix cold_out, warm_out, off_out;
  const Timeline off = run_once(nullptr, off_out);
  auto cache = std::make_shared<KernelMapCache>(std::size_t(256) << 20);
  const Timeline cold = run_once(cache, cold_out);
  const Timeline warm = run_once(cache, warm_out);

  // Cold with the cache on charges exactly the cache-off path (misses
  // add no modeled overhead), and outputs are bit-identical across all
  // three runs.
  expect_same_timeline(off, cold);
  EXPECT_EQ(max_abs_diff(off_out, cold_out), 0.0f);
  EXPECT_EQ(max_abs_diff(off_out, warm_out), 0.0f);

  // Warm mapping time collapses to the re-key cost; everything else is
  // untouched.
  EXPECT_LT(warm.stage_seconds(Stage::kMapping),
            0.5 * cold.stage_seconds(Stage::kMapping));
  EXPECT_DOUBLE_EQ(warm.stage_seconds(Stage::kMatMul),
                   cold.stage_seconds(Stage::kMatMul));
  EXPECT_DOUBLE_EQ(warm.data_movement_seconds(),
                   cold.data_movement_seconds());

  const MapCacheStats s = cache->stats();
  EXPECT_GT(s.hits, 0u);
  EXPECT_EQ(s.hits + s.misses, s.lookups);
}

TEST(KernelMapCache, SurvivesResetContext) {
  const SparseTensor input = random_tensor(250, 13, 4, 3);
  const ModelFn model = small_unet(11);
  RunOptions opt;
  opt.map_cache = std::make_shared<KernelMapCache>(std::size_t(64) << 20);
  ExecContext ctx = make_run_context(rtx2080ti(), torchsparse_config(), opt);

  const Timeline cold = run_in_context(model, input, ctx);
  reset_context(ctx);
  ASSERT_NE(ctx.map_cache, nullptr);  // warm maps outlive the reset
  const Timeline warm = run_in_context(model, input, ctx);
  EXPECT_LT(warm.stage_seconds(Stage::kMapping),
            cold.stage_seconds(Stage::kMapping));
  EXPECT_GT(opt.map_cache->stats().hits, 0u);
}

// --- LRU eviction and byte budget -------------------------------------

TEST(KernelMapCache, LruEvictsUnderTinyByteBudget) {
  const SparseTensor a = random_tensor(200, 13, 4, 4);
  const SparseTensor b = random_tensor(200, 13, 4, 5);
  ConvGeometry geom{3, 1, false, 1};
  MapSearchOptions opts{MapBackend::kGrid, false};

  auto build = [&](const SparseTensor& t) {
    return [&]() {
      MapCachePayload p;
      p.kmap = std::make_shared<const KernelMap>(
          build_kernel_map(t.coords(), t.coords(), geom, opts));
      return p;
    };
  };
  const MapCacheKey ka = kernel_map_cache_key(a.coords(), a.coords(), geom,
                                              opts);
  const MapCacheKey kb = kernel_map_cache_key(b.coords(), b.coords(), geom,
                                              opts);

  // Budget sized for roughly one entry: alternating keys must evict.
  MapCachePayload probe;
  probe.kmap = std::make_shared<const KernelMap>(
      build_kernel_map(a.coords(), a.coords(), geom, opts));
  auto cache = std::make_shared<KernelMapCache>(
      map_cache_payload_bytes(probe) + 1024);
  bool hit = false;
  cache->get_or_build(ka, build(a), &hit);
  EXPECT_FALSE(hit);
  cache->get_or_build(kb, build(b), &hit);  // evicts a
  EXPECT_FALSE(hit);
  cache->get_or_build(ka, build(a), &hit);  // rebuilt: a was evicted
  EXPECT_FALSE(hit);
  cache->get_or_build(ka, build(a), &hit);  // now warm
  EXPECT_TRUE(hit);

  const MapCacheStats s = cache->stats();
  EXPECT_GT(s.evictions, 0u);
  EXPECT_LE(s.bytes_in_use, s.byte_budget);
  EXPECT_EQ(s.entries, 1u);
}

TEST(KernelMapCache, OversizedEntriesAreReturnedButNeverCached) {
  const SparseTensor a = random_tensor(200, 13, 4, 6);
  ConvGeometry geom{3, 1, false, 1};
  MapSearchOptions opts{MapBackend::kGrid, false};
  auto cache = std::make_shared<KernelMapCache>(64);  // far below any map
  const MapCacheKey ka = kernel_map_cache_key(a.coords(), a.coords(), geom,
                                              opts);
  bool hit = true;
  const MapCachePayload p = cache->get_or_build(
      ka,
      [&] {
        MapCachePayload out;
        out.kmap = std::make_shared<const KernelMap>(
            build_kernel_map(a.coords(), a.coords(), geom, opts));
        return out;
      },
      &hit);
  EXPECT_FALSE(hit);
  ASSERT_NE(p.kmap, nullptr);
  EXPECT_GT(p.kmap->total(), 0u);
  const MapCacheStats s = cache->stats();
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.oversized, 1u);
  EXPECT_EQ(s.bytes_in_use, 0u);
}

TEST(KernelMapCache, HitRateAccounting) {
  const SparseTensor a = random_tensor(150, 12, 4, 8);
  ConvGeometry geom{3, 1, false, 1};
  MapSearchOptions opts{MapBackend::kGrid, false};
  auto cache = std::make_shared<KernelMapCache>(std::size_t(64) << 20);
  const MapCacheKey ka = kernel_map_cache_key(a.coords(), a.coords(), geom,
                                              opts);
  auto build = [&] {
    MapCachePayload p;
    p.kmap = std::make_shared<const KernelMap>(
        build_kernel_map(a.coords(), a.coords(), geom, opts));
    return p;
  };
  for (int i = 0; i < 5; ++i) cache->get_or_build(ka, build);
  const MapCacheStats s = cache->stats();
  EXPECT_EQ(s.lookups, 5u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 4u);
  EXPECT_DOUBLE_EQ(s.hit_rate(), 0.8);
  EXPECT_EQ(s.insertions, 1u);
  EXPECT_GE(s.build_wall_seconds_saved, 0.0);
}

// --- Snapshots and warm start -----------------------------------------

/// Deterministic coords payload of `n` coordinates — a sizing knob for
/// budget/eviction tests (map_cache_payload_bytes scales with n).
MapCachePayload coords_payload(int n, int32_t salt) {
  auto cs = std::make_shared<std::vector<Coord>>();
  for (int i = 0; i < n; ++i)
    cs->push_back({0, salt, static_cast<int32_t>(i), salt + 1});
  MapCachePayload p;
  p.coords = std::move(cs);
  p.ds_counters.kernel_launches = 3;
  p.ds_counters.dram_bytes = 1234.5;
  p.ds_counters.instr_ops = 67.0;
  p.ds_counters.candidates = static_cast<std::size_t>(n) * 8;
  p.ds_counters.kept = static_cast<std::size_t>(n);
  return p;
}

MapCachePayload kmap_payload(const SparseTensor& t) {
  ConvGeometry geom{3, 1, false, 1};
  MapSearchOptions opts{MapBackend::kGrid, true};
  MapCachePayload p;
  p.kmap = std::make_shared<const KernelMap>(
      build_kernel_map(t.coords(), t.coords(), geom, opts));
  return p;
}

void expect_same_payload(const MapCachePayload& a, const MapCachePayload& b) {
  ASSERT_EQ(static_cast<bool>(a.kmap), static_cast<bool>(b.kmap));
  ASSERT_EQ(static_cast<bool>(a.coords), static_cast<bool>(b.coords));
  if (a.kmap) {
    EXPECT_EQ(a.kmap->kernel_size, b.kmap->kernel_size);
    ASSERT_EQ(a.kmap->maps.size(), b.kmap->maps.size());
    for (std::size_t m = 0; m < a.kmap->maps.size(); ++m) {
      ASSERT_EQ(a.kmap->maps[m].size(), b.kmap->maps[m].size()) << m;
      for (std::size_t i = 0; i < a.kmap->maps[m].size(); ++i) {
        EXPECT_EQ(a.kmap->maps[m][i].in, b.kmap->maps[m][i].in);
        EXPECT_EQ(a.kmap->maps[m][i].out, b.kmap->maps[m][i].out);
      }
    }
    EXPECT_EQ(a.kmap->stats.queries, b.kmap->stats.queries);
    EXPECT_EQ(a.kmap->stats.index_accesses, b.kmap->stats.index_accesses);
    EXPECT_EQ(a.kmap->stats.build_accesses, b.kmap->stats.build_accesses);
    EXPECT_EQ(a.kmap->stats.used_symmetry, b.kmap->stats.used_symmetry);
    EXPECT_EQ(a.kmap->stats.backend, b.kmap->stats.backend);
  }
  if (a.coords) {
    ASSERT_EQ(a.coords->size(), b.coords->size());
    for (std::size_t i = 0; i < a.coords->size(); ++i) {
      EXPECT_EQ(pack_coord((*a.coords)[i]), pack_coord((*b.coords)[i])) << i;
    }
    EXPECT_EQ(a.ds_counters.kernel_launches, b.ds_counters.kernel_launches);
    EXPECT_DOUBLE_EQ(a.ds_counters.dram_bytes, b.ds_counters.dram_bytes);
    EXPECT_DOUBLE_EQ(a.ds_counters.instr_ops, b.ds_counters.instr_ops);
    EXPECT_EQ(a.ds_counters.candidates, b.ds_counters.candidates);
    EXPECT_EQ(a.ds_counters.kept, b.ds_counters.kept);
  }
}

TEST(MapCacheSnapshot, RoundTripIsByteIdentical) {
  // Both payload kinds, plus build-time/LRU metadata, must survive
  // save -> load -> save byte-for-byte.
  KernelMapCache cache(std::size_t(64) << 20);
  const SparseTensor t = random_tensor(180, 12, 4, 41);
  EXPECT_TRUE(cache.admit({1, 2}, kmap_payload(t), 0.25));
  EXPECT_TRUE(cache.admit({3, 4}, coords_payload(100, 5), 0.5));
  EXPECT_TRUE(cache.admit({5, 6}, coords_payload(40, 9), 0.0));

  std::stringstream image;
  cache.save_snapshot(image);

  KernelMapCache restored(std::size_t(64) << 20);
  restored.load_snapshot(image);
  std::stringstream image2;
  restored.save_snapshot(image2);
  EXPECT_EQ(image.str(), image2.str());  // byte-identical re-serialization

  const MapCacheSnapshot a = cache.export_snapshot();
  const MapCacheSnapshot b = restored.export_snapshot();
  EXPECT_EQ(a.byte_budget, b.byte_budget);
  ASSERT_EQ(a.entries.size(), b.entries.size());
  for (std::size_t i = 0; i < a.entries.size(); ++i) {
    EXPECT_EQ(a.entries[i].key, b.entries[i].key) << i;
    EXPECT_EQ(a.entries[i].bytes, b.entries[i].bytes) << i;
    EXPECT_DOUBLE_EQ(a.entries[i].build_wall_seconds,
                     b.entries[i].build_wall_seconds)
        << i;
    expect_same_payload(a.entries[i].payload, b.entries[i].payload);
  }

  // Restoring counts insertions, never lookups: warm-start seeding must
  // not perturb hit-rate accounting.
  const MapCacheStats s = restored.stats();
  EXPECT_EQ(s.entries, 3u);
  EXPECT_EQ(s.insertions, 3u);
  EXPECT_EQ(s.lookups, 0u);
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses, 0u);
  EXPECT_EQ(s.bytes_in_use, cache.stats().bytes_in_use);
}

TEST(MapCacheSnapshot, EvictionOrderSurvivesRoundTripUnderChurn) {
  // Snapshot a cache whose LRU order was permuted by hits, restore it,
  // then drive both caches through an identical admission churn: the
  // restored cache must evict exactly the same keys in the same order.
  const MapCachePayload unit = coords_payload(50, 1);
  const std::size_t unit_bytes = map_cache_payload_bytes(unit);
  KernelMapCache original(4 * unit_bytes + 64);
  const MapCacheKey k1{11, 0}, k2{22, 0}, k3{33, 0}, k4{44, 0};
  EXPECT_TRUE(original.admit(k1, coords_payload(50, 1)));
  EXPECT_TRUE(original.admit(k2, coords_payload(50, 2)));
  EXPECT_TRUE(original.admit(k3, coords_payload(50, 3)));
  EXPECT_TRUE(original.admit(k4, coords_payload(50, 4)));
  // Touch k1 and k3: LRU order becomes k2, k4, k1, k3 (LRU-first).
  original.get_or_build(k1, [] { return MapCachePayload{}; });
  original.get_or_build(k3, [] { return MapCachePayload{}; });

  const MapCacheSnapshot snap = original.export_snapshot();
  ASSERT_EQ(snap.entries.size(), 4u);
  EXPECT_EQ(snap.entries.front().key, k2);  // LRU first
  EXPECT_EQ(snap.entries.back().key, k3);   // MRU last

  KernelMapCache restored(4 * unit_bytes + 64);
  restored.import_snapshot(snap);
  // Identical churn on both: two new admissions evict the two LRU
  // entries (k2 then k4) from each cache.
  for (KernelMapCache* c : {&original, &restored}) {
    EXPECT_TRUE(c->admit({55, 0}, coords_payload(50, 5)));
    EXPECT_TRUE(c->admit({66, 0}, coords_payload(50, 6)));
  }
  for (KernelMapCache* c : {&original, &restored}) {
    EXPECT_FALSE(c->contains(k2));
    EXPECT_FALSE(c->contains(k4));
    EXPECT_TRUE(c->contains(k1));
    EXPECT_TRUE(c->contains(k3));
    EXPECT_TRUE(c->contains({55, 0}));
    EXPECT_TRUE(c->contains({66, 0}));
  }
  EXPECT_EQ(original.stats().entries, restored.stats().entries);
  EXPECT_EQ(original.stats().bytes_in_use, restored.stats().bytes_in_use);
}

TEST(MapCacheSnapshot, SmallerBudgetKeepsMruSuffix) {
  const MapCachePayload unit = coords_payload(50, 1);
  const std::size_t unit_bytes = map_cache_payload_bytes(unit);
  KernelMapCache big(3 * unit_bytes + 64);
  const MapCacheKey k1{1, 0}, k2{2, 0}, k3{3, 0};
  big.admit(k1, coords_payload(50, 1));
  big.admit(k2, coords_payload(50, 2));
  big.admit(k3, coords_payload(50, 3));

  // Re-admitting LRU-first into a 2-entry budget must keep the MRU
  // suffix {k2, k3} — the entries the saving cache valued most.
  KernelMapCache small(2 * unit_bytes + 64);
  small.import_snapshot(big.export_snapshot());
  EXPECT_FALSE(small.contains(k1));
  EXPECT_TRUE(small.contains(k2));
  EXPECT_TRUE(small.contains(k3));
  EXPECT_EQ(small.stats().entries, 2u);
}

TEST(MapCacheSnapshot, ImportRejectsPayloadlessEntriesAtomically) {
  // An admitted entry with neither or both of kmap/coords would hand the
  // conv path a null map on its first hit. The whole snapshot is
  // validated before anything is admitted, so the cache stays as it was.
  KernelMapCache cache(std::size_t(1) << 20);
  const MapCacheKey resident{1, 0}, good{2, 0}, bad{3, 0};
  ASSERT_TRUE(cache.admit(resident, coords_payload(50, 1)));
  MapCachePayload both = coords_payload(50, 3);
  both.kmap = std::make_shared<const KernelMap>();
  for (const MapCachePayload& invalid : {MapCachePayload{}, both}) {
    MapCacheSnapshot snap;
    snap.entries.push_back({good, coords_payload(50, 2), 0, 0.0});
    snap.entries.push_back({bad, invalid, 0, 0.0});
    EXPECT_THROW(cache.import_snapshot(snap), std::invalid_argument);
    EXPECT_THROW(cache.admit(bad, invalid), std::invalid_argument);
    EXPECT_FALSE(cache.contains(good));
    EXPECT_FALSE(cache.contains(bad));
    EXPECT_TRUE(cache.contains(resident));
    EXPECT_EQ(cache.stats().entries, 1u);
    EXPECT_EQ(cache.stats().insertions, 1u);
  }
}

TEST(MapCacheSnapshot, AdmitSkipsOversizedAndRefreshesExisting) {
  const MapCachePayload unit = coords_payload(50, 1);
  const std::size_t unit_bytes = map_cache_payload_bytes(unit);
  KernelMapCache cache(2 * unit_bytes + 64);
  const MapCacheKey k1{1, 0}, k2{2, 0}, k3{3, 0};
  EXPECT_TRUE(cache.admit(k1, coords_payload(50, 1)));
  EXPECT_TRUE(cache.admit(k2, coords_payload(50, 2)));
  // A payload past the whole budget is skipped, population untouched.
  EXPECT_FALSE(cache.admit({9, 9}, coords_payload(500, 9)));
  EXPECT_EQ(cache.stats().entries, 2u);
  // Re-admitting k1 refreshes it to MRU: the next eviction takes k2.
  EXPECT_TRUE(cache.admit(k1, coords_payload(50, 1)));
  EXPECT_TRUE(cache.admit(k3, coords_payload(50, 3)));
  EXPECT_TRUE(cache.contains(k1));
  EXPECT_FALSE(cache.contains(k2));
  EXPECT_TRUE(cache.contains(k3));
}

TEST(MapCacheSnapshot, ReplayWarmStartMatchesNeverSerializedReplay) {
  // A replay warm-started from a snapshot must produce the same modeled
  // stats over the test traffic as a replay that reached the same
  // population by replaying the warming traffic itself.
  const MapCacheKey ka{1, 1}, kb{2, 2}, kc{3, 3};
  auto event = [](const MapCacheKey& k, std::size_t bytes) {
    MapCacheEvent ev;
    ev.key = k;
    ev.bytes = bytes;
    ev.cold_seconds = 1.0;
    ev.hit_seconds = 0.125;
    return ev;
  };
  const std::vector<MapCacheEvent> warm_traffic = {
      event(ka, 1000), event(kb, 1000), event(kc, 1000)};
  const std::vector<MapCacheEvent> test_traffic = {
      event(kb, 1000), event(ka, 1000), event(kc, 1000), event(ka, 1000)};

  // Path 1: replay the warming traffic, then the test traffic.
  MapCacheReplay lived(std::size_t(1) << 20);
  Timeline scratch;
  lived.apply(warm_traffic, scratch);
  const MapCacheReplayStats before = lived.stats();
  lived.apply(test_traffic, scratch);

  // Path 2: the same population via a snapshot manifest. (The payload
  // cache admits the same keys in the same order; its exported manifest
  // carries their keys and byte footprints.)
  KernelMapCache source(std::size_t(1) << 20);
  MapCachePayload p = coords_payload(50, 1);
  const std::size_t bytes = map_cache_payload_bytes(p);
  source.admit(ka, coords_payload(50, 1));
  source.admit(kb, coords_payload(50, 2));
  source.admit(kc, coords_payload(50, 3));
  MapCacheSnapshot snap = source.export_snapshot();
  for (MapCacheSnapshotEntry& e : snap.entries) e.bytes = 1000;  // as lived
  (void)bytes;

  MapCacheReplay warmed(std::size_t(1) << 20);
  warmed.warm_start(snap);
  // Seeding is not traffic: every counter still zero.
  EXPECT_EQ(warmed.stats().lookups, 0u);
  EXPECT_EQ(warmed.stats().hits, 0u);
  EXPECT_EQ(warmed.stats().misses, 0u);
  EXPECT_EQ(warmed.stats().evictions, 0u);
  Timeline scratch2;
  warmed.apply(test_traffic, scratch2);

  // Identical test-phase deltas: every lookup in the warmed replay hits,
  // exactly like the replay that lived through the warming traffic.
  EXPECT_EQ(warmed.stats().lookups, lived.stats().lookups - before.lookups);
  EXPECT_EQ(warmed.stats().hits, lived.stats().hits - before.hits);
  EXPECT_EQ(warmed.stats().misses, lived.stats().misses - before.misses);
  EXPECT_EQ(warmed.stats().evictions,
            lived.stats().evictions - before.evictions);
  EXPECT_DOUBLE_EQ(
      warmed.stats().modeled_seconds_saved,
      lived.stats().modeled_seconds_saved - before.modeled_seconds_saved);
  EXPECT_EQ(warmed.stats().hits, 4u);  // every test lookup warm
}

// --- Serving integration ----------------------------------------------

serve::StreamReport serve_session(int workers, std::size_t cache_bytes,
                                  const std::vector<SparseTensor>& scans,
                                  bool borrow = false) {
  RunOptions run;
  run.borrow_input = borrow;
  serve::ServerConfig cfg;
  cfg.with_device(rtx2080ti())
      .with_engine(torchsparse_config())
      .with_workers(workers)
      .with_run(run)
      .with_map_cache_bytes(cache_bytes);
  serve::Server server(cfg);
  server.start(small_unet(21));
  for (std::size_t i = 0; i < scans.size(); ++i)
    server.submit(scans[i], 0.001 * static_cast<double>(i));
  return server.drain();
}

TEST(KernelMapCacheServe, DuplicateStreamAmortizesMappingDeterministically) {
  // 12 requests, all the same scan: the warm path must amortize the
  // mapping stage away and the modeled stats must not depend on the
  // worker count (deferred submission-order accounting).
  const SparseTensor scan = random_tensor(250, 13, 4, 9);
  const std::vector<SparseTensor> scans(12, scan);

  const serve::StreamReport off = serve_session(4, 0, scans);
  const serve::StreamReport on1 = serve_session(1, 64 << 20, scans);
  const serve::StreamReport on4 = serve_session(4, 64 << 20, scans);

  // Deterministic across worker counts: identical aggregate timeline and
  // per-request service times.
  expect_same_timeline(on1.stats.aggregate, on4.stats.aggregate);
  ASSERT_EQ(on1.requests.size(), on4.requests.size());
  for (std::size_t i = 0; i < on1.requests.size(); ++i)
    EXPECT_DOUBLE_EQ(on1.requests[i].service_seconds,
                     on4.requests[i].service_seconds);

  // Amortization: 11 of 12 requests hit every mapping product.
  const double map_off = off.stats.aggregate.stage_seconds(Stage::kMapping);
  const double map_on = on4.stats.aggregate.stage_seconds(Stage::kMapping);
  EXPECT_LT(map_on, 0.25 * map_off);
  EXPECT_GT(on4.stats.map_cache.hits, 0u);
  EXPECT_EQ(on4.stats.map_cache.hits + on4.stats.map_cache.misses,
            on4.stats.map_cache.lookups);
  EXPECT_GT(on4.stats.map_cache.modeled_seconds_saved, 0.0);

  // Non-mapping stages are untouched by the cache.
  EXPECT_DOUBLE_EQ(off.stats.aggregate.stage_seconds(Stage::kMatMul),
                   on4.stats.aggregate.stage_seconds(Stage::kMatMul));
}

TEST(KernelMapCacheServe, UniqueStreamMatchesCacheOffBitExactly) {
  // 0% duplicates: the cache must be invisible in the modeled stats.
  std::vector<SparseTensor> scans;
  for (int i = 0; i < 6; ++i)
    scans.push_back(random_tensor(200 + 10 * i, 13, 4,
                                  100 + static_cast<uint64_t>(i)));
  const serve::StreamReport off = serve_session(3, 0, scans);
  const serve::StreamReport on = serve_session(3, 64 << 20, scans);
  expect_same_timeline(off.stats.aggregate, on.stats.aggregate);
  EXPECT_EQ(on.stats.map_cache.hits, 0u);
}

TEST(KernelMapCacheServe, RepeatedServeRunsAreDeterministic) {
  // Same stream, fresh runner, several repeats: every modeled statistic
  // must be bit-equal run to run even with a warm shared cache and many
  // workers racing.
  std::vector<SparseTensor> scans;
  const SparseTensor dup = random_tensor(220, 13, 4, 10);
  for (int i = 0; i < 10; ++i)
    scans.push_back(i % 2 ? dup
                          : random_tensor(200, 13, 4,
                                          200 + static_cast<uint64_t>(i)));
  const serve::StreamReport first = serve_session(8, 32 << 20, scans);
  for (int rep = 0; rep < 2; ++rep) {
    const serve::StreamReport again = serve_session(8, 32 << 20, scans);
    expect_same_timeline(first.stats.aggregate, again.stats.aggregate);
    EXPECT_DOUBLE_EQ(first.stats.e2e_p99_seconds,
                     again.stats.e2e_p99_seconds);
    EXPECT_EQ(first.stats.map_cache.hits, again.stats.map_cache.hits);
    EXPECT_EQ(first.stats.map_cache.evictions,
              again.stats.map_cache.evictions);
  }
}

TEST(KernelMapCacheServe, BorrowInputMatchesCopyPath) {
  std::vector<SparseTensor> scans;
  for (int i = 0; i < 6; ++i)
    scans.push_back(random_tensor(180, 12, 4,
                                  300 + static_cast<uint64_t>(i)));
  const serve::StreamReport copy =
      serve_session(2, 16 << 20, scans, /*borrow=*/false);
  const serve::StreamReport borrow =
      serve_session(2, 16 << 20, scans, /*borrow=*/true);
  expect_same_timeline(copy.stats.aggregate, borrow.stats.aggregate);
  ASSERT_EQ(copy.requests.size(), borrow.requests.size());
  for (std::size_t i = 0; i < copy.requests.size(); ++i)
    EXPECT_DOUBLE_EQ(copy.requests[i].service_seconds,
                     borrow.requests[i].service_seconds);
}

TEST(KernelMapCacheServe, BorrowedRunInContextMatchesCopy) {
  const SparseTensor input = random_tensor(200, 13, 4, 12);
  const ModelFn model = small_unet(31);
  ExecContext a = make_run_context(rtx2080ti(), torchsparse_config(), {});
  ExecContext b = make_run_context(rtx2080ti(), torchsparse_config(), {});
  const Timeline copied = run_in_context(model, input, a);
  SparseTensor own(input.coords(), input.feats());
  const Timeline borrowed = run_in_context(model, std::move(own), b);
  expect_same_timeline(copied, borrowed);
}

TEST(MapCacheKey, NamespaceSaltIdentityAndDistinctness) {
  const MapCacheKey k{0x0123456789abcdefull, 0xfedcba9876543210ull};
  // Namespace 0 is the exact identity: the legacy digest space, so
  // existing .tsmc snapshots and baselines keep resolving byte-for-byte.
  EXPECT_EQ(salt_cache_key(k, 0), k);
  // Nonzero namespaces remap deterministically and pairwise-distinctly.
  const MapCacheKey a = salt_cache_key(k, 1);
  const MapCacheKey b = salt_cache_key(k, 2);
  EXPECT_EQ(a, salt_cache_key(k, 1));
  EXPECT_NE(a, k);
  EXPECT_NE(b, k);
  EXPECT_NE(a, b);
  // Distinct base keys stay distinct inside one namespace (the salt is
  // a bijective mix, not a projection).
  const MapCacheKey k2{k.lo + 1, k.hi};
  EXPECT_NE(salt_cache_key(k2, 1), a);
}

TEST(KernelMapCache, NamespacesIsolateModelsSharingOneCache) {
  // Cross-model isolation regression: two tenants with byte-identical
  // inputs share one wall-clock cache. Distinct namespaces must make
  // the second tenant's first run fully cold (no hits borrowed from
  // tenant 0), while a repeat inside one namespace stays warm.
  const SparseTensor input = random_tensor(250, 13, 4, 5);
  const ModelFn model = small_unet(11);
  RunOptions opt;
  opt.map_cache = std::make_shared<KernelMapCache>(std::size_t(64) << 20);
  auto run_ns = [&](uint64_t ns) {
    RunOptions o = opt;
    o.cache_namespace = ns;
    ExecContext ctx =
        make_run_context(rtx2080ti(), torchsparse_config(), o);
    return run_in_context(model, input, ctx);
  };
  const Timeline cold0 = run_ns(0);
  const std::size_t hits_after_tenant0 = opt.map_cache->stats().hits;
  const Timeline cold1 = run_ns(1);
  // Not one hit crossed the namespace boundary, and the isolated cold
  // run charges exactly what tenant 0's cold run charged.
  EXPECT_EQ(opt.map_cache->stats().hits, hits_after_tenant0);
  expect_same_timeline(cold0, cold1);
  const Timeline warm1 = run_ns(1);
  EXPECT_GT(opt.map_cache->stats().hits, hits_after_tenant0);
  EXPECT_LT(warm1.stage_seconds(Stage::kMapping),
            cold1.stage_seconds(Stage::kMapping));
}

}  // namespace
}  // namespace ts
