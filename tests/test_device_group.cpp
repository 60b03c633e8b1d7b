// Multi-device sharded serving: DeviceGroup state, record-mode cache
// parity with MapCacheReplay, routing policies, single-device
// bit-equivalence with the pre-sharding serve path, and the
// determinism stress matrix (devices x workers).
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <random>
#include <stdexcept>
#include <unordered_set>
#include <utility>
#include <vector>

#include "engines/presets.hpp"
#include "engines/runner.hpp"
#include "gpusim/device.hpp"
#include "nn/layers.hpp"
#include "serve/batch_runner.hpp"
#include "serve/device_group.hpp"
#include "serve/request_queue.hpp"
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

MapCacheKey key_of(uint64_t tag) { return MapCacheKey{tag, ~tag}; }

MapCacheEvent event_of(uint64_t tag, std::size_t bytes, double cold,
                       double hit) {
  MapCacheEvent ev;
  ev.key = key_of(tag);
  ev.bytes = bytes;
  ev.cold_seconds = cold;
  ev.cold_dram_bytes = cold * 1e9;
  ev.cold_launches = 7;
  ev.hit_seconds = hit;
  ev.hit_dram_bytes = hit * 1e9;
  ev.hit_launches = 2;
  return ev;
}

// --- DeviceGroup state ------------------------------------------------

TEST(DeviceGroup, ConstructionStampsIdentityAndClampsSize) {
  serve::DeviceGroup g(rtx2080ti(), 3, 1 << 20);
  EXPECT_EQ(g.size(), 3);
  for (int d = 0; d < 3; ++d) {
    EXPECT_EQ(g.spec(d).device_index, d);
    EXPECT_EQ(g.spec(d).name, rtx2080ti().name);
    EXPECT_EQ(g.cache(d).byte_budget(), std::size_t(1) << 20);
    EXPECT_EQ(g.stats(d).device, d);
  }
  serve::DeviceGroup clamped(rtx2080ti(), 0, 0);
  EXPECT_EQ(clamped.size(), 1);
  EXPECT_THROW(g.spec(3), std::out_of_range);
  EXPECT_THROW(g.spec(-1), std::out_of_range);
  // Absurd device counts fail loudly instead of overflowing pool
  // arithmetic or allocating billions of shards.
  EXPECT_THROW(
      serve::DeviceGroup(rtx2080ti(), serve::kMaxModeledDevices + 1, 0),
      std::invalid_argument);
  EXPECT_THROW(serve::DeviceGroup(rtx2080ti(),
                                  std::numeric_limits<int>::max(), 0),
               std::invalid_argument);
}

TEST(DeviceGroup, OwnerOfFindsLowestDeviceHoldingDigest) {
  serve::DeviceGroup g(rtx2080ti(), 3, 1 << 20);
  g.begin_schedule(1);
  EXPECT_EQ(g.owner_of(key_of(42)), -1);
  g.record_lookup(2, key_of(42), 100);
  EXPECT_EQ(g.owner_of(key_of(42)), 2);
  g.record_lookup(1, key_of(42), 100);
  EXPECT_EQ(g.owner_of(key_of(42)), 1);
  EXPECT_TRUE(g.cache(1).contains(key_of(42)));
  EXPECT_FALSE(g.cache(0).contains(key_of(42)));
  // begin_schedule starts the next pass from cold modeled caches.
  g.begin_schedule(1);
  EXPECT_EQ(g.owner_of(key_of(42)), -1);
}

TEST(DeviceGroup, OwnerIndexMatchesLinearScanUnderChurn) {
  // The digest->owner index must track every record-mode admission and
  // eviction exactly; pin it against the pre-index definition (lowest
  // device whose cache contains the key) over a churny random stream on
  // a tiny budget.
  const std::size_t budget = 250;  // two 100-byte entries per device
  serve::DeviceGroup g(rtx2080ti(), 3, budget);
  g.begin_schedule(1);
  std::mt19937_64 rng(77);
  std::uniform_int_distribution<int> pick_dev(0, 2);
  std::uniform_int_distribution<uint64_t> pick_tag(1, 12);
  for (int step = 0; step < 400; ++step) {
    // Occasional oversized lookups exercise the never-cached rule.
    const std::size_t bytes = step % 17 == 0 ? 9999 : 100;
    g.record_lookup(pick_dev(rng), key_of(pick_tag(rng)), bytes);
    for (uint64_t tag = 1; tag <= 12; ++tag) {
      int scan = -1;
      for (int d = 0; d < g.size(); ++d)
        if (g.cache(d).contains(key_of(tag))) {
          scan = d;
          break;
        }
      ASSERT_EQ(g.owner_of(key_of(tag)), scan)
          << "step " << step << " tag " << tag;
    }
  }
}

// --- Heterogeneous fleets ----------------------------------------------

TEST(DeviceGroup, FleetConstructorStampsPerShardSpecs) {
  serve::DeviceGroup g({gtx1080ti(), rtx3090(), rtx3090()}, 1 << 20);
  ASSERT_EQ(g.size(), 3);
  EXPECT_EQ(g.spec(0).name, gtx1080ti().name);
  EXPECT_EQ(g.spec(1).name, rtx3090().name);
  EXPECT_EQ(g.spec(2).name, rtx3090().name);
  for (int d = 0; d < 3; ++d) {
    EXPECT_EQ(g.spec(d).device_index, d);
    EXPECT_EQ(g.stats(d).device, d);
    EXPECT_EQ(g.stats(d).name, g.spec(d).name);
    EXPECT_EQ(g.cache(d).byte_budget(), std::size_t(1) << 20);
  }
  // begin_schedule keeps the per-shard identity (id and tier name).
  g.begin_schedule(2);
  EXPECT_EQ(g.stats(1).name, rtx3090().name);
  EXPECT_EQ(g.stats(1).device, 1);
}

TEST(DeviceGroup, FleetConstructionValidatesLoudly) {
  EXPECT_THROW(serve::DeviceGroup(std::vector<DeviceSpec>{}, 0),
               std::invalid_argument);
  EXPECT_THROW(
      serve::DeviceGroup(
          std::vector<DeviceSpec>(
              static_cast<std::size_t>(serve::kMaxModeledDevices) + 1,
              rtx2080ti()),
          0),
      std::invalid_argument);
  EXPECT_THROW(serve::expand_fleet({}), std::invalid_argument);
  EXPECT_THROW(serve::expand_fleet({{rtx3090(), 0}}), std::invalid_argument);
  EXPECT_THROW(serve::expand_fleet({{rtx3090(), 2}, {gtx1080ti(), -3}}),
               std::invalid_argument);
  EXPECT_THROW(
      serve::expand_fleet({{rtx2080ti(), serve::kMaxModeledDevices + 1}}),
      std::invalid_argument);
  EXPECT_THROW(serve::expand_fleet({{rtx2080ti(), serve::kMaxModeledDevices},
                                    {rtx3090(), 1}}),
               std::invalid_argument);
  const std::vector<DeviceSpec> mixed =
      serve::expand_fleet({{gtx1080ti(), 1}, {rtx3090(), 2}});
  ASSERT_EQ(mixed.size(), 3u);
  EXPECT_EQ(mixed[0].name, gtx1080ti().name);
  EXPECT_EQ(mixed[1].name, rtx3090().name);
  EXPECT_EQ(mixed[2].name, rtx3090().name);
}

TEST(DeviceGroup, HomogeneousCtorDelegatesToFleetCtor) {
  serve::DeviceGroup legacy(rtx2080ti(), 3, 1 << 16);
  serve::DeviceGroup fleet(std::vector<DeviceSpec>(3, rtx2080ti()), 1 << 16);
  ASSERT_EQ(legacy.size(), fleet.size());
  for (int d = 0; d < legacy.size(); ++d) {
    EXPECT_EQ(legacy.spec(d).name, fleet.spec(d).name);
    EXPECT_EQ(legacy.spec(d).device_index, fleet.spec(d).device_index);
    EXPECT_EQ(legacy.cache(d).byte_budget(), fleet.cache(d).byte_budget());
  }
}

TEST(DeviceSpecRegistry, ResolvesForgivingNamesAndThrowsOnUnknown) {
  EXPECT_EQ(device_spec_by_name("1080ti").name, gtx1080ti().name);
  EXPECT_EQ(device_spec_by_name("GTX 1080Ti").name, gtx1080ti().name);
  EXPECT_EQ(device_spec_by_name("2080ti").name, rtx2080ti().name);
  EXPECT_EQ(device_spec_by_name("rtx-2080-ti").name, rtx2080ti().name);
  EXPECT_EQ(device_spec_by_name("3090").name, rtx3090().name);
  EXPECT_EQ(device_spec_by_name("RTX_3090").name, rtx3090().name);
  EXPECT_FALSE(device_spec_by_name("1080ti").has_fp16_tensor_cores);
  EXPECT_THROW(device_spec_by_name("a100"), std::invalid_argument);
  EXPECT_THROW(device_spec_by_name(""), std::invalid_argument);
}

TEST(DeviceGroup, PlaceBatchUsesEarliestLaneAndTracksBusy) {
  serve::DeviceGroup g(rtx2080ti(), 1, 0);
  g.begin_schedule(2);
  double start = 0, finish = 0;
  // Lane 0: batch of 2.0s at dispatch 1.0 with 0.5 overhead.
  EXPECT_EQ(g.place_batch(0, 1.0, 0.5, {2.0}, &start, &finish), 0);
  EXPECT_DOUBLE_EQ(start, 1.0);
  EXPECT_DOUBLE_EQ(finish, 3.5);
  // Lane 1 is free earlier than lane 0.
  EXPECT_EQ(g.place_batch(0, 1.0, 0.5, {1.0}, &start, &finish), 1);
  EXPECT_DOUBLE_EQ(start, 1.0);
  EXPECT_DOUBLE_EQ(finish, 2.5);
  EXPECT_DOUBLE_EQ(g.stats(0).busy_seconds, 4.0);  // 2.5 + 1.5
  EXPECT_EQ(g.stats(0).batches, 2u);
  EXPECT_EQ(g.stats(0).requests, 2u);
  EXPECT_DOUBLE_EQ(g.lane_high_water(0), 3.5);
}

TEST(DeviceGroup, HeapSchedulerReproducesLaneVectorSchedule) {
  // Pin the discrete-event core against the pre-refactor per-device
  // lane-vector scan (std::min_element: earliest lane, ties -> lowest
  // index) over a long randomized batch sequence.
  const int devices = 3, workers = 4;
  serve::DeviceGroup g(rtx2080ti(), devices, 0);
  g.begin_schedule(workers);
  std::vector<std::vector<double>> ref_lanes(
      devices, std::vector<double>(workers, 0.0));
  std::vector<double> ref_busy(devices, 0.0);
  std::mt19937_64 rng(123);
  std::uniform_int_distribution<int> pick_dev(0, devices - 1);
  std::uniform_real_distribution<double> dt(0.0, 0.02);
  std::uniform_int_distribution<int> nsvc(1, 3);
  double dispatch = 0.0;
  for (int step = 0; step < 500; ++step) {
    dispatch += dt(rng);
    const int dev = pick_dev(rng);
    const double overhead = step % 3 == 0 ? 0.001 : 0.0;
    std::vector<double> services;
    for (int k = nsvc(rng); k > 0; --k) services.push_back(dt(rng));

    std::vector<double>& lanes = ref_lanes[static_cast<std::size_t>(dev)];
    const auto it = std::min_element(lanes.begin(), lanes.end());
    const int ref_lane = static_cast<int>(it - lanes.begin());
    const double ref_start = std::max(dispatch, *it);
    double ref_finish = ref_start + overhead;
    for (const double s : services) ref_finish += s;
    *it = ref_finish;
    ref_busy[static_cast<std::size_t>(dev)] += ref_finish - ref_start;

    double start = 0, finish = 0;
    const int lane =
        g.place_batch(dev, dispatch, overhead, services, &start, &finish);
    ASSERT_EQ(lane, ref_lane) << "step " << step;
    ASSERT_DOUBLE_EQ(start, ref_start) << "step " << step;
    ASSERT_DOUBLE_EQ(finish, ref_finish) << "step " << step;
  }
  for (int d = 0; d < devices; ++d) {
    EXPECT_DOUBLE_EQ(g.stats(d).busy_seconds,
                     ref_busy[static_cast<std::size_t>(d)]);
    EXPECT_DOUBLE_EQ(
        g.lane_high_water(d),
        *std::max_element(ref_lanes[static_cast<std::size_t>(d)].begin(),
                          ref_lanes[static_cast<std::size_t>(d)].end()));
  }
}

TEST(DeviceGroup, LeastLoadedMatchesLinearScanUnderChurn) {
  // least_loaded() now reads an ordered load index; pin it against the
  // pre-index linear scan (min busy_seconds, ties -> lowest id).
  const int devices = 5;
  serve::DeviceGroup g(rtx2080ti(), devices, 0);
  g.begin_schedule(1);
  std::mt19937_64 rng(321);
  std::uniform_int_distribution<int> pick_dev(0, devices - 1);
  std::uniform_real_distribution<double> dt(0.001, 0.02);
  for (int step = 0; step < 300; ++step) {
    int scan = 0;
    for (int d = 1; d < devices; ++d)
      if (g.stats(d).busy_seconds < g.stats(scan).busy_seconds) scan = d;
    ASSERT_EQ(g.least_loaded(), scan) << "step " << step;
    g.place_batch(pick_dev(rng), 0.0, 0.0, {dt(rng)}, nullptr, nullptr);
  }
}

// --- Record-mode cache parity with MapCacheReplay ---------------------

TEST(DeviceGroup, RecordLookupMatchesMapCacheReplayDecisions) {
  // A stream that exercises hit, miss, LRU eviction, re-insertion after
  // eviction, and the oversized rule.
  const std::size_t budget = 250;  // holds 2 entries of 100 bytes
  std::vector<MapCacheEvent> stream = {
      event_of(1, 100, 0.010, 0.001),  // miss, insert      LRU [1]
      event_of(2, 100, 0.020, 0.002),  // miss, insert      LRU [2,1]
      event_of(1, 100, 0.010, 0.001),  // hit               LRU [1,2]
      event_of(3, 100, 0.030, 0.003),  // miss, evicts 2    LRU [3,1]
      event_of(2, 100, 0.020, 0.002),  // miss, evicts 1    LRU [2,3]
      event_of(4, 9999, 0.040, 0.004), // oversized miss, never cached
      event_of(1, 100, 0.010, 0.001),  // miss, evicts 3    LRU [1,2]
  };

  MapCacheReplay replay(budget);
  Timeline replay_t;
  replay.apply(stream, replay_t);

  KernelMapCache recorded(budget);
  Timeline record_t;
  MapCacheReplayStats st;
  for (const MapCacheEvent& ev : stream) {
    ++st.lookups;
    const auto out = recorded.record_lookup(ev.key, ev.bytes);
    st.evictions += out.evictions;
    if (out.hit) {
      ++st.hits;
      record_t.add(Stage::kMapping, ev.hit_seconds - ev.cold_seconds);
      record_t.add_dram_bytes(ev.hit_dram_bytes - ev.cold_dram_bytes);
      record_t.remove_kernel_launches(0);  // launches handled below
      st.modeled_seconds_saved += ev.cold_seconds - ev.hit_seconds;
    } else {
      ++st.misses;
    }
  }

  EXPECT_EQ(st.lookups, replay.stats().lookups);
  EXPECT_EQ(st.hits, replay.stats().hits);
  EXPECT_EQ(st.misses, replay.stats().misses);
  EXPECT_EQ(st.evictions, replay.stats().evictions);
  EXPECT_DOUBLE_EQ(st.modeled_seconds_saved,
                   replay.stats().modeled_seconds_saved);
  // Decisions in detail (trace above): one warm hit, three LRU
  // evictions, and the oversized entry never displaced anything.
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 6u);
  EXPECT_EQ(st.evictions, 3u);
  EXPECT_TRUE(recorded.contains(key_of(1)));
  EXPECT_TRUE(recorded.contains(key_of(2)));
  EXPECT_FALSE(recorded.contains(key_of(3)));
  EXPECT_FALSE(recorded.contains(key_of(4)));
  EXPECT_EQ(recorded.stats().oversized, 1u);
}

// --- Sharded scheduler: single-device bit-equivalence -----------------

/// Synthetic stream: 6 requests, batches of 2, per-request events with a
/// shared digest so the cache replay actually changes timelines.
struct SyntheticStream {
  std::vector<serve::StreamResult> requests;
  std::vector<serve::DispatchBatch> plan;
  std::vector<std::vector<MapCacheEvent>> events;
};

/// One-shot schedule of `plan` over `group` under a built-in routing
/// policy.
serve::StreamStats schedule_with(
    std::vector<serve::StreamResult>& requests,
    const std::vector<serve::DispatchBatch>& plan, serve::DeviceGroup& group,
    serve::RoutePolicy policy, int workers_per_device,
    double batch_overhead_seconds,
    const std::vector<std::vector<MapCacheEvent>>* events,
    std::vector<serve::StreamBatchRecord>* batches = nullptr) {
  const auto routing = serve::make_routing_policy(policy);
  return serve::schedule_stream_dispatch(requests, plan, group, *routing,
                                         workers_per_device,
                                         batch_overhead_seconds, events,
                                         batches);
}

SyntheticStream make_synthetic() {
  SyntheticStream s;
  s.requests.resize(6);
  for (std::size_t i = 0; i < 6; ++i) {
    serve::StreamResult& r = s.requests[i];
    r.id = i;
    r.arrival_seconds = 0.01 * static_cast<double>(i);
    r.timeline.add(Stage::kMapping, 0.004);
    r.timeline.add(Stage::kMatMul, 0.001 * static_cast<double>(i + 1));
    r.timeline.add_kernel_launches(20);
    r.service_seconds = r.timeline.total_seconds();
    // Requests 2i and 2i+1... share digests pairwise across batches:
    // {0,2,4} use key 7, {1,3,5} use key 9.
    s.events.push_back({event_of(7 + 2 * (i % 2), 200, 0.003, 0.0004)});
  }
  s.plan = {{{0, 1}, 0.01}, {{2, 3}, 0.03}, {{4, 5}, 0.05}};
  return s;
}

TEST(ScheduleStreamDispatch, OneDeviceBitEqualsReplayPlusCachelessSchedule) {
  for (const serve::RoutePolicy policy :
       {serve::RoutePolicy::kRoundRobin, serve::RoutePolicy::kLeastLoaded,
        serve::RoutePolicy::kCacheAffinity}) {
    SyntheticStream pre = make_synthetic();   // replay, then schedule
    SyntheticStream post = make_synthetic();  // cached schedule

    // Single-device accounting: MapCacheReplay in submission order, then
    // a cache-less schedule of the replayed timelines.
    const std::size_t budget = 1 << 16;
    MapCacheReplay replay(budget);
    for (std::size_t i = 0; i < pre.requests.size(); ++i) {
      replay.apply(pre.events[i], pre.requests[i].timeline);
      pre.requests[i].service_seconds =
          pre.requests[i].timeline.total_seconds();
    }
    serve::DeviceGroup plain(rtx2080ti(), 1, 0);
    std::vector<serve::StreamBatchRecord> pre_batches;
    const serve::StreamStats ref = schedule_with(
        pre.requests, pre.plan, plain, serve::RoutePolicy::kRoundRobin,
        /*workers_per_device=*/2, /*batch_overhead_seconds=*/0.002, nullptr,
        &pre_batches);

    serve::DeviceGroup group(rtx2080ti(), 1, budget);
    std::vector<serve::StreamBatchRecord> post_batches;
    const serve::StreamStats got = schedule_with(
        post.requests, post.plan, group, policy, /*workers_per_device=*/2,
        /*batch_overhead_seconds=*/0.002, &post.events, &post_batches);

    EXPECT_EQ(got.devices, 1);
    ASSERT_EQ(got.per_device.size(), 1u);
    for (std::size_t i = 0; i < pre.requests.size(); ++i) {
      expect_same_timeline(post.requests[i].timeline,
                           pre.requests[i].timeline);
      EXPECT_DOUBLE_EQ(post.requests[i].service_seconds,
                       pre.requests[i].service_seconds);
      EXPECT_DOUBLE_EQ(post.requests[i].start_seconds,
                       pre.requests[i].start_seconds);
      EXPECT_DOUBLE_EQ(post.requests[i].finish_seconds,
                       pre.requests[i].finish_seconds);
      EXPECT_DOUBLE_EQ(post.requests[i].queue_wait_seconds,
                       pre.requests[i].queue_wait_seconds);
      EXPECT_DOUBLE_EQ(post.requests[i].e2e_seconds,
                       pre.requests[i].e2e_seconds);
      EXPECT_EQ(post.requests[i].batch_id, pre.requests[i].batch_id);
      EXPECT_EQ(post.requests[i].device, 0);
    }
    ASSERT_EQ(post_batches.size(), pre_batches.size());
    for (std::size_t k = 0; k < pre_batches.size(); ++k) {
      EXPECT_DOUBLE_EQ(post_batches[k].start_seconds,
                       pre_batches[k].start_seconds);
      EXPECT_DOUBLE_EQ(post_batches[k].finish_seconds,
                       pre_batches[k].finish_seconds);
      EXPECT_EQ(post_batches[k].lane, pre_batches[k].lane);
      EXPECT_EQ(post_batches[k].device, 0);
    }
    EXPECT_DOUBLE_EQ(got.makespan_seconds, ref.makespan_seconds);
    EXPECT_DOUBLE_EQ(got.throughput_fps, ref.throughput_fps);
    EXPECT_DOUBLE_EQ(got.queue_wait_p99_seconds, ref.queue_wait_p99_seconds);
    EXPECT_DOUBLE_EQ(got.e2e_p99_seconds, ref.e2e_p99_seconds);
    EXPECT_DOUBLE_EQ(got.mean_service_seconds, ref.mean_service_seconds);
    expect_same_timeline(got.aggregate, ref.aggregate);
    EXPECT_EQ(got.map_cache.lookups, replay.stats().lookups);
    EXPECT_EQ(got.map_cache.hits, replay.stats().hits);
    EXPECT_EQ(got.map_cache.misses, replay.stats().misses);
    EXPECT_EQ(got.map_cache.evictions, replay.stats().evictions);
    EXPECT_DOUBLE_EQ(got.map_cache.modeled_seconds_saved,
                     replay.stats().modeled_seconds_saved);
  }
}

// --- Routing policies --------------------------------------------------

SyntheticStream singleton_batches(const std::vector<double>& services,
                                  const std::vector<uint64_t>& tags) {
  SyntheticStream s;
  s.requests.resize(services.size());
  for (std::size_t i = 0; i < services.size(); ++i) {
    serve::StreamResult& r = s.requests[i];
    r.id = i;
    r.arrival_seconds = 0.0;
    r.timeline.add(Stage::kMatMul, services[i]);
    r.service_seconds = services[i];
    s.plan.push_back({{i}, 0.0});
    s.events.push_back({event_of(tags[i], 100, 0.0, 0.0)});
  }
  return s;
}

TEST(ScheduleStreamDispatch, RoundRobinCyclesDevices) {
  SyntheticStream s = singleton_batches({1, 1, 1, 1, 1}, {1, 2, 3, 4, 5});
  serve::DeviceGroup group(rtx2080ti(), 3, 1 << 16);
  schedule_with(s.requests, s.plan, group, serve::RoutePolicy::kRoundRobin,
                1, 0.0, &s.events);
  const int want[] = {0, 1, 2, 0, 1};
  for (std::size_t i = 0; i < 5; ++i)
    EXPECT_EQ(s.requests[i].device, want[i]) << "request " << i;
}

TEST(ScheduleStreamDispatch, LeastLoadedBalancesAccumulatedWork) {
  // Batch 0 is heavy: everything after it should drain to device 1
  // until its accumulated work catches up.
  SyntheticStream s = singleton_batches({10, 1, 1, 1}, {1, 2, 3, 4});
  serve::DeviceGroup group(rtx2080ti(), 2, 0);
  schedule_with(s.requests, s.plan, group, serve::RoutePolicy::kLeastLoaded,
                1, 0.0, nullptr);
  const int want[] = {0, 1, 1, 1};
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_EQ(s.requests[i].device, want[i]) << "request " << i;
  EXPECT_DOUBLE_EQ(group.stats(0).busy_seconds, 10.0);
  EXPECT_DOUBLE_EQ(group.stats(1).busy_seconds, 3.0);
}

TEST(ScheduleStreamDispatch, CacheAffinityRoutesToDigestOwner) {
  // Digests AABB: affinity must co-locate the duplicates; round-robin
  // must split them (and therefore never hit).
  SyntheticStream aff = singleton_batches({1, 1, 1, 1}, {7, 7, 9, 9});
  serve::DeviceGroup g_aff(rtx2080ti(), 2, 1 << 16);
  const serve::StreamStats s_aff = schedule_with(
      aff.requests, aff.plan, g_aff, serve::RoutePolicy::kCacheAffinity, 1,
      0.0, &aff.events);
  // Request 0: no owner -> least-loaded -> device 0. Request 1: owner of
  // digest 7 is device 0 -> hit there. Request 2: digest 9 cold ->
  // least-loaded -> device 1 (device 0 has 2 batches of work). Request
  // 3: owner of 9 -> device 1 -> hit.
  const int want[] = {0, 0, 1, 1};
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_EQ(aff.requests[i].device, want[i]) << "request " << i;
  EXPECT_EQ(s_aff.map_cache.hits, 2u);
  EXPECT_EQ(g_aff.stats(0).map_cache.hits, 1u);
  EXPECT_EQ(g_aff.stats(1).map_cache.hits, 1u);

  SyntheticStream rr = singleton_batches({1, 1, 1, 1}, {7, 7, 9, 9});
  serve::DeviceGroup g_rr(rtx2080ti(), 2, 1 << 16);
  const serve::StreamStats s_rr = schedule_with(
      rr.requests, rr.plan, g_rr, serve::RoutePolicy::kRoundRobin, 1, 0.0,
      &rr.events);
  EXPECT_EQ(s_rr.map_cache.hits, 0u);
  EXPECT_GT(s_aff.map_cache.hit_rate(), s_rr.map_cache.hit_rate());
}

/// Singleton-batch stream whose requests put all their modeled seconds
/// into one chosen stage each (so estimate_aware's stage split is
/// controllable per request).
SyntheticStream stage_stream(
    const std::vector<std::pair<Stage, double>>& reqs) {
  SyntheticStream s;
  s.requests.resize(reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    serve::StreamResult& r = s.requests[i];
    r.id = i;
    r.arrival_seconds = 0.0;
    r.timeline.add(reqs[i].first, reqs[i].second);
    r.service_seconds = r.timeline.total_seconds();
    s.plan.push_back({{i}, 0.0});
  }
  return s;
}

TEST(ScheduleStreamDispatch, EstimateAwareSplitsBatchesByStageMix) {
  // Mixed 1080Ti+3090 fleet, 1080Ti first (the measurement reference).
  // Relative factors: MatMul scales with peak GEMM (11.3/35.6 ~ 0.317 on
  // the 3090), everything else with DRAM bandwidth (484/936 ~ 0.517).
  // Two GEMM batches load the 3090 to busy ~0.635; at that point a
  // mapping-heavy batch prefers the idle 1080Ti (1.0 < 0.635 + 0.517)
  // while an equally sized GEMM batch still prefers the 3090
  // (0.635 + 0.317 < 1.0) — the tensor-core tier keeps the grouped-GEMM
  // work, the Pascal tier absorbs the map-heavy overflow.
  const std::vector<DeviceSpec> fleet = {gtx1080ti(), rtx3090()};

  SyntheticStream gemm_tail = stage_stream({{Stage::kMatMul, 1.0},
                                            {Stage::kMatMul, 1.0},
                                            {Stage::kMatMul, 1.0}});
  serve::DeviceGroup g1(fleet, 0);
  schedule_with(gemm_tail.requests, gemm_tail.plan, g1,
                serve::RoutePolicy::kEstimateAware, 1, 0.0, nullptr);
  const int want_gemm[] = {1, 1, 1};
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_EQ(gemm_tail.requests[i].device, want_gemm[i]) << "request " << i;

  SyntheticStream map_tail = stage_stream({{Stage::kMatMul, 1.0},
                                           {Stage::kMatMul, 1.0},
                                           {Stage::kMapping, 1.0}});
  serve::DeviceGroup g2(fleet, 0);
  schedule_with(map_tail.requests, map_tail.plan, g2,
                serve::RoutePolicy::kEstimateAware, 1, 0.0, nullptr);
  const int want_map[] = {1, 1, 0};
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_EQ(map_tail.requests[i].device, want_map[i]) << "request " << i;

  // The placed schedule runs on device-local seconds: the 3090's lanes
  // hold the scaled GEMM services, the 1080Ti the unscaled reference
  // service (it IS the reference).
  const double f_mm = 11.3 / 35.6;
  EXPECT_DOUBLE_EQ(g2.stats(1).busy_seconds, 2.0 * f_mm);
  EXPECT_DOUBLE_EQ(g2.stats(0).busy_seconds, 1.0);
}

TEST(ScheduleStreamDispatch, EstimateAwareDegeneratesToLeastLoadedHomogeneous) {
  // On a homogeneous group every estimate factor is exactly 1.0, so
  // estimate_aware must reproduce least_loaded bit-for-bit — routing
  // decisions, schedules, and stats.
  for (const int devices : {1, 3}) {
    SyntheticStream ll = make_synthetic();
    SyntheticStream ea = make_synthetic();
    serve::DeviceGroup g_ll(rtx2080ti(), devices, 1 << 16);
    serve::DeviceGroup g_ea(rtx2080ti(), devices, 1 << 16);
    const serve::StreamStats s_ll = schedule_with(
        ll.requests, ll.plan, g_ll, serve::RoutePolicy::kLeastLoaded, 2,
        0.002, &ll.events);
    const serve::StreamStats s_ea = schedule_with(
        ea.requests, ea.plan, g_ea, serve::RoutePolicy::kEstimateAware, 2,
        0.002, &ea.events);
    for (std::size_t i = 0; i < ll.requests.size(); ++i) {
      EXPECT_EQ(ea.requests[i].device, ll.requests[i].device);
      EXPECT_DOUBLE_EQ(ea.requests[i].start_seconds,
                       ll.requests[i].start_seconds);
      EXPECT_DOUBLE_EQ(ea.requests[i].finish_seconds,
                       ll.requests[i].finish_seconds);
      expect_same_timeline(ea.requests[i].timeline, ll.requests[i].timeline);
    }
    EXPECT_DOUBLE_EQ(s_ea.makespan_seconds, s_ll.makespan_seconds);
    EXPECT_EQ(s_ea.map_cache.hits, s_ll.map_cache.hits);
  }
}

// --- End-to-end determinism stress matrix ------------------------------

serve::StreamReport serve_session(const ModelFn& model,
                                  const std::vector<SparseTensor>& stream,
                                  int devices, int workers,
                                  serve::RoutePolicy policy,
                                  std::size_t cache_bytes) {
  serve::ServerConfig cfg;
  cfg.with_device(rtx2080ti())
      .with_engine(torchsparse_config())
      .with_workers(workers)
      .with_map_cache_bytes(cache_bytes)
      .with_queue_depth(stream.size() + 1)
      .with_batch_overhead(0.0005)
      .with_devices(devices)
      .with_route(policy);
  cfg.batcher.policy = serve::BatchPolicy::kImmediate;
  serve::Server server(cfg);
  server.start(model);
  for (std::size_t i = 0; i < stream.size(); ++i)
    server.submit(stream[i], 0.002 * static_cast<double>(i));
  return server.drain();
}

void expect_same_report(const serve::StreamReport& a,
                        const serve::StreamReport& b) {
  ASSERT_EQ(a.requests.size(), b.requests.size());
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    expect_same_timeline(a.requests[i].timeline, b.requests[i].timeline);
    EXPECT_DOUBLE_EQ(a.requests[i].service_seconds,
                     b.requests[i].service_seconds);
    EXPECT_DOUBLE_EQ(a.requests[i].start_seconds,
                     b.requests[i].start_seconds);
    EXPECT_DOUBLE_EQ(a.requests[i].finish_seconds,
                     b.requests[i].finish_seconds);
    EXPECT_EQ(a.requests[i].batch_id, b.requests[i].batch_id);
    EXPECT_EQ(a.requests[i].device, b.requests[i].device);
  }
  EXPECT_DOUBLE_EQ(a.stats.makespan_seconds, b.stats.makespan_seconds);
  EXPECT_DOUBLE_EQ(a.stats.throughput_fps, b.stats.throughput_fps);
  EXPECT_DOUBLE_EQ(a.stats.e2e_p99_seconds, b.stats.e2e_p99_seconds);
  expect_same_timeline(a.stats.aggregate, b.stats.aggregate);
  EXPECT_EQ(a.stats.map_cache.lookups, b.stats.map_cache.lookups);
  EXPECT_EQ(a.stats.map_cache.hits, b.stats.map_cache.hits);
  EXPECT_EQ(a.stats.map_cache.evictions, b.stats.map_cache.evictions);
  EXPECT_DOUBLE_EQ(a.stats.map_cache.modeled_seconds_saved,
                   b.stats.map_cache.modeled_seconds_saved);
  ASSERT_EQ(a.stats.per_device.size(), b.stats.per_device.size());
  for (std::size_t d = 0; d < a.stats.per_device.size(); ++d) {
    EXPECT_EQ(a.stats.per_device[d].batches, b.stats.per_device[d].batches);
    EXPECT_EQ(a.stats.per_device[d].requests,
              b.stats.per_device[d].requests);
    EXPECT_DOUBLE_EQ(a.stats.per_device[d].busy_seconds,
                     b.stats.per_device[d].busy_seconds);
    EXPECT_DOUBLE_EQ(a.stats.per_device[d].free_seconds,
                     b.stats.per_device[d].free_seconds);
    EXPECT_EQ(a.stats.per_device[d].map_cache.hits,
              b.stats.per_device[d].map_cache.hits);
    EXPECT_EQ(a.stats.per_device[d].map_cache.misses,
              b.stats.per_device[d].map_cache.misses);
  }
}

TEST(ShardedServe, ModeledStatsIndependentOfWorkerCountPerDeviceCount) {
  const ModelFn model = small_unet(31);
  // 12 requests, 50% duplicates, adjacent (u0 u0 u1 u1 ...): the layout
  // where affinity matters most.
  std::vector<SparseTensor> stream;
  for (int i = 0; i < 12; ++i)
    stream.push_back(random_tensor(140 + 10 * (i / 2), 12, 4,
                                   2000 + static_cast<uint64_t>(i / 2)));

  for (const int devices : {1, 2, 4}) {
    const serve::StreamReport base =
        serve_session(model, stream, devices, /*workers=*/1,
                      serve::RoutePolicy::kCacheAffinity,
                      std::size_t(64) << 20);
    EXPECT_EQ(base.stats.devices, devices);
    ASSERT_EQ(base.stats.per_device.size(),
              static_cast<std::size_t>(devices));
    for (const int workers : {2, 4}) {
      const serve::StreamReport got =
          serve_session(model, stream, devices, workers,
                        serve::RoutePolicy::kCacheAffinity,
                        std::size_t(64) << 20);
      // Modeled serve stats and outputs are bit-identical for any
      // worker count at this device count; only the placement clocks
      // may change (same lanes-per-device math, more lanes).
      ASSERT_EQ(got.requests.size(), base.requests.size());
      for (std::size_t i = 0; i < got.requests.size(); ++i) {
        expect_same_timeline(got.requests[i].timeline,
                             base.requests[i].timeline);
        EXPECT_DOUBLE_EQ(got.requests[i].service_seconds,
                         base.requests[i].service_seconds);
        EXPECT_EQ(got.requests[i].device, base.requests[i].device);
      }
      expect_same_timeline(got.stats.aggregate, base.stats.aggregate);
      EXPECT_EQ(got.stats.map_cache.hits, base.stats.map_cache.hits);
      EXPECT_EQ(got.stats.map_cache.misses, base.stats.map_cache.misses);
      EXPECT_DOUBLE_EQ(got.stats.map_cache.modeled_seconds_saved,
                       base.stats.map_cache.modeled_seconds_saved);
      for (int d = 0; d < devices; ++d) {
        EXPECT_EQ(got.stats.per_device[d].map_cache.hits,
                  base.stats.per_device[d].map_cache.hits);
        EXPECT_EQ(got.stats.per_device[d].batches,
                  base.stats.per_device[d].batches);
        EXPECT_DOUBLE_EQ(got.stats.per_device[d].busy_seconds,
                         base.stats.per_device[d].busy_seconds);
      }
    }
    // Re-running the identical configuration reproduces the whole
    // report bit-for-bit.
    const serve::StreamReport again =
        serve_session(model, stream, devices, /*workers=*/1,
                      serve::RoutePolicy::kCacheAffinity,
                      std::size_t(64) << 20);
    expect_same_report(base, again);
  }
}

TEST(ShardedServe, SingleDeviceMatchesUnshardedServeUnderEveryPolicy) {
  const ModelFn model = small_unet(32);
  std::vector<SparseTensor> stream;
  for (int i = 0; i < 8; ++i)
    stream.push_back(random_tensor(130, 12, 4,
                                   3000 + static_cast<uint64_t>(i % 4)));

  // Default options = pre-sharding single-device serve.
  const serve::StreamReport ref =
      serve_session(model, stream, 1, 2, serve::ShardOptions{}.route,
                    std::size_t(64) << 20);
  for (const serve::RoutePolicy policy :
       {serve::RoutePolicy::kRoundRobin, serve::RoutePolicy::kLeastLoaded,
        serve::RoutePolicy::kCacheAffinity}) {
    const serve::StreamReport got =
        serve_session(model, stream, 1, 2, policy, std::size_t(64) << 20);
    expect_same_report(ref, got);
  }
}

TEST(ShardedServe, AggregateComputeInvariantToDeviceCountWithCacheOff) {
  const ModelFn model = small_unet(33);
  std::vector<SparseTensor> stream;
  for (int i = 0; i < 6; ++i)
    stream.push_back(random_tensor(120, 12, 4,
                                   4000 + static_cast<uint64_t>(i)));
  const serve::StreamReport n1 = serve_session(
      model, stream, 1, 2, serve::RoutePolicy::kLeastLoaded, 0);
  for (const int devices : {2, 4}) {
    const serve::StreamReport nd = serve_session(
        model, stream, devices, 2, serve::RoutePolicy::kLeastLoaded, 0);
    // Sharding is a scheduling construct: per-request compute is
    // untouched, so the aggregate timeline is device-count invariant.
    expect_same_timeline(nd.stats.aggregate, n1.stats.aggregate);
    EXPECT_EQ(nd.stats.map_cache.lookups, 0u);
  }
}

// --- Heterogeneous fleets, end to end ----------------------------------

serve::StreamReport fleet_serve(const ModelFn& model,
                                const std::vector<SparseTensor>& stream,
                                const std::vector<serve::FleetTier>& tiers,
                                int workers, serve::RoutePolicy policy,
                                std::size_t cache_bytes) {
  serve::ServerConfig cfg;
  cfg.with_engine(torchsparse_config())
      .with_workers(workers)
      .with_fleet(tiers)
      .with_route(policy)
      .with_batch_overhead(0.0005)
      .with_map_cache_bytes(cache_bytes)
      .with_queue_depth(stream.size() + 1);
  cfg.batcher.policy = serve::BatchPolicy::kImmediate;
  serve::Server server(cfg);
  server.start(model);
  for (std::size_t i = 0; i < stream.size(); ++i)
    server.submit(stream[i], 0.002 * static_cast<double>(i));
  return server.drain();
}

TEST(FleetServe, WithFleetKeepsConfigConsistent) {
  serve::ServerConfig cfg;
  cfg.with_fleet({{device_spec_by_name("1080ti"), 1},
                  {device_spec_by_name("3090"), 2}});
  ASSERT_EQ(cfg.fleet.size(), 3u);
  EXPECT_EQ(cfg.device.name, gtx1080ti().name);  // measurement reference
  EXPECT_EQ(cfg.shard.devices, 3);
  EXPECT_EQ(cfg.fleet[2].name, rtx3090().name);
  EXPECT_THROW(cfg.with_fleet({}), std::invalid_argument);
  EXPECT_THROW(cfg.with_fleet({{rtx3090(), 0}}), std::invalid_argument);
  // A directly-populated fleet is bound-checked (and shard.devices
  // reconciled) at Server construction.
  serve::ServerConfig big;
  big.fleet.assign(static_cast<std::size_t>(serve::kMaxModeledDevices) + 1,
                   rtx3090());
  EXPECT_THROW(serve::Server{big}, std::invalid_argument);
  serve::ServerConfig small;
  small.fleet.assign(2, rtx3090());
  small.shard.devices = 7;  // stale; the fleet wins
  serve::Server server(std::move(small));
  EXPECT_EQ(server.config().shard.devices, 2);
}

TEST(FleetServe, HomogeneousFleetBitEqualsDevicesConfig) {
  // A single-tier with_fleet is the same deployment as with_device +
  // with_devices — and the whole fleet path (fleet ctor, event heap,
  // owner index) must reproduce the legacy serve bit-for-bit.
  const ModelFn model = small_unet(41);
  std::vector<SparseTensor> stream;
  for (int i = 0; i < 8; ++i)
    stream.push_back(random_tensor(130, 12, 4,
                                   5000 + static_cast<uint64_t>(i % 4)));
  const serve::StreamReport legacy =
      serve_session(model, stream, 2, 2, serve::RoutePolicy::kLeastLoaded,
                    std::size_t(64) << 20);
  const serve::StreamReport fleet =
      fleet_serve(model, stream, {{rtx2080ti(), 2}}, 2,
                  serve::RoutePolicy::kLeastLoaded, std::size_t(64) << 20);
  expect_same_report(legacy, fleet);

  // estimate_aware on the homogeneous fleet degenerates to least_loaded
  // end to end.
  const serve::StreamReport estimate =
      fleet_serve(model, stream, {{rtx2080ti(), 2}}, 2,
                  serve::RoutePolicy::kEstimateAware, std::size_t(64) << 20);
  expect_same_report(legacy, estimate);
}

TEST(FleetServe, ModeledStatsWorkerInvariantAcrossMixesAndPolicies) {
  // The determinism stress matrix on heterogeneous fleets: for every
  // fleet mix x routing policy, modeled stats are bit-identical across
  // worker counts.
  const ModelFn model = small_unet(42);
  std::vector<SparseTensor> stream;
  for (int i = 0; i < 8; ++i)
    stream.push_back(random_tensor(120 + 10 * (i % 3), 12, 4,
                                   6000 + static_cast<uint64_t>(i % 4)));
  const std::vector<std::vector<serve::FleetTier>> mixes = {
      {{rtx2080ti(), 2}},
      {{gtx1080ti(), 1}, {rtx3090(), 1}},
      {{gtx1080ti(), 1}, {rtx2080ti(), 1}, {rtx3090(), 1}},
  };
  for (const auto& mix : mixes) {
    for (const serve::RoutePolicy policy :
         {serve::RoutePolicy::kEstimateAware,
          serve::RoutePolicy::kCacheAffinity}) {
      const serve::StreamReport base = fleet_serve(
          model, stream, mix, 1, policy, std::size_t(64) << 20);
      const serve::StreamReport more = fleet_serve(
          model, stream, mix, 4, policy, std::size_t(64) << 20);
      ASSERT_EQ(more.requests.size(), base.requests.size());
      for (std::size_t i = 0; i < more.requests.size(); ++i) {
        expect_same_timeline(more.requests[i].timeline,
                             base.requests[i].timeline);
        EXPECT_EQ(more.requests[i].device, base.requests[i].device);
        EXPECT_DOUBLE_EQ(more.requests[i].service_seconds,
                         base.requests[i].service_seconds);
      }
      ASSERT_EQ(base.stats.per_device.size(), mix.size() == 1 ? 2u : mix.size());
      for (std::size_t d = 0; d < base.stats.per_device.size(); ++d) {
        EXPECT_EQ(more.stats.per_device[d].batches,
                  base.stats.per_device[d].batches);
        EXPECT_DOUBLE_EQ(more.stats.per_device[d].busy_seconds,
                         base.stats.per_device[d].busy_seconds);
        EXPECT_EQ(more.stats.per_device[d].map_cache.hits,
                  base.stats.per_device[d].map_cache.hits);
        EXPECT_EQ(more.stats.per_device[d].name,
                  base.stats.per_device[d].name);
      }
      expect_same_timeline(more.stats.aggregate, base.stats.aggregate);
      EXPECT_EQ(more.stats.map_cache.hits, base.stats.map_cache.hits);
    }
  }
}

}  // namespace
}  // namespace ts
