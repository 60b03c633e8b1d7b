// Golden pin for the serving report.
//
// Hashes a whole StreamReport with FNV-1a: every StreamResult field,
// every StreamBatchRecord, and every StreamStats field, including
// per_class, per_model, per_device, map_cache and aggregate. Two runs
// are pinned, each at 1 and at 4 workers per device (the lane count
// shapes the laned schedule, so each count has its own constant):
//
//  * a Server session over a two-model registry, all three priority
//    classes and two devices under cache-affinity routing, with a
//    kernel-map cache, a crash plus a stall in the FaultPlan and a
//    finite low-class degrade deadline, so failed requests, retries,
//    the retry-wait p99 and deadline sheds are all non-zero;
//  * a faulted schedule_stream_dispatch plan over synthetic requests.
//
// Every pinned number is modeled, so the digests are deterministic
// across runs, thread interleavings and build types. A refactor of the
// placer or of the stats fold must not move them: a failure here means
// the modeled schedule or its statistics changed, not that a constant
// needs refreshing. The last two tests check that the per-class,
// per-model and per-device breakdowns sum to the totals, for the faulted
// session and for a session in which every request fails.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <unordered_set>
#include <vector>

#include "engines/presets.hpp"
#include "engines/runner.hpp"
#include "gpusim/device.hpp"
#include "nn/layers.hpp"
#include "serve/serve_stats.hpp"
#include "serve/server.hpp"

namespace ts {
namespace {

/// 64-bit FNV-1a over the bytes of every field fed to it.
class Fnv1a {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 0x100000001b3ull;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void i64(std::int64_t v) { bytes(&v, sizeof v); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

void hash_timeline(Fnv1a& h, const Timeline& t) {
  for (std::size_t s = 0; s < kNumStages; ++s)
    h.f64(t.stage_seconds(static_cast<Stage>(s)));
  h.f64(t.dram_bytes());
  h.u64(t.kernel_launches());
  h.f64(t.flops());
}

void hash_cache(Fnv1a& h, const MapCacheReplayStats& c) {
  h.u64(c.lookups);
  h.u64(c.hits);
  h.u64(c.misses);
  h.u64(c.evictions);
  h.f64(c.modeled_seconds_saved);
}

/// The counters and six percentiles StreamStats, PriorityClassStats and
/// ModelStats share by name.
template <class Scope>
void hash_scope(Fnv1a& h, const Scope& s) {
  h.u64(s.completed);
  h.u64(s.failed);
  h.u64(s.retries);
  h.f64(s.queue_wait_p50_seconds);
  h.f64(s.queue_wait_p90_seconds);
  h.f64(s.queue_wait_p99_seconds);
  h.f64(s.e2e_p50_seconds);
  h.f64(s.e2e_p90_seconds);
  h.f64(s.e2e_p99_seconds);
}

void hash_stats(Fnv1a& h, const serve::StreamStats& s) {
  hash_scope(h, s);
  h.u64(s.rejected);
  h.u64(s.redispatched_batches);
  h.u64(s.faults_injected);
  h.f64(s.retry_wait_p99_seconds);
  h.u64(s.batches);
  h.f64(s.mean_batch_size);
  h.i64(s.workers);
  h.f64(s.makespan_seconds);
  h.f64(s.throughput_fps);
  h.f64(s.mean_service_seconds);
  hash_timeline(h, s.aggregate);
  h.u64(s.per_class.size());
  for (const serve::PriorityClassStats& c : s.per_class) {
    h.i64(static_cast<int>(c.priority));
    hash_scope(h, c);
  }
  h.u64(s.per_model.size());
  for (const serve::ModelStats& m : s.per_model) {
    h.i64(m.model);
    hash_scope(h, m);
    h.u64(m.rejected);
    h.u64(m.cache_hits);
    h.u64(m.cache_lookups);
  }
  hash_cache(h, s.map_cache);
  h.i64(s.devices);
  h.u64(s.per_device.size());
  for (const serve::DeviceShardStats& d : s.per_device) {
    h.i64(d.device);
    h.str(d.name);
    h.u64(d.batches);
    h.u64(d.requests);
    h.f64(d.busy_seconds);
    h.f64(d.free_seconds);
    h.f64(d.utilization);
    hash_cache(h, d.map_cache);
  }
}

std::uint64_t report_digest(
    const std::vector<serve::StreamResult>& requests,
    const std::vector<serve::StreamBatchRecord>& batches,
    const serve::StreamStats& stats) {
  Fnv1a h;
  h.u64(requests.size());
  for (const serve::StreamResult& r : requests) {
    h.u64(r.id);
    hash_timeline(h, r.timeline);
    h.f64(r.arrival_seconds);
    h.i64(static_cast<int>(r.priority));
    h.i64(r.model);
    h.f64(r.service_seconds);
    h.f64(r.start_seconds);
    h.f64(r.finish_seconds);
    h.f64(r.queue_wait_seconds);
    h.f64(r.e2e_seconds);
    h.u64(r.batch_id);
    h.u64(r.batch_size);
    h.i64(r.device);
    h.i64(r.attempts);
    h.f64(r.retry_wait_seconds);
    h.i64(static_cast<int>(r.error));
    h.str(r.error_detail);
  }
  h.u64(batches.size());
  for (const serve::StreamBatchRecord& b : batches) {
    h.u64(b.batch_id);
    h.u64(b.first);
    h.u64(b.size);
    h.f64(b.dispatch_seconds);
    h.f64(b.start_seconds);
    h.f64(b.finish_seconds);
    h.i64(b.lane);
    h.i64(b.device);
    h.i64(b.model);
    h.i64(b.attempts);
  }
  hash_stats(h, stats);
  return h.value();
}

SparseTensor random_tensor(int n, int extent, std::size_t channels,
                           std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int32_t> d(0, extent);
  std::uniform_real_distribution<float> f(-1.0f, 1.0f);
  std::vector<Coord> coords;
  std::unordered_set<std::uint64_t> seen;
  while (static_cast<int>(coords.size()) < n) {
    const Coord c{0, d(rng), d(rng), d(rng)};
    if (seen.insert(pack_coord(c)).second) coords.push_back(c);
  }
  Matrix feats(coords.size(), channels);
  for (std::size_t i = 0; i < feats.size(); ++i) feats.data()[i] = f(rng);
  return SparseTensor(std::move(coords), std::move(feats));
}

ModelFn small_unet(std::uint64_t seed) {
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

/// The faulted two-model session: 24 requests 50 us apart, each input
/// sent twice to the same model (so the map cache hits), input pairs
/// alternating between the two models, classes cycling through all
/// three. Device 0 stalls while batch #2 is in flight, device 1 crashes
/// at batch #5 and comes back as a replacement, and low-class requests
/// are shed once their projected start is 2 ms late.
serve::StreamReport faulted_session(int workers) {
  serve::ServerConfig cfg;
  cfg.with_device(rtx2080ti())
      .with_engine(torchsparse_config())
      .with_workers(workers)
      .with_devices(2)
      .with_route(serve::RoutePolicy::kCacheAffinity)
      .with_map_cache_bytes(std::size_t(64) << 20)
      .with_queue_depth(64)
      .with_batch_overhead(0.0003)
      .with_batcher({serve::BatchPolicy::kSloAware, 3, 0.0005})
      .with_model("seg", small_unet(2001))
      .with_model("det", small_unet(2002));
  serve::DeviceFault stall{0, serve::FaultKind::kStall};
  stall.at_dispatch = 2;
  stall.duration_seconds = 0.004;
  serve::DeviceFault crash{1, serve::FaultKind::kCrash};
  crash.at_dispatch = 5;
  crash.duration_seconds = 0.003;
  cfg.with_fault_plan(serve::FaultPlan{{stall, crash}});
  serve::FaultToleranceOptions tol;
  tol.degrade_deadline_seconds[static_cast<int>(serve::Priority::kLow)] =
      0.002;
  cfg.with_fault_tolerance(tol);

  serve::Server server(cfg);
  server.start();
  for (int i = 0; i < 24; ++i) {
    const SparseTensor x =
        random_tensor(120 + 10 * (i / 2), 12, 4,
                      2100 + static_cast<std::uint64_t>(i / 2));
    server.submit_to((i / 2) % 2, x, 0.00005 * i,
                     static_cast<serve::Priority>(i % 3));
  }
  return server.drain();
}

/// The faulted one-shot plan: 12 synthetic requests over two models and
/// three classes in 6 two-member batches on two devices. Device 0
/// crashes (and is replaced) while batch #1 runs, device 1 stalls at
/// batch #3, and low-class requests are shed 3 ms late.
serve::StreamReport faulted_plan(int workers) {
  serve::StreamReport report;
  report.requests.resize(12);
  std::vector<serve::DispatchBatch> plan;
  for (std::size_t i = 0; i < report.requests.size(); ++i) {
    serve::StreamResult& r = report.requests[i];
    r.id = i;
    r.arrival_seconds = 0.0005 * static_cast<double>(i);
    r.priority = static_cast<serve::Priority>(i % 3);
    r.model = static_cast<int>((i / 2) % 2);
    r.timeline.add(Stage::kMapping, 0.0003 + 0.00001 * static_cast<double>(i));
    r.timeline.add(Stage::kMatMul, 0.0007);
    r.timeline.add_dram_bytes(1e6 + static_cast<double>(i));
    r.timeline.add_kernel_launches(4);
    r.service_seconds = r.timeline.total_seconds();
  }
  for (std::size_t b = 0; b < 6; ++b)
    plan.push_back({{2 * b, 2 * b + 1},
                    report.requests[2 * b + 1].arrival_seconds,
                    static_cast<int>(b % 2)});
  serve::FaultPlan faults;
  serve::DeviceFault crash{0, serve::FaultKind::kCrash};
  crash.at_dispatch = 1;
  crash.duration_seconds = 0.002;
  serve::DeviceFault stall{1, serve::FaultKind::kStall};
  stall.at_dispatch = 3;
  stall.duration_seconds = 0.001;
  faults.faults = {crash, stall};
  serve::FaultToleranceOptions tol;
  tol.degrade_deadline_seconds[static_cast<int>(serve::Priority::kLow)] =
      0.003;
  serve::DeviceGroup group(rtx2080ti(), 2, 0);
  const auto routing =
      serve::make_routing_policy(serve::RoutePolicy::kLeastLoaded);
  report.stats = serve::schedule_stream_dispatch(
      report.requests, plan, group, *routing, workers, 0.0001, nullptr,
      &report.batches, &faults, &tol);
  return report;
}

std::uint64_t digest(const serve::StreamReport& r) {
  return report_digest(r.requests, r.batches, r.stats);
}

void expect_device_caches_sum_to_total(const serve::StreamStats& s) {
  MapCacheReplayStats devices;
  for (const serve::DeviceShardStats& d : s.per_device) {
    devices.lookups += d.map_cache.lookups;
    devices.hits += d.map_cache.hits;
    devices.misses += d.map_cache.misses;
    devices.evictions += d.map_cache.evictions;
    devices.modeled_seconds_saved += d.map_cache.modeled_seconds_saved;
  }
  EXPECT_EQ(devices.lookups, s.map_cache.lookups);
  EXPECT_EQ(devices.hits, s.map_cache.hits);
  EXPECT_EQ(devices.misses, s.map_cache.misses);
  EXPECT_EQ(devices.evictions, s.map_cache.evictions);
  EXPECT_EQ(devices.modeled_seconds_saved, s.map_cache.modeled_seconds_saved);
}

TEST(ServeGolden, FaultedMultiModelSession) {
  const serve::StreamReport w1 = faulted_session(1);
  // The scenario really exercises every fault and degradation path.
  EXPECT_GT(w1.stats.failed, 0u);
  EXPECT_GT(w1.stats.retries, 0u);
  EXPECT_GT(w1.stats.retry_wait_p99_seconds, 0.0);
  EXPECT_GT(w1.stats.map_cache.hits, 0u);
  bool shed = false;
  for (const serve::StreamResult& r : w1.requests)
    shed |= r.error == serve::ServeErrorCode::kDeadlineHopeless;
  EXPECT_TRUE(shed);
  EXPECT_EQ(digest(w1), 13280187010535325653ull);
  EXPECT_EQ(digest(faulted_session(4)), 2637767839322248666ull);
}

TEST(ServeGolden, FaultedDispatchPlan) {
  const serve::StreamReport w1 = faulted_plan(1);
  EXPECT_GT(w1.stats.failed, 0u);
  EXPECT_GT(w1.stats.retries, 0u);
  EXPECT_EQ(digest(w1), 3978948810612336228ull);
  EXPECT_EQ(digest(faulted_plan(4)), 2788165269683174414ull);
}

TEST(ServeGolden, BreakdownsSumToTotals) {
  const serve::StreamStats s = faulted_session(2).stats;
  std::size_t completed = 0, failed = 0, retries = 0;
  for (const serve::PriorityClassStats& c : s.per_class) {
    completed += c.completed;
    failed += c.failed;
    retries += c.retries;
  }
  EXPECT_EQ(completed, s.completed);
  EXPECT_EQ(failed, s.failed);
  EXPECT_EQ(retries, s.retries);

  completed = failed = retries = 0;
  std::size_t hits = 0, lookups = 0;
  for (const serve::ModelStats& m : s.per_model) {
    completed += m.completed;
    failed += m.failed;
    retries += m.retries;
    hits += m.cache_hits;
    lookups += m.cache_lookups;
  }
  EXPECT_EQ(completed, s.completed);
  EXPECT_EQ(failed, s.failed);
  EXPECT_EQ(retries, s.retries);
  EXPECT_EQ(hits, s.map_cache.hits);
  EXPECT_EQ(lookups, s.map_cache.lookups);

  expect_device_caches_sum_to_total(s);
  EXPECT_GT(s.failed, 0u);
  EXPECT_GT(s.retries, 0u);
}

TEST(ServeGolden, AllFailedSessionStillReportsDeviceTotals) {
  // One shard, retired the moment batch #1 dispatches, one attempt per
  // batch: batch #0 replays its cache lookups and is then lost, and
  // every later batch finds no healthy device. Nothing completes, yet
  // the group-wide cache summary and the lane clock still report the
  // work the shard did.
  serve::ServerConfig cfg;
  cfg.with_device(rtx2080ti())
      .with_engine(torchsparse_config())
      .with_map_cache_bytes(std::size_t(64) << 20)
      .with_queue_depth(8)
      .with_batcher({serve::BatchPolicy::kImmediate, 1, 0.0});
  serve::DeviceFault crash{0, serve::FaultKind::kCrash};
  crash.at_dispatch = 1;
  serve::FaultToleranceOptions tol;
  tol.max_attempts = 1;
  cfg.with_fault_plan(serve::FaultPlan{{crash}}).with_fault_tolerance(tol);
  serve::Server server(cfg);
  server.start(small_unet(2003));
  for (int i = 0; i < 3; ++i)
    server.submit(random_tensor(120, 12, 4, 2200), 1e-7 * i);
  const serve::StreamStats s = server.drain().stats;
  EXPECT_EQ(s.completed, 0u);
  EXPECT_EQ(s.failed, 3u);
  ASSERT_EQ(s.per_device.size(), 1u);
  EXPECT_GT(s.per_device[0].map_cache.lookups, 0u);
  EXPECT_GT(s.per_device[0].free_seconds, 0.0);
  expect_device_caches_sum_to_total(s);
}

}  // namespace
}  // namespace ts
