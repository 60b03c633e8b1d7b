// serve::Server session API: lifecycle, worker/device invariance,
// incremental StreamHandle fulfillment, pluggable routing (heterogeneous
// service-estimate hook), and warm-context hand-off across sessions.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_set>
#include <vector>

#include "engines/presets.hpp"
#include "engines/runner.hpp"
#include "gpusim/device.hpp"
#include "io/serialize.hpp"
#include "nn/layers.hpp"
#include "serve/batch_runner.hpp"
#include "serve/request_queue.hpp"
#include "serve/serve_policies.hpp"
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

void expect_same_report(const serve::StreamReport& a,
                        const serve::StreamReport& b) {
  ASSERT_EQ(a.requests.size(), b.requests.size());
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    expect_same_timeline(a.requests[i].timeline, b.requests[i].timeline);
    EXPECT_EQ(a.requests[i].id, b.requests[i].id);
    EXPECT_EQ(a.requests[i].priority, b.requests[i].priority);
    EXPECT_DOUBLE_EQ(a.requests[i].service_seconds,
                     b.requests[i].service_seconds);
    EXPECT_DOUBLE_EQ(a.requests[i].start_seconds,
                     b.requests[i].start_seconds);
    EXPECT_DOUBLE_EQ(a.requests[i].finish_seconds,
                     b.requests[i].finish_seconds);
    EXPECT_DOUBLE_EQ(a.requests[i].queue_wait_seconds,
                     b.requests[i].queue_wait_seconds);
    EXPECT_DOUBLE_EQ(a.requests[i].e2e_seconds, b.requests[i].e2e_seconds);
    EXPECT_EQ(a.requests[i].batch_id, b.requests[i].batch_id);
    EXPECT_EQ(a.requests[i].device, b.requests[i].device);
  }
  ASSERT_EQ(a.batches.size(), b.batches.size());
  for (std::size_t k = 0; k < a.batches.size(); ++k) {
    EXPECT_EQ(a.batches[k].first, b.batches[k].first);
    EXPECT_EQ(a.batches[k].size, b.batches[k].size);
    EXPECT_DOUBLE_EQ(a.batches[k].dispatch_seconds,
                     b.batches[k].dispatch_seconds);
    EXPECT_DOUBLE_EQ(a.batches[k].start_seconds, b.batches[k].start_seconds);
    EXPECT_DOUBLE_EQ(a.batches[k].finish_seconds,
                     b.batches[k].finish_seconds);
    EXPECT_EQ(a.batches[k].lane, b.batches[k].lane);
    EXPECT_EQ(a.batches[k].device, b.batches[k].device);
  }
  EXPECT_DOUBLE_EQ(a.stats.makespan_seconds, b.stats.makespan_seconds);
  EXPECT_DOUBLE_EQ(a.stats.throughput_fps, b.stats.throughput_fps);
  EXPECT_DOUBLE_EQ(a.stats.mean_batch_size, b.stats.mean_batch_size);
  EXPECT_DOUBLE_EQ(a.stats.queue_wait_p99_seconds,
                   b.stats.queue_wait_p99_seconds);
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
  }
  ASSERT_EQ(a.stats.per_class.size(), b.stats.per_class.size());
  for (std::size_t c = 0; c < a.stats.per_class.size(); ++c) {
    EXPECT_EQ(a.stats.per_class[c].completed,
              b.stats.per_class[c].completed);
    EXPECT_DOUBLE_EQ(a.stats.per_class[c].e2e_p99_seconds,
                     b.stats.per_class[c].e2e_p99_seconds);
    EXPECT_DOUBLE_EQ(a.stats.per_class[c].queue_wait_p99_seconds,
                     b.stats.per_class[c].queue_wait_p99_seconds);
  }
  ASSERT_EQ(a.stats.per_model.size(), b.stats.per_model.size());
  for (std::size_t m = 0; m < a.stats.per_model.size(); ++m) {
    EXPECT_EQ(a.stats.per_model[m].completed,
              b.stats.per_model[m].completed);
    EXPECT_EQ(a.stats.per_model[m].failed, b.stats.per_model[m].failed);
    EXPECT_EQ(a.stats.per_model[m].rejected,
              b.stats.per_model[m].rejected);
    EXPECT_EQ(a.stats.per_model[m].cache_hits,
              b.stats.per_model[m].cache_hits);
    EXPECT_EQ(a.stats.per_model[m].cache_lookups,
              b.stats.per_model[m].cache_lookups);
    EXPECT_DOUBLE_EQ(a.stats.per_model[m].queue_wait_p99_seconds,
                     b.stats.per_model[m].queue_wait_p99_seconds);
    EXPECT_DOUBLE_EQ(a.stats.per_model[m].e2e_p99_seconds,
                     b.stats.per_model[m].e2e_p99_seconds);
  }
}

/// A duplicate-heavy stream (u0 u0 u1 u1 ...) so the kernel-map cache
/// and affinity routing are genuinely exercised.
std::vector<SparseTensor> duplicate_stream(int n, uint64_t seed) {
  std::vector<SparseTensor> stream;
  for (int i = 0; i < n; ++i)
    stream.push_back(random_tensor(130 + 10 * (i / 2), 12, 4,
                                   seed + static_cast<uint64_t>(i / 2)));
  return stream;
}

// --- ServerConfig builder ---------------------------------------------

TEST(ServerConfig, BuilderChainsAndSetsEveryKnob) {
  serve::ServerConfig cfg;
  cfg.with_device(rtx3090())
      .with_engine(torchsparse_config())
      .with_workers(3)
      .with_map_cache_bytes(1 << 20)
      .with_queue_depth(7)
      .with_priority_preemption(true)
      .with_batch_overhead(0.002)
      .with_reuse_context(false)
      .with_devices(2)
      .with_route(serve::RoutePolicy::kCacheAffinity);
  serve::BatcherOptions b;
  b.max_batch = 5;
  cfg.with_batcher(b);
  serve::PriorityOptions p;
  p.aging_seconds = 0.25;
  cfg.with_priority(p);

  EXPECT_EQ(cfg.device.name, rtx3090().name);
  EXPECT_EQ(cfg.workers, 3);
  EXPECT_EQ(cfg.map_cache_bytes, std::size_t(1) << 20);
  EXPECT_EQ(cfg.queue.max_depth, 7u);
  EXPECT_TRUE(cfg.queue.priority_preemption);
  EXPECT_EQ(cfg.batcher.max_batch, 5);
  EXPECT_DOUBLE_EQ(cfg.priority.aging_seconds, 0.25);
  EXPECT_DOUBLE_EQ(cfg.batch_overhead_seconds, 0.002);
  EXPECT_FALSE(cfg.reuse_context);
  EXPECT_EQ(cfg.shard.devices, 2);
  EXPECT_EQ(cfg.shard.route, serve::RoutePolicy::kCacheAffinity);
}

TEST(Server, ValidatesConfigurationAtConstruction) {
  serve::ServerConfig bad_overhead;
  bad_overhead.batch_overhead_seconds = -1.0;
  EXPECT_THROW(serve::Server{bad_overhead}, std::invalid_argument);

  serve::ServerConfig bad_devices;
  bad_devices.shard.devices = serve::kMaxModeledDevices + 1;
  EXPECT_THROW(serve::Server{bad_devices}, std::invalid_argument);

  serve::ServerConfig bad_queue;
  bad_queue.queue.max_depth = 0;
  EXPECT_THROW(serve::Server{bad_queue}, std::invalid_argument);

  serve::ServerConfig bad_batcher;
  bad_batcher.batcher.slo_budget_seconds = -0.5;
  EXPECT_THROW(serve::Server{bad_batcher}, std::invalid_argument);

  serve::ServerConfig bad_aging;
  bad_aging.priority.aging_seconds = 0.0;
  EXPECT_THROW(serve::Server{bad_aging}, std::invalid_argument);
}

TEST(Server, LifecycleMisuseThrowsLogicError) {
  serve::ServerConfig cfg;
  cfg.with_device(rtx2080ti()).with_engine(torchsparse_config());
  serve::Server server(cfg);
  const SparseTensor x = random_tensor(40, 8, 4, 11);
  EXPECT_THROW(server.submit(x, 0.0), std::logic_error);
  EXPECT_THROW(server.drain(), std::logic_error);
  server.start(small_unet(12));
  EXPECT_TRUE(server.running());
  EXPECT_THROW(server.start(small_unet(12)), std::logic_error);
  server.submit(x, 0.0);
  const serve::StreamReport report = server.drain();
  EXPECT_FALSE(server.running());
  EXPECT_EQ(report.stats.completed, 1u);
  // stop() when idle is a no-op.
  server.stop();
}

TEST(Server, SubmitAfterStopAndRestartAfterDrainAreHandled) {
  serve::ServerConfig cfg;
  cfg.with_device(rtx2080ti()).with_engine(torchsparse_config());
  serve::Server server(cfg);
  const SparseTensor x = random_tensor(40, 8, 4, 13);
  server.start(small_unet(14));
  server.submit(x, 0.0);
  server.stop();
  // A stopped session admits nothing, on either admission path.
  EXPECT_THROW(server.submit(x, 0.0), std::logic_error);
  EXPECT_THROW(server.try_submit(x, 0.0), std::logic_error);
  EXPECT_THROW(server.drain(), std::logic_error);
  // The server object itself survives: a fresh session starts cleanly.
  server.start(small_unet(14));
  server.submit(x, 0.0);
  EXPECT_EQ(server.drain().stats.completed, 1u);
}

TEST(Server, DrainRacingStopIsATypedErrorNeverAHang) {
  // Two controlling threads fight over shutdown. Exactly one wins the
  // join; the loser either sees a typed std::logic_error (session gone)
  // or a no-op (stop when idle) — never a double-join or a hang.
  serve::ServerConfig cfg;
  cfg.with_device(rtx2080ti()).with_engine(torchsparse_config());
  for (int round = 0; round < 8; ++round) {
    serve::Server server(cfg);
    server.start(small_unet(15));
    server.submit(random_tensor(40, 8, 4, 15), 0.0);
    std::atomic<int> drained{0}, refused{0};
    std::thread t1([&] {
      try {
        server.drain();
        ++drained;
      } catch (const std::logic_error&) {
        ++refused;
      }
    });
    std::thread t2([&] { server.stop(); });
    t1.join();
    t2.join();
    EXPECT_EQ(drained + refused, 1);
    EXPECT_FALSE(server.running());
    // Concurrent start() against the settled server still works.
    server.start(small_unet(15));
    server.stop();
  }
}

TEST(Server, SubmitRacingDrainStartCyclesNeverTouchesAFreedQueue) {
  // Regression: submit/try_submit used to read the queue_ pointer
  // outside life_mu_, so a laggard producer racing a drain()+start()
  // cycle could call into the old session's freed RequestQueue (a
  // use-after-free the thread-safety annotations now reject at compile
  // time under Clang). Producers hammer admission across restart
  // cycles; every call must either land in a live session's queue or
  // surface the typed logic_error. Run under TSan in CI.
  serve::ServerConfig cfg;
  cfg.with_device(rtx2080ti())
      .with_engine(torchsparse_config())
      // A small queue bounds each cycle's drain work: producers mostly
      // see a full queue (nullopt), which is admission traffic all the
      // same — the lock-ordering under test, not throughput.
      .with_queue_depth(8);
  serve::Server server(cfg);
  const SparseTensor x = random_tensor(40, 8, 4, 16);
  std::atomic<bool> done{false};
  std::atomic<int> admitted{0}, refused{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&] {
      // Arrival stamps must be non-decreasing per session; a shared
      // far-future stamp keeps concurrent producers mutually valid.
      while (!done) {
        try {
          if (server.try_submit(x, 1e6).has_value())
            ++admitted;
          else
            ++refused;  // full queue or closing session
        } catch (const std::logic_error&) {
          ++refused;  // between sessions: typed, never a crash
        }
      }
    });
  }
  for (int cycle = 0; cycle < 6; ++cycle) {
    server.start(small_unet(17));
    // Give producers a window to land submissions in this session.
    (void)server.try_submit(x, 1e6);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    server.stop();  // frees this session's queue; admission must not UAF
  }
  done = true;
  for (std::thread& t : producers) t.join();
  EXPECT_GT(admitted + refused, 0);
  EXPECT_FALSE(server.running());
}

// --- Modeled-stat invariance ------------------------------------------

TEST(ServeEquivalence, WorkerAndDeviceCountsKeepModeledStatsInvariant) {
  // Modeled accounting stats are independent of worker count at every
  // device count.
  const ModelFn model = small_unet(42);
  const auto stream = duplicate_stream(8, 4200);
  auto serve_with = [&](int workers, int devices) {
    serve::ServerConfig cfg;
    cfg.with_device(rtx2080ti())
        .with_engine(torchsparse_config())
        .with_workers(workers)
        .with_map_cache_bytes(std::size_t(64) << 20)
        .with_queue_depth(stream.size() + 1)
        .with_devices(devices)
        .with_route(serve::RoutePolicy::kCacheAffinity);
    serve::BatcherOptions b;
    b.policy = serve::BatchPolicy::kImmediate;
    cfg.with_batcher(b);
    serve::Server server(cfg);
    server.start(model);
    for (std::size_t i = 0; i < stream.size(); ++i)
      server.submit(stream[i], 0.001 * static_cast<double>(i));
    return server.drain();
  };
  for (const int devices : {1, 2}) {
    const serve::StreamReport w1 = serve_with(1, devices);
    const serve::StreamReport w4 = serve_with(4, devices);
    expect_same_timeline(w1.stats.aggregate, w4.stats.aggregate);
    EXPECT_EQ(w1.stats.map_cache.hits, w4.stats.map_cache.hits);
    EXPECT_EQ(w1.stats.map_cache.misses, w4.stats.map_cache.misses);
    ASSERT_EQ(w1.requests.size(), w4.requests.size());
    for (std::size_t i = 0; i < w1.requests.size(); ++i) {
      EXPECT_DOUBLE_EQ(w1.requests[i].service_seconds,
                       w4.requests[i].service_seconds);
      EXPECT_EQ(w1.requests[i].device, w4.requests[i].device);
    }
  }
}

// --- Incremental fulfillment ------------------------------------------

TEST(IncrementalFulfillment, EarlyHandleReadyWhileLaterBatchesPending) {
  const ModelFn model = small_unet(43);
  const auto stream = duplicate_stream(6, 4300);

  serve::ServerConfig cfg;
  cfg.with_device(rtx2080ti())
      .with_engine(torchsparse_config())
      .with_workers(2)
      .with_queue_depth(stream.size() + 1);
  serve::BatcherOptions b;
  b.policy = serve::BatchPolicy::kImmediate;
  cfg.with_batcher(b);
  serve::Server server(cfg);
  server.start(model);

  // Submit only the first request; its singleton batch is placeable the
  // moment it is measured, long before the stream ends. get() blocks on
  // the handle's own fulfillment latch — no wall-clock polling, so the
  // wait is exact on any scheduler. The queue is still open and five
  // later requests have not even been submitted, yet the early handle
  // resolves.
  serve::StreamHandle first = server.submit(stream[0], 0.0);
  const serve::StreamResult early = first.get();
  EXPECT_TRUE(first.ready());
  EXPECT_TRUE(server.running());
  EXPECT_EQ(early.id, 0u);
  EXPECT_EQ(early.batch_id, 0u);

  std::vector<serve::StreamHandle> rest;
  for (std::size_t i = 1; i < stream.size(); ++i)
    rest.push_back(server.submit(stream[i], 0.001 * static_cast<double>(i)));
  const serve::StreamReport report = server.drain();

  // The early value is the final value: bit-identical to the end-of-
  // stream report...
  expect_same_timeline(early.timeline, report.requests[0].timeline);
  EXPECT_DOUBLE_EQ(early.start_seconds, report.requests[0].start_seconds);
  EXPECT_DOUBLE_EQ(early.finish_seconds, report.requests[0].finish_seconds);
  EXPECT_DOUBLE_EQ(early.e2e_seconds, report.requests[0].e2e_seconds);

  // ...and the whole stream is bit-identical to a session that never
  // observed a handle early, on the same (input, arrival) stream.
  serve::Server batch_server(cfg);
  batch_server.start(model);
  for (std::size_t i = 0; i < stream.size(); ++i)
    batch_server.submit(stream[i], 0.001 * static_cast<double>(i));
  expect_same_report(batch_server.drain(), report);
}

// --- Pluggable routing: heterogeneous service estimates ----------------

/// A custom policy modeling a group whose second device runs at half
/// speed: alternate batches between the devices and scale device 1's
/// service estimates by 2x.
class SlowSecondDeviceRouting final : public serve::RoutingPolicy {
 public:
  int route(const serve::RouteQuery& query,
            const serve::DeviceGroup& group) override {
    return static_cast<int>(query.batch_index %
                            static_cast<std::size_t>(group.size()));
  }
  double device_service_estimate(int device,
                                 double service_seconds) const override {
    return device == 1 ? 2.0 * service_seconds : service_seconds;
  }
  const char* name() const override { return "slow-second-device"; }
};

TEST(RoutingPolicyHook, ServiceEstimatesShapeHeterogeneousPlacement) {
  std::vector<serve::StreamResult> requests(2);
  std::vector<serve::DispatchBatch> plan;
  for (std::size_t i = 0; i < 2; ++i) {
    requests[i].id = i;
    requests[i].arrival_seconds = 0.0;
    requests[i].timeline.add(Stage::kMatMul, 1.0);
    requests[i].service_seconds = 1.0;
    plan.push_back({{i}, 0.0});
  }
  serve::DeviceGroup group(rtx2080ti(), 2, 0);
  SlowSecondDeviceRouting routing;
  std::vector<serve::StreamBatchRecord> batches;
  const serve::StreamStats stats = serve::schedule_stream_dispatch(
      requests, plan, group, routing, /*workers_per_device=*/1,
      /*batch_overhead_seconds=*/0.0, nullptr, &batches);

  // Device 0 finishes its unit batch at 1.0; device 1 models the same
  // work at 2x, so its lane (and the request's finish) lands at 2.0.
  EXPECT_EQ(requests[0].device, 0);
  EXPECT_EQ(requests[1].device, 1);
  EXPECT_DOUBLE_EQ(requests[0].finish_seconds, 1.0);
  EXPECT_DOUBLE_EQ(requests[1].finish_seconds, 2.0);
  EXPECT_DOUBLE_EQ(group.stats(0).busy_seconds, 1.0);
  EXPECT_DOUBLE_EQ(group.stats(1).busy_seconds, 2.0);
  EXPECT_DOUBLE_EQ(stats.makespan_seconds, 2.0);
  // The modeled single-request runtime is a device-neutral measurement;
  // the estimate only shapes placement.
  EXPECT_DOUBLE_EQ(requests[1].service_seconds, 1.0);
  expect_same_timeline(requests[0].timeline, requests[1].timeline);
}

TEST(ScheduleStreamDispatch, RejectsMalformedPlans) {
  std::vector<serve::StreamResult> requests(3);
  for (std::size_t i = 0; i < 3; ++i) {
    requests[i].id = i;
    requests[i].arrival_seconds = 0.1 * static_cast<double>(i);
    requests[i].service_seconds = 1.0;
  }
  serve::DeviceGroup group(rtx2080ti(), 1, 0);
  const auto routing =
      serve::make_routing_policy(serve::RoutePolicy::kRoundRobin);
  auto run_plan = [&](std::vector<serve::DispatchBatch> plan) {
    std::vector<serve::StreamResult> reqs = requests;
    serve::schedule_stream_dispatch(reqs, plan, group, *routing, 1, 0.0);
  };
  // Missing coverage, duplicate member, empty batch, pre-arrival
  // dispatch: all rejected.
  EXPECT_THROW(run_plan({{{0, 1}, 0.1}}), std::invalid_argument);
  EXPECT_THROW(run_plan({{{0, 1}, 0.1}, {{1, 2}, 0.2}}),
               std::invalid_argument);
  EXPECT_THROW(run_plan({{{0, 1}, 0.1}, {{}, 0.2}, {{2}, 0.2}}),
               std::invalid_argument);
  EXPECT_THROW(run_plan({{{0, 1, 2}, 0.1}}), std::invalid_argument);
  // A well-formed non-contiguous plan is accepted.
  std::vector<serve::StreamResult> reqs = requests;
  const serve::StreamStats ok = serve::schedule_stream_dispatch(
      reqs, {{{1, 0}, 0.1}, {{2}, 0.2}}, group, *routing, 1, 0.0);
  EXPECT_EQ(ok.completed, 3u);
  EXPECT_EQ(reqs[1].batch_id, 0u);
  EXPECT_DOUBLE_EQ(reqs[1].start_seconds, 0.1);
}

// --- Context hand-off across sessions ---------------------------------

TEST(ContextHandOff, ResetWithDeviceRestampsIdentityOnly) {
  const ModelFn model = small_unet(44);
  const SparseTensor x = random_tensor(120, 12, 4, 4400);
  RunOptions opt;
  opt.numerics = true;
  ExecContext ctx = make_run_context(rtx2080ti(), torchsparse_config(), opt);
  EXPECT_EQ(ctx.device_index, 0);
  const Timeline first = run_in_context(model, x, ctx);
  reset_context(ctx, 3);
  EXPECT_EQ(ctx.device_index, 3);
  const Timeline second = run_in_context(model, x, ctx);
  expect_same_timeline(first, second);
}

TEST(ContextHandOff, SessionsReuseWarmContextsWithIdenticalResults) {
  const ModelFn model = small_unet(45);
  const auto stream = duplicate_stream(6, 4500);
  auto run_session = [&](serve::Server& server) {
    server.start(model);
    for (std::size_t i = 0; i < stream.size(); ++i)
      server.submit(stream[i], 0.001 * static_cast<double>(i));
    return server.drain();
  };

  serve::ServerConfig cfg;
  cfg.with_device(rtx2080ti())
      .with_engine(torchsparse_config())
      .with_workers(2)
      .with_queue_depth(stream.size() + 1)
      .with_devices(2);
  serve::Server reused(cfg);
  const serve::StreamReport s1 = run_session(reused);
  // Session 2 adopts session 1's warm contexts (hand-off); a fresh
  // server serves the identical stream with cold contexts.
  const serve::StreamReport s2 = run_session(reused);
  serve::Server fresh(cfg);
  const serve::StreamReport ref = run_session(fresh);
  expect_same_report(s1, s2);
  expect_same_report(ref, s2);
}

// --- Error delivery ----------------------------------------------------

TEST(Server, RequestFailureReachesUnfulfilledHandlesAndDrainRethrows) {
  serve::ServerConfig cfg;
  cfg.with_device(rtx2080ti()).with_engine(torchsparse_config());
  serve::Server server(cfg);
  const ModelFn broken = [](const SparseTensor&, ExecContext&) {
    throw std::runtime_error("model exploded");
  };
  server.start(broken);
  serve::StreamHandle h =
      server.submit(random_tensor(50, 8, 4, 4600), 0.0);
  EXPECT_THROW(server.drain(), std::runtime_error);
  EXPECT_THROW(h.get(), std::runtime_error);
  // The server is reusable after a failed session.
  server.start(small_unet(46));
  server.submit(random_tensor(50, 8, 4, 4601), 0.0);
  const serve::StreamReport ok = server.drain();
  EXPECT_EQ(ok.stats.completed, 1u);
}

TEST(Server, CustomBatchingPolicyIsResetAfterFailedSession) {
  // A caller-supplied policy instance is reused across sessions; a
  // failed stream skips the normal end-of-stream flush, so the core
  // must reset it on the error path or session 2 would trip over
  // session 1's stale arrival clock and pending ids.
  serve::ServerConfig cfg;
  cfg.with_device(rtx2080ti()).with_engine(torchsparse_config());
  auto policy = std::make_shared<serve::SloBatchingPolicy>(
      serve::BatcherOptions{});
  cfg.with_batching_policy(policy);
  serve::Server server(cfg);

  const ModelFn broken = [](const SparseTensor&, ExecContext&) {
    throw std::runtime_error("model exploded");
  };
  server.start(broken);
  server.submit(random_tensor(50, 8, 4, 4800), 5.0);  // late stamp
  EXPECT_THROW(server.drain(), std::runtime_error);
  EXPECT_EQ(policy->pending(), 0u);

  // Session 2 submits at an *earlier* modeled stamp than session 1's
  // last arrival — only a reset policy accepts it.
  server.start(small_unet(48));
  server.submit(random_tensor(50, 8, 4, 4801), 0.0);
  const serve::StreamReport ok = server.drain();
  EXPECT_EQ(ok.stats.completed, 1u);
}

// --- Duplicate-aware batch formation ----------------------------------

serve::ArrivalInfo arrival_at(std::size_t id, double t, uint64_t digest,
                              serve::Priority prio = serve::Priority::kNormal) {
  serve::ArrivalInfo a;
  a.id = id;
  a.arrival_seconds = t;
  a.priority = prio;
  if (digest != 0) {
    a.digest = {digest, ~digest};
    a.has_digest = true;
  }
  return a;
}

void expect_same_plan(const std::vector<serve::DispatchBatch>& a,
                      const std::vector<serve::DispatchBatch>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(a[k].members, b[k].members) << "batch " << k;
    EXPECT_DOUBLE_EQ(a[k].dispatch_seconds, b[k].dispatch_seconds)
        << "batch " << k;
  }
}

TEST(DedupBatching, PlanBitEqualsSloWithoutDuplicates) {
  serve::BatcherOptions opt;
  opt.policy = serve::BatchPolicy::kSloAware;
  opt.max_batch = 3;
  opt.slo_budget_seconds = 0.010;
  // Digest-blind trace (every request its own group) and an all-unique
  // digest trace: both must reproduce the base policy stamp-for-stamp.
  std::vector<serve::ArrivalInfo> blind, unique;
  for (std::size_t i = 0; i < 8; ++i) {
    const double t = 0.003 * static_cast<double>(i);
    blind.push_back(arrival_at(i, t, 0));
    unique.push_back(arrival_at(i, t, 100 + i));
  }
  for (const auto* trace : {&blind, &unique}) {
    serve::SloBatchingPolicy slo(opt);
    serve::DedupBatchingPolicy dedup(opt);
    expect_same_plan(serve::plan_with(dedup, *trace),
                     serve::plan_with(slo, *trace));
  }
}

TEST(DedupBatching, GroupsStraddlingDuplicatesIntoOneDispatch) {
  serve::BatcherOptions opt;
  opt.policy = serve::BatchPolicy::kSloAware;
  opt.max_batch = 2;
  opt.slo_budget_seconds = 10.0;  // deadline rule out of the way
  // Digest pattern a a b: the base policy's class-full trigger fires at
  // the second request and splits the duplicate pair from nothing.
  const std::vector<serve::ArrivalInfo> trace = {
      arrival_at(0, 0.000, 7), arrival_at(1, 0.001, 7),
      arrival_at(2, 0.002, 8)};
  serve::SloBatchingPolicy slo(opt);
  const auto slo_plan = serve::plan_with(slo, trace);
  ASSERT_EQ(slo_plan.size(), 2u);
  EXPECT_EQ(slo_plan[0].members, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(slo_plan[1].members, (std::vector<std::size_t>{2}));

  // Dedup counts digest *groups* toward the cap, so the two a's wait as
  // one group until b arrives, then all three leave in one dispatch —
  // the duplicate rides along past max_batch without consuming cap.
  serve::DedupBatchingPolicy dedup(opt);
  const auto dedup_plan = serve::plan_with(dedup, trace);
  ASSERT_EQ(dedup_plan.size(), 1u);
  EXPECT_EQ(dedup_plan[0].members, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_DOUBLE_EQ(dedup_plan[0].dispatch_seconds, 0.002);
}

TEST(DedupBatching, DeadlineRuleStillBoundsDuplicateWait) {
  serve::BatcherOptions opt;
  opt.policy = serve::BatchPolicy::kSloAware;
  opt.max_batch = 4;
  opt.slo_budget_seconds = 0.010;
  // A late second copy of digest a must not hold the first copy past
  // its wait budget: the inherited deadline rule dispatches at
  // arrival + budget exactly.
  const std::vector<serve::ArrivalInfo> trace = {
      arrival_at(0, 0.000, 7), arrival_at(1, 0.001, 8),
      arrival_at(2, 0.020, 7)};
  serve::DedupBatchingPolicy dedup(opt);
  const auto plan = serve::plan_with(dedup, trace);
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan[0].members, (std::vector<std::size_t>{0, 1}));
  EXPECT_DOUBLE_EQ(plan[0].dispatch_seconds, 0.010);
  EXPECT_EQ(plan[1].members, (std::vector<std::size_t>{2}));
}

TEST(DedupBatching, GroupsNeverCrossPriorityClasses) {
  serve::BatcherOptions opt;
  opt.policy = serve::BatchPolicy::kSloAware;
  opt.max_batch = 2;
  opt.slo_budget_seconds = 10.0;
  // digest a arrives in both kHigh and kNormal; a same-digest mate in a
  // lower class must NOT ride along with the high-class seed — strict
  // priority outranks dedup.
  const std::vector<serve::ArrivalInfo> trace = {
      arrival_at(0, 0.000, 7, serve::Priority::kHigh),
      arrival_at(1, 0.001, 7, serve::Priority::kNormal),
      arrival_at(2, 0.002, 8, serve::Priority::kHigh)};
  serve::DedupBatchingPolicy dedup(opt);
  const auto plan = serve::plan_with(dedup, trace);
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan[0].members, (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(plan[1].members, (std::vector<std::size_t>{1}));
}

// --- Warm-started servers ---------------------------------------------

serve::StreamReport serve_all(serve::Server& server, const ModelFn& model,
                              const std::vector<SparseTensor>& stream) {
  server.start(model);
  for (std::size_t i = 0; i < stream.size(); ++i)
    server.submit(stream[i], 0.002 * static_cast<double>(i));
  return server.drain();
}

TEST(ServerWarmStart, RestartServesEntirelyFromSnapshot) {
  const ModelFn model = small_unet(49);
  const auto stream = duplicate_stream(8, 4900);
  auto make_cfg = [&] {
    serve::ServerConfig cfg;
    cfg.with_device(rtx2080ti())
        .with_engine(torchsparse_config())
        .with_workers(2)
        .with_map_cache_bytes(std::size_t(64) << 20)
        .with_queue_depth(stream.size() + 1)
        .with_devices(2)
        .with_route(serve::RoutePolicy::kCacheAffinity);
    return cfg;
  };

  // First life: every distinct scan pays its cold map builds.
  serve::Server first(make_cfg());
  const serve::StreamReport life1 = serve_all(first, model, stream);
  ASSERT_GT(life1.stats.map_cache.misses, 0u);

  // Restart hand-off through the serialized form: snapshot the wall
  // cache, round-trip the .tsmc image, warm-start a new server with it.
  std::stringstream image;
  first.map_cache()->save_snapshot(image);
  const auto snapshot =
      std::make_shared<const MapCacheSnapshot>(io::load_map_cache(image));
  serve::Server warmed(make_cfg().with_warm_snapshot(snapshot));
  const serve::StreamReport life2 = serve_all(warmed, model, stream);
  EXPECT_EQ(life2.stats.map_cache.misses, 0u);
  EXPECT_EQ(life2.stats.map_cache.hits, life2.stats.map_cache.lookups);
  EXPECT_EQ(life2.stats.map_cache.lookups, life1.stats.map_cache.lookups);

  // A cold restart (no snapshot) replays the full first-life ramp.
  serve::Server cold(make_cfg());
  const serve::StreamReport life3 = serve_all(cold, model, stream);
  EXPECT_EQ(life3.stats.map_cache.misses, life1.stats.map_cache.misses);
}

TEST(ServerWarmStart, ConfigWarmStartLoadsFromFileOrThrows) {
  const ModelFn model = small_unet(50);
  const auto stream = duplicate_stream(6, 5000);
  auto make_cfg = [&] {
    serve::ServerConfig cfg;
    cfg.with_device(rtx2080ti())
        .with_engine(torchsparse_config())
        .with_workers(2)
        .with_map_cache_bytes(std::size_t(64) << 20)
        .with_queue_depth(stream.size() + 1);
    return cfg;
  };
  serve::Server first(make_cfg());
  serve_all(first, model, stream);
  const std::string path = "/tmp/ts_server_warm_test.tsmc";
  io::save_map_cache_file(path, first.map_cache()->export_snapshot());

  // The path form and the in-memory form configure the same warm start.
  serve::ServerConfig from_file = make_cfg();
  from_file.warm_start(path);
  ASSERT_TRUE(from_file.warm_snapshot);
  serve::Server warmed_file(from_file);
  const serve::StreamReport via_file = serve_all(warmed_file, model, stream);

  std::stringstream image;
  first.map_cache()->save_snapshot(image);
  serve::Server warmed_mem(make_cfg().with_warm_snapshot(
      std::make_shared<const MapCacheSnapshot>(io::load_map_cache(image))));
  const serve::StreamReport via_mem = serve_all(warmed_mem, model, stream);
  expect_same_report(via_file, via_mem);
  EXPECT_EQ(via_file.stats.map_cache.misses, 0u);

  serve::ServerConfig missing = make_cfg();
  EXPECT_THROW(missing.warm_start("/tmp/ts_no_such_snapshot.tsmc"),
               std::runtime_error);
}

TEST(ServerWarmStart, DedupWarmStatsInvariantAcrossWorkersAndDevices) {
  // The full warm-start + dedup stack keeps the legacy invariance:
  // modeled stats are a function of the (snapshot, stream) alone, not
  // of worker or lane parallelism, at every device count.
  const ModelFn model = small_unet(51);
  const auto stream = duplicate_stream(8, 5100);
  auto make_cfg = [&](int workers, int devices) {
    serve::ServerConfig cfg;
    cfg.with_device(rtx2080ti())
        .with_engine(torchsparse_config())
        .with_workers(workers)
        .with_map_cache_bytes(std::size_t(64) << 20)
        .with_queue_depth(stream.size() + 1)
        .with_devices(devices)
        .with_route(serve::RoutePolicy::kRoundRobin)
        .with_dedup_batching();
    serve::BatcherOptions b;
    b.policy = serve::BatchPolicy::kSloAware;
    b.max_batch = 3;
    b.slo_budget_seconds = 0.015;
    cfg.with_batcher(b);
    return cfg;
  };
  serve::Server seed_server(make_cfg(2, 2));
  serve_all(seed_server, model, stream);
  std::stringstream image;
  seed_server.map_cache()->save_snapshot(image);
  const auto snapshot =
      std::make_shared<const MapCacheSnapshot>(io::load_map_cache(image));

  for (const int devices : {1, 2}) {
    serve::Server w1(make_cfg(1, devices).with_warm_snapshot(snapshot));
    serve::Server w4(make_cfg(4, devices).with_warm_snapshot(snapshot));
    const serve::StreamReport r1 = serve_all(w1, model, stream);
    const serve::StreamReport r4 = serve_all(w4, model, stream);
    expect_same_timeline(r1.stats.aggregate, r4.stats.aggregate);
    EXPECT_EQ(r1.stats.map_cache.hits, r4.stats.map_cache.hits);
    EXPECT_EQ(r1.stats.map_cache.misses, r4.stats.map_cache.misses);
    EXPECT_EQ(r1.stats.batches, r4.stats.batches);
    ASSERT_EQ(r1.requests.size(), r4.requests.size());
    for (std::size_t i = 0; i < r1.requests.size(); ++i) {
      EXPECT_DOUBLE_EQ(r1.requests[i].service_seconds,
                       r4.requests[i].service_seconds);
      EXPECT_EQ(r1.requests[i].device, r4.requests[i].device);
      EXPECT_EQ(r1.requests[i].batch_id, r4.requests[i].batch_id);
    }
  }
}

TEST(Server, RunBatchMatchesBatchRunnerRun) {
  const ModelFn model = small_unet(47);
  std::vector<SparseTensor> inputs;
  for (int i = 0; i < 4; ++i)
    inputs.push_back(random_tensor(100 + 10 * i, 12, 4,
                                   4700 + static_cast<uint64_t>(i)));
  serve::ServerConfig cfg;
  cfg.with_device(rtx2080ti())
      .with_engine(torchsparse_config())
      .with_workers(2);
  const serve::Server server(cfg);
  const serve::BatchReport via_server = server.run_batch(model, inputs);

  serve::BatchOptions opt;
  opt.workers = 2;
  const serve::BatchReport direct =
      serve::BatchRunner(rtx2080ti(), torchsparse_config(), opt)
          .run(model, inputs);
  ASSERT_EQ(via_server.requests.size(), direct.requests.size());
  for (std::size_t i = 0; i < direct.requests.size(); ++i) {
    expect_same_timeline(via_server.requests[i].timeline,
                         direct.requests[i].timeline);
    EXPECT_DOUBLE_EQ(via_server.requests[i].finish_seconds,
                     direct.requests[i].finish_seconds);
  }
  EXPECT_DOUBLE_EQ(via_server.stats.makespan_seconds,
                   direct.stats.makespan_seconds);
}

// --- Multi-model registry ---------------------------------------------

TEST(MultiModel, OneEntryRegistryBitEqualsLegacySession) {
  // The equivalence pin the whole registry design hangs on: a
  // single-entry registry (namespace 0, inherited SLO, no contending
  // model) must serve bit-identically to the same deployment through
  // start(model) — schedule, stats, cache accounting, everything.
  const ModelFn model = small_unet(51);
  const auto stream = duplicate_stream(10, 5100);
  auto base_config = [&] {
    serve::ServerConfig cfg;
    cfg.with_device(rtx2080ti())
        .with_engine(torchsparse_config())
        .with_workers(2)
        .with_map_cache_bytes(std::size_t(64) << 20)
        .with_queue_depth(stream.size() + 1)
        .with_batch_overhead(0.0005)
        .with_devices(2)
        .with_route(serve::RoutePolicy::kCacheAffinity);
    serve::BatcherOptions b;
    b.policy = serve::BatchPolicy::kSloAware;
    b.max_batch = 3;
    b.slo_budget_seconds = 0.004;
    cfg.with_batcher(b);
    return cfg;
  };

  serve::Server legacy(base_config());
  legacy.start(model);
  for (std::size_t i = 0; i < stream.size(); ++i)
    legacy.submit(stream[i], 0.002 * static_cast<double>(i));
  const serve::StreamReport via_legacy = legacy.drain();

  serve::ServerConfig registry_cfg = base_config();
  registry_cfg.with_model("minkunet", model);
  serve::Server registry(registry_cfg);
  EXPECT_EQ(registry.model_id("minkunet"), 0);
  EXPECT_EQ(registry.model_id("missing"), -1);
  registry.start();
  for (std::size_t i = 0; i < stream.size(); ++i)
    registry.submit_to(0, stream[i], 0.002 * static_cast<double>(i));
  const serve::StreamReport via_registry = registry.drain();

  expect_same_report(via_legacy, via_registry);
  ASSERT_EQ(via_registry.stats.per_model.size(), 1u);
  EXPECT_EQ(via_registry.stats.per_model[0].model, 0);
  EXPECT_EQ(via_registry.stats.per_model[0].completed, stream.size());
  for (const serve::StreamResult& r : via_registry.requests)
    EXPECT_EQ(r.model, 0);
  for (const serve::StreamBatchRecord& b : via_registry.batches)
    EXPECT_EQ(b.model, 0);
}

TEST(MultiModel, DeficitRoundRobinAlternatesContendingModels) {
  // Two equal-weight models with backlogged same-class work must share
  // dispatch opportunities via DRR instead of one model draining first.
  serve::BatcherOptions b;
  b.policy = serve::BatchPolicy::kSloAware;
  b.max_batch = 2;
  b.slo_budget_seconds = 1.0;
  const std::vector<serve::ModelBatchingInfo> models(2);
  serve::SloBatchingPolicy policy(b, {}, models);
  std::vector<serve::DispatchBatch> out;
  for (std::size_t i = 0; i < 8; ++i) {
    serve::ArrivalInfo info{i, 0.0005 * static_cast<double>(i),
                            serve::Priority::kNormal,
                            static_cast<int>(i % 2), {}, false};
    for (auto& batch : policy.on_arrival(info))
      out.push_back(std::move(batch));
  }
  for (auto& batch : policy.flush()) out.push_back(std::move(batch));
  ASSERT_EQ(out.size(), 8u);  // per-dispatch model filter: singletons
  std::size_t covered = 0;
  for (std::size_t k = 0; k < out.size(); ++k) {
    // Alternation: ties break to model 0, then the debit hands the
    // next opportunity to model 1, and so on.
    EXPECT_EQ(out[k].model, static_cast<int>(k % 2)) << "batch " << k;
    for (const std::size_t m : out[k].members) {
      EXPECT_EQ(static_cast<int>(m % 2), out[k].model);
      ++covered;
    }
  }
  EXPECT_EQ(covered, 8u);
}

TEST(MultiModel, PerModelSloOverridesDeadline) {
  // Model 1 carries a 1 ms budget against a 100 ms config default: its
  // requests must fire at arrival + 0.001 while model 0 keeps waiting.
  serve::BatcherOptions b;
  b.policy = serve::BatchPolicy::kSloAware;
  b.max_batch = 8;
  b.slo_budget_seconds = 0.1;
  std::vector<serve::ModelBatchingInfo> models(2);
  models[1].slo_budget_seconds = 0.001;
  serve::SloBatchingPolicy policy(b, {}, models);
  EXPECT_TRUE(policy.on_arrival({0, 0.0, serve::Priority::kNormal, 0,
                                 {}, false}).empty());
  EXPECT_TRUE(policy.on_arrival({1, 0.0002, serve::Priority::kNormal, 1,
                                 {}, false}).empty());
  // A late third arrival pushes the modeled clock past model 1's
  // deadline (0.0012) but nowhere near model 0's (0.1).
  const auto fired = policy.on_arrival({2, 0.05, serve::Priority::kNormal,
                                        0, {}, false});
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].model, 1);
  ASSERT_EQ(fired[0].members.size(), 1u);
  EXPECT_EQ(fired[0].members[0], 1u);
  EXPECT_DOUBLE_EQ(fired[0].dispatch_seconds, 0.0012);
  policy.flush();
}

TEST(MultiModel, SubmitToResolvesEntryDefaultPriority) {
  const ModelFn model = small_unet(52);
  serve::ServerConfig cfg;
  cfg.with_device(rtx2080ti())
      .with_engine(torchsparse_config())
      .with_queue_depth(8)
      .with_model("seg", model, /*slo_budget_seconds=*/-1,
                  serve::Priority::kHigh);
  serve::Server server(cfg);
  server.start();
  auto h_default = server.submit_to(0, random_tensor(120, 12, 4, 1), 0.0);
  auto h_explicit = server.submit_to(0, random_tensor(130, 12, 4, 2),
                                     0.001, serve::Priority::kLow);
  const serve::StreamReport report = server.drain();
  EXPECT_EQ(h_default.get().priority, serve::Priority::kHigh);
  EXPECT_EQ(h_explicit.get().priority, serve::Priority::kLow);
  ASSERT_EQ(report.stats.per_model.size(), 1u);
  EXPECT_EQ(report.stats.per_model[0].completed, 2u);
}

TEST(MultiModel, TwoModelSessionSplitsStatsByModel) {
  const ModelFn seg = small_unet(53);
  const ModelFn det = small_unet(54);
  serve::ServerConfig cfg;
  cfg.with_device(rtx2080ti())
      .with_engine(torchsparse_config())
      .with_workers(2)
      .with_map_cache_bytes(std::size_t(64) << 20)
      .with_queue_depth(32)
      .with_model("seg", seg)
      .with_model("det", det);
  serve::Server server(cfg);
  EXPECT_EQ(server.model_id("det"), 1);
  server.start();
  const auto stream = duplicate_stream(12, 5300);
  for (std::size_t i = 0; i < stream.size(); ++i)
    server.submit_to(static_cast<int>(i % 2), stream[i],
                     0.002 * static_cast<double>(i));
  const serve::StreamReport report = server.drain();

  ASSERT_EQ(report.stats.per_model.size(), 2u);
  EXPECT_EQ(report.stats.per_model[0].completed, 6u);
  EXPECT_EQ(report.stats.per_model[1].completed, 6u);
  EXPECT_GT(report.stats.per_model[0].e2e_p99_seconds, 0.0);
  EXPECT_GT(report.stats.per_model[1].e2e_p99_seconds, 0.0);
  ASSERT_EQ(report.requests.size(), stream.size());
  for (std::size_t i = 0; i < report.requests.size(); ++i)
    EXPECT_EQ(report.requests[i].model, static_cast<int>(i % 2));
  // Batches never mix models: every request's serving batch carries
  // the request's own model id (members need not be index-contiguous,
  // so group through batch_id rather than [first, first + size)).
  std::map<std::size_t, int> batch_model;
  for (const serve::StreamBatchRecord& b : report.batches)
    batch_model[b.batch_id] = b.model;
  for (const serve::StreamResult& r : report.requests) {
    const auto it = batch_model.find(r.batch_id);
    ASSERT_NE(it, batch_model.end());
    EXPECT_EQ(r.model, it->second);
  }
  // The duplicate stream repeats each tensor under BOTH models: the
  // namespace salt must keep those lookups from ever crossing tenants,
  // and the per-model split must cover the session totals.
  EXPECT_EQ(report.stats.per_model[0].cache_lookups +
                report.stats.per_model[1].cache_lookups,
            report.stats.map_cache.lookups);
}

TEST(MultiModel, RegistryAndLifecycleValidation) {
  const ModelFn model = small_unet(55);

  serve::ServerConfig dup;
  dup.with_model("a", model).with_model("a", model);
  EXPECT_THROW(serve::Server{dup}, std::invalid_argument);

  serve::ServerConfig unnamed;
  unnamed.with_model("", model);
  EXPECT_THROW(serve::Server{unnamed}, std::invalid_argument);

  serve::ServerConfig null_fn;
  null_fn.with_model("a", ModelFn{});
  EXPECT_THROW(serve::Server{null_fn}, std::invalid_argument);

  serve::ServerConfig bad_weight;
  bad_weight.with_model("a", model, -1, serve::Priority::kNormal, 0.0);
  EXPECT_THROW(serve::Server{bad_weight}, std::invalid_argument);

  serve::ServerConfig bad_tuned;
  bad_tuned.with_model("a", model);
  EXPECT_THROW(bad_tuned.with_model_tuned(3, {}), std::invalid_argument);

  // Lifecycle mismatches: a registry server refuses start(model); a
  // legacy server refuses start() and submit_to().
  serve::ServerConfig registry_cfg;
  registry_cfg.with_device(rtx2080ti())
      .with_engine(torchsparse_config())
      .with_model("a", model);
  serve::Server registry(registry_cfg);
  EXPECT_THROW(registry.start(model), std::invalid_argument);
  registry.start();
  EXPECT_THROW(registry.submit_to(1, random_tensor(100, 12, 4, 9), 0.0),
               std::invalid_argument);
  EXPECT_THROW(registry.submit_to(-1, random_tensor(100, 12, 4, 9), 0.0),
               std::invalid_argument);
  registry.stop();

  serve::ServerConfig legacy_cfg;
  legacy_cfg.with_device(rtx2080ti()).with_engine(torchsparse_config());
  serve::Server legacy(legacy_cfg);
  EXPECT_THROW(legacy.start(), std::logic_error);
  legacy.start(model);
  EXPECT_THROW(legacy.submit_to(0, random_tensor(100, 12, 4, 9), 0.0),
               std::logic_error);
  legacy.stop();
}

}  // namespace
}  // namespace ts
