// Fault-injection + fault-tolerance suite (serve/fault.hpp and the
// fault-tolerant scheduler inside serve::Server): plan validation,
// fault-free bit-equality pins, bit-identical replay, worker-count
// invariance of every fault-relevant modeled stat, typed ServeError
// outcomes (retries exhausted, no healthy device, deadline-hopeless
// shedding), stall recovery, crash redispatch, health-aware routing
// around DOWN shards, and snapshot-warm replacement shards.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <random>
#include <sstream>
#include <stdexcept>
#include <unordered_set>
#include <vector>

#include "engines/presets.hpp"
#include "engines/runner.hpp"
#include "gpusim/device.hpp"
#include "io/serialize.hpp"
#include "nn/layers.hpp"
#include "serve/batch_runner.hpp"
#include "serve/fault.hpp"
#include "serve/request_queue.hpp"
#include "serve/server.hpp"

namespace ts {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

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

/// Duplicate-heavy stream (u0 u0 u1 u1 ...) so cache-affinity routing
/// and the warm-replacement path are genuinely exercised.
std::vector<SparseTensor> duplicate_stream(int n, uint64_t seed) {
  std::vector<SparseTensor> stream;
  for (int i = 0; i < n; ++i)
    stream.push_back(random_tensor(130 + 10 * (i / 2), 12, 4,
                                   seed + static_cast<uint64_t>(i / 2)));
  return stream;
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

/// Full bit-equality over the report: schedule fields, batch records
/// (attempts included), fault/retry accounting, and the modeled stats.
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
    EXPECT_EQ(a.requests[i].attempts, b.requests[i].attempts);
    EXPECT_DOUBLE_EQ(a.requests[i].retry_wait_seconds,
                     b.requests[i].retry_wait_seconds);
    EXPECT_EQ(a.requests[i].error, b.requests[i].error);
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
    EXPECT_EQ(a.batches[k].device, b.batches[k].device);
    EXPECT_EQ(a.batches[k].attempts, b.batches[k].attempts);
  }
  EXPECT_EQ(a.stats.completed, b.stats.completed);
  EXPECT_EQ(a.stats.failed, b.stats.failed);
  EXPECT_EQ(a.stats.retries, b.stats.retries);
  EXPECT_EQ(a.stats.redispatched_batches, b.stats.redispatched_batches);
  EXPECT_DOUBLE_EQ(a.stats.retry_wait_p99_seconds,
                   b.stats.retry_wait_p99_seconds);
  EXPECT_DOUBLE_EQ(a.stats.makespan_seconds, b.stats.makespan_seconds);
  EXPECT_DOUBLE_EQ(a.stats.e2e_p99_seconds, b.stats.e2e_p99_seconds);
  EXPECT_DOUBLE_EQ(a.stats.queue_wait_p99_seconds,
                   b.stats.queue_wait_p99_seconds);
  expect_same_timeline(a.stats.aggregate, b.stats.aggregate);
  EXPECT_EQ(a.stats.map_cache.lookups, b.stats.map_cache.lookups);
  EXPECT_EQ(a.stats.map_cache.hits, b.stats.map_cache.hits);
  EXPECT_EQ(a.stats.map_cache.misses, b.stats.map_cache.misses);
  ASSERT_EQ(a.stats.per_device.size(), b.stats.per_device.size());
  for (std::size_t d = 0; d < a.stats.per_device.size(); ++d) {
    EXPECT_EQ(a.stats.per_device[d].batches, b.stats.per_device[d].batches);
    EXPECT_EQ(a.stats.per_device[d].requests,
              b.stats.per_device[d].requests);
    EXPECT_DOUBLE_EQ(a.stats.per_device[d].busy_seconds,
                     b.stats.per_device[d].busy_seconds);
  }
  ASSERT_EQ(a.stats.per_class.size(), b.stats.per_class.size());
  for (std::size_t c = 0; c < a.stats.per_class.size(); ++c) {
    EXPECT_EQ(a.stats.per_class[c].completed,
              b.stats.per_class[c].completed);
    EXPECT_EQ(a.stats.per_class[c].failed, b.stats.per_class[c].failed);
    EXPECT_EQ(a.stats.per_class[c].retries, b.stats.per_class[c].retries);
  }
}

serve::ServerConfig base_cfg(std::size_t depth) {
  serve::ServerConfig cfg;
  cfg.with_device(rtx2080ti())
      .with_engine(torchsparse_config())
      .with_workers(2)
      .with_queue_depth(depth);
  serve::BatcherOptions b;
  b.policy = serve::BatchPolicy::kImmediate;
  cfg.with_batcher(b);
  return cfg;
}

/// Drives one full session with arrivals `spacing` apart and returns
/// (report, handles) so tests can assert on both channels.
struct ServedSession {
  serve::StreamReport report;
  std::vector<serve::StreamHandle> handles;
};

ServedSession serve_all(serve::Server& server, const ModelFn& model,
                        const std::vector<SparseTensor>& stream,
                        double spacing,
                        const std::vector<serve::Priority>* classes = nullptr) {
  ServedSession out;
  server.start(model);
  for (std::size_t i = 0; i < stream.size(); ++i)
    out.handles.push_back(server.submit(
        stream[i], spacing * static_cast<double>(i),
        classes ? (*classes)[i] : serve::Priority::kNormal));
  out.report = server.drain();
  return out;
}

// --- Plan / knob validation -------------------------------------------

TEST(FaultPlanValidation, RejectsMalformedPlansAndKnobs) {
  serve::FaultPlan plan;
  plan.faults.push_back({2, serve::FaultKind::kCrash, 0.0});
  EXPECT_THROW(serve::validate_fault_plan(plan, 2), std::invalid_argument);
  EXPECT_NO_THROW(serve::validate_fault_plan(plan, 3));

  plan.faults = {{0, serve::FaultKind::kCrash, -1.0}};
  EXPECT_THROW(serve::validate_fault_plan(plan, 1), std::invalid_argument);

  // Stalls must end; a shard that never comes back is a crash.
  serve::DeviceFault stall{0, serve::FaultKind::kStall, 0.0};
  stall.duration_seconds = kInf;
  plan.faults = {stall};
  EXPECT_THROW(serve::validate_fault_plan(plan, 1), std::invalid_argument);

  serve::DeviceFault slow{0, serve::FaultKind::kSlowdown, 0.0};
  slow.duration_seconds = 0.1;
  slow.slowdown_factor = 0.5;  // a speedup is not a fault
  plan.faults = {slow};
  EXPECT_THROW(serve::validate_fault_plan(plan, 1), std::invalid_argument);

  serve::FaultToleranceOptions opt;
  opt.max_attempts = 0;
  EXPECT_THROW(serve::validate_fault_tolerance(opt), std::invalid_argument);
  opt = {};
  opt.retry_backoff_seconds = -1.0;
  EXPECT_THROW(serve::validate_fault_tolerance(opt), std::invalid_argument);
  opt = {};
  opt.degrade_deadline_seconds[0] = std::nan("");
  EXPECT_THROW(serve::validate_fault_tolerance(opt), std::invalid_argument);
  EXPECT_NO_THROW(serve::validate_fault_tolerance({}));

  // Server construction validates the plan against the configured fleet.
  serve::ServerConfig cfg = base_cfg(8).with_devices(2);
  serve::FaultPlan bad;
  bad.faults.push_back({5, serve::FaultKind::kCrash, 0.0});
  cfg.with_fault_plan(bad);
  EXPECT_THROW(serve::Server{cfg}, std::invalid_argument);
}

// --- Fault-free pins --------------------------------------------------

TEST(FaultFree, EmptyPlanBitEqualsNoPlan) {
  const ModelFn model = small_unet(80);
  const auto stream = duplicate_stream(8, 8000);
  auto run = [&](bool with_plan) {
    serve::ServerConfig cfg = base_cfg(stream.size() + 1)
                                  .with_devices(2)
                                  .with_map_cache_bytes(std::size_t(64) << 20)
                                  .with_route(serve::RoutePolicy::kCacheAffinity);
    if (with_plan) cfg.with_fault_plan(serve::FaultPlan{});
    serve::Server server(cfg);
    return serve_all(server, model, stream, 0.001).report;
  };
  const serve::StreamReport bare = run(false);
  const serve::StreamReport empty = run(true);
  expect_same_report(bare, empty);
  EXPECT_EQ(bare.stats.failed, 0u);
  EXPECT_EQ(bare.stats.retries, 0u);
  EXPECT_EQ(bare.stats.redispatched_batches, 0u);
  EXPECT_EQ(bare.stats.faults_injected, 0u);
  EXPECT_DOUBLE_EQ(bare.stats.retry_wait_p99_seconds, 0.0);
  for (const serve::StreamResult& r : bare.requests) {
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.attempts, 1);
    EXPECT_DOUBLE_EQ(r.retry_wait_seconds, 0.0);
  }
}

TEST(FaultFree, NonTriggeringPlanKeepsScheduleBitIdentical) {
  // A non-empty plan exercises the fault machinery (shadow clock,
  // deferred finalization, health-aware routing) for real; with no
  // fault landing inside the stream every schedule field must still
  // match the no-plan session bit-for-bit.
  const ModelFn model = small_unet(81);
  const auto stream = duplicate_stream(8, 8100);
  for (const serve::RoutePolicy route :
       {serve::RoutePolicy::kLeastLoaded, serve::RoutePolicy::kCacheAffinity,
        serve::RoutePolicy::kEstimateAware}) {
    auto run = [&](bool with_plan) {
      serve::ServerConfig cfg = base_cfg(stream.size() + 1)
                                    .with_devices(2)
                                    .with_map_cache_bytes(std::size_t(64)
                                                          << 20)
                                    .with_route(route);
      if (with_plan) {
        // Lands eons after the last batch: activated only by the
        // end-of-stream drain, after every batch has finalized.
        serve::DeviceFault slow{1, serve::FaultKind::kSlowdown, 1e6};
        slow.duration_seconds = 1.0;
        slow.slowdown_factor = 4.0;
        cfg.with_fault_plan(serve::FaultPlan{{slow}});
      }
      serve::Server server(cfg);
      return serve_all(server, model, stream, 0.001).report;
    };
    const serve::StreamReport bare = run(false);
    const serve::StreamReport planned = run(true);
    expect_same_report(bare, planned);
    EXPECT_EQ(planned.stats.failed, 0u);
    EXPECT_EQ(planned.stats.retries, 0u);
  }
}

// --- Replay + worker invariance ---------------------------------------

TEST(FaultReplay, SameFaultPlanReplaysBitIdentical) {
  const ModelFn model = small_unet(82);
  const auto stream = duplicate_stream(8, 8200);
  serve::DeviceFault crash{0, serve::FaultKind::kCrash};
  crash.at_dispatch = 2;
  auto run = [&] {
    serve::ServerConfig cfg = base_cfg(stream.size() + 1)
                                  .with_devices(2)
                                  .with_map_cache_bytes(std::size_t(64) << 20)
                                  .with_route(serve::RoutePolicy::kLeastLoaded)
                                  .with_fault_plan(serve::FaultPlan{{crash}});
    serve::Server server(cfg);
    return serve_all(server, model, stream, 1e-5).report;
  };
  const serve::StreamReport a = run();
  const serve::StreamReport b = run();
  expect_same_report(a, b);
  EXPECT_EQ(a.stats.faults_injected, 1u);
}

TEST(FaultMatrix, ModeledFaultStatsWorkerInvariant) {
  // crash / stall / slowdown x routing policy, workers 1 vs 4: every
  // fault decision runs on the worker-invariant shadow clock, so which
  // batches die, every retry, every shed, and all fault accounting must
  // be a function of the (stream, plan, config) alone.
  const ModelFn model = small_unet(83);
  const auto stream = duplicate_stream(8, 8300);
  auto make_fault = [&](serve::FaultKind kind) {
    serve::DeviceFault f{1, kind};
    f.at_dispatch = 2;
    if (kind == serve::FaultKind::kStall) f.duration_seconds = 0.02;
    if (kind == serve::FaultKind::kSlowdown) {
      f.duration_seconds = 0.02;
      f.slowdown_factor = 3.0;
    }
    return f;
  };
  for (const serve::FaultKind kind :
       {serve::FaultKind::kCrash, serve::FaultKind::kStall,
        serve::FaultKind::kSlowdown}) {
    for (const serve::RoutePolicy route :
         {serve::RoutePolicy::kLeastLoaded,
          serve::RoutePolicy::kCacheAffinity,
          serve::RoutePolicy::kEstimateAware}) {
      auto run = [&](int workers) {
        serve::ServerConfig cfg =
            base_cfg(stream.size() + 1)
                .with_devices(2)
                .with_workers(workers)
                .with_map_cache_bytes(std::size_t(64) << 20)
                .with_route(route)
                .with_fault_plan(serve::FaultPlan{{make_fault(kind)}});
        serve::Server server(cfg);
        return serve_all(server, model, stream, 1e-5).report;
      };
      const serve::StreamReport w1 = run(1);
      const serve::StreamReport w4 = run(4);
      const std::string ctx = std::string(serve::to_string(kind)) + "/" +
                              serve::to_string(route);
      SCOPED_TRACE(ctx);
      EXPECT_EQ(w1.stats.completed, w4.stats.completed);
      EXPECT_EQ(w1.stats.failed, w4.stats.failed);
      EXPECT_EQ(w1.stats.retries, w4.stats.retries);
      EXPECT_EQ(w1.stats.redispatched_batches,
                w4.stats.redispatched_batches);
      EXPECT_EQ(w1.stats.faults_injected, w4.stats.faults_injected);
      EXPECT_DOUBLE_EQ(w1.stats.retry_wait_p99_seconds,
                       w4.stats.retry_wait_p99_seconds);
      EXPECT_EQ(w1.stats.map_cache.hits, w4.stats.map_cache.hits);
      EXPECT_EQ(w1.stats.map_cache.misses, w4.stats.map_cache.misses);
      ASSERT_EQ(w1.requests.size(), w4.requests.size());
      for (std::size_t i = 0; i < w1.requests.size(); ++i) {
        EXPECT_EQ(w1.requests[i].attempts, w4.requests[i].attempts) << i;
        EXPECT_DOUBLE_EQ(w1.requests[i].retry_wait_seconds,
                         w4.requests[i].retry_wait_seconds)
            << i;
        EXPECT_EQ(w1.requests[i].device, w4.requests[i].device) << i;
        EXPECT_EQ(w1.requests[i].error, w4.requests[i].error) << i;
        EXPECT_DOUBLE_EQ(w1.requests[i].service_seconds,
                         w4.requests[i].service_seconds)
            << i;
      }
      ASSERT_EQ(w1.stats.per_device.size(), w4.stats.per_device.size());
      for (std::size_t d = 0; d < w1.stats.per_device.size(); ++d) {
        EXPECT_EQ(w1.stats.per_device[d].batches,
                  w4.stats.per_device[d].batches);
        EXPECT_EQ(w1.stats.per_device[d].requests,
                  w4.stats.per_device[d].requests);
        EXPECT_DOUBLE_EQ(w1.stats.per_device[d].busy_seconds,
                         w4.stats.per_device[d].busy_seconds);
      }
    }
  }
}

// --- Typed failure outcomes -------------------------------------------

TEST(FaultOutcome, RetriesExhaustedAndNoHealthyDeviceResolveTyped) {
  // One shard, permanent crash the moment batch #1 dispatches, one
  // placement attempt allowed: the in-flight batch #0 exhausts its
  // budget, everything after it finds no routable shard. Both outcomes
  // travel through the result channel — drain() itself succeeds.
  const ModelFn model = small_unet(84);
  std::vector<SparseTensor> stream;
  for (int i = 0; i < 3; ++i)
    stream.push_back(random_tensor(100, 12, 4, 8400 + i));
  serve::DeviceFault crash{0, serve::FaultKind::kCrash};
  crash.at_dispatch = 1;
  serve::FaultToleranceOptions tol;
  tol.max_attempts = 1;
  serve::ServerConfig cfg = base_cfg(stream.size() + 1)
                                .with_fault_plan(serve::FaultPlan{{crash}})
                                .with_fault_tolerance(tol);
  serve::Server server(cfg);
  const ServedSession s = serve_all(server, model, stream, 1e-7);

  EXPECT_EQ(s.report.stats.completed, 0u);
  EXPECT_EQ(s.report.stats.failed, 3u);
  EXPECT_EQ(s.report.stats.faults_injected, 1u);
  EXPECT_TRUE(s.report.batches.empty());

  const serve::StreamResult& r0 = s.handles[0].get();
  EXPECT_FALSE(r0.ok());
  EXPECT_EQ(r0.error, serve::ServeErrorCode::kRetriesExhausted);
  EXPECT_EQ(r0.attempts, 1);
  try {
    s.handles[0].value();
    FAIL() << "value() must throw ServeError on a failed result";
  } catch (const serve::ServeError& e) {
    EXPECT_EQ(e.code(), serve::ServeErrorCode::kRetriesExhausted);
    EXPECT_NE(std::string(e.what()).find("retries_exhausted"),
              std::string::npos);
  }
  for (const std::size_t i : {std::size_t(1), std::size_t(2)}) {
    const serve::StreamResult& r = s.handles[i].get();
    EXPECT_EQ(r.error, serve::ServeErrorCode::kNoHealthyDevice) << i;
    EXPECT_THROW(s.handles[i].value(), serve::ServeError);
  }
}

TEST(FaultOutcome, StallRecoveryRedispatchesTheLostBatch) {
  // One shard stalls while batch #0 is in flight. The lost batch
  // re-places after recovery (attempt 2), batches dispatched during the
  // outage park for capacity without consuming an attempt, and the
  // stream completes in full.
  const ModelFn model = small_unet(85);
  std::vector<SparseTensor> stream;
  for (int i = 0; i < 3; ++i)
    stream.push_back(random_tensor(100, 12, 4, 8500 + i));
  serve::DeviceFault stall{0, serve::FaultKind::kStall};
  stall.at_dispatch = 1;
  stall.duration_seconds = 0.05;
  serve::ServerConfig cfg =
      base_cfg(stream.size() + 1).with_fault_plan(serve::FaultPlan{{stall}});
  serve::Server server(cfg);
  const ServedSession s = serve_all(server, model, stream, 1e-7);

  EXPECT_EQ(s.report.stats.completed, 3u);
  EXPECT_EQ(s.report.stats.failed, 0u);
  EXPECT_EQ(s.report.stats.retries, 1u);
  EXPECT_EQ(s.report.stats.redispatched_batches, 1u);
  EXPECT_EQ(s.report.stats.faults_injected, 1u);
  EXPECT_GT(s.report.stats.retry_wait_p99_seconds, 0.0);

  const serve::StreamResult& r0 = s.handles[0].get();
  EXPECT_TRUE(r0.ok());
  EXPECT_EQ(r0.attempts, 2);
  EXPECT_GT(r0.retry_wait_seconds, 0.04);  // parked across the outage
  EXPECT_GE(r0.start_seconds, 0.05);       // served after recovery
  for (const std::size_t i : {std::size_t(1), std::size_t(2)}) {
    EXPECT_TRUE(s.handles[i].get().ok()) << i;
    EXPECT_EQ(s.handles[i].get().attempts, 1) << i;
  }
  // The shard really spent the lost attempt: 3 batches dispatched, 4
  // placements charged.
  ASSERT_EQ(s.report.stats.per_device.size(), 1u);
  EXPECT_EQ(s.report.stats.per_device[0].batches, 4u);
  EXPECT_EQ(s.report.batches.size(), 3u);
  bool saw_retry_record = false;
  for (const serve::StreamBatchRecord& rec : s.report.batches)
    if (rec.first == 0) {
      EXPECT_EQ(rec.attempts, 2);
      saw_retry_record = true;
    }
  EXPECT_TRUE(saw_retry_record);
}

TEST(FaultOutcome, CrashRedispatchesToTheSurvivingShard) {
  // Two shards, shard 0 retired mid-flight: its live batch re-routes to
  // the survivor through the health-aware routing path and everything
  // after the crash lands on shard 1 only.
  const ModelFn model = small_unet(86);
  std::vector<SparseTensor> stream;
  for (int i = 0; i < 4; ++i)
    stream.push_back(random_tensor(100, 12, 4, 8600 + i));
  serve::DeviceFault crash{0, serve::FaultKind::kCrash};
  crash.at_dispatch = 2;
  serve::ServerConfig cfg =
      base_cfg(stream.size() + 1)
          .with_devices(2)
          .with_route(serve::RoutePolicy::kLeastLoaded)
          .with_fault_plan(serve::FaultPlan{{crash}});
  serve::Server server(cfg);
  const ServedSession s = serve_all(server, model, stream, 1e-7);

  EXPECT_EQ(s.report.stats.completed, 4u);
  EXPECT_EQ(s.report.stats.failed, 0u);
  EXPECT_EQ(s.report.stats.redispatched_batches, 1u);
  const serve::StreamResult& r0 = s.handles[0].get();
  EXPECT_EQ(r0.attempts, 2);
  EXPECT_EQ(r0.device, 1);
  EXPECT_GT(r0.retry_wait_seconds, 0.0);
  for (const serve::StreamResult& r : s.report.requests)
    EXPECT_EQ(r.device, 1) << r.id;
  // Shard 0 still shows the work the crash destroyed.
  EXPECT_EQ(s.report.stats.per_device[0].batches, 1u);
  EXPECT_EQ(s.report.stats.per_device[1].batches, 4u);
}

TEST(FaultRouting, NonHealthAwarePoliciesFallBackAroundDownShards) {
  // Round-robin has no notion of health; the scheduler's fallback must
  // still route every batch around the shard that is DOWN from t = 0.
  const ModelFn model = small_unet(87);
  std::vector<SparseTensor> stream;
  for (int i = 0; i < 4; ++i)
    stream.push_back(random_tensor(100, 12, 4, 8700 + i));
  serve::DeviceFault crash{0, serve::FaultKind::kCrash, 0.0};
  serve::ServerConfig cfg =
      base_cfg(stream.size() + 1)
          .with_devices(2)
          .with_route(serve::RoutePolicy::kRoundRobin)
          .with_fault_plan(serve::FaultPlan{{crash}});
  serve::Server server(cfg);
  const ServedSession s = serve_all(server, model, stream, 1e-5);
  EXPECT_EQ(s.report.stats.completed, 4u);
  EXPECT_EQ(s.report.stats.failed, 0u);
  EXPECT_EQ(s.report.stats.retries, 0u);
  EXPECT_EQ(s.report.stats.faults_injected, 1u);
  for (const serve::StreamResult& r : s.report.requests)
    EXPECT_EQ(r.device, 1) << r.id;
  EXPECT_EQ(s.report.stats.per_device[0].batches, 0u);
}

TEST(FaultDegrade, ClassDeadlinesShedLowAndHoldHigh) {
  // One shard out for half a second: when capacity returns, low-class
  // requests whose start is hopeless shed with a typed error while the
  // unbounded high class is served — including the batch the stall
  // killed.
  const ModelFn model = small_unet(88);
  std::vector<SparseTensor> stream;
  for (int i = 0; i < 4; ++i)
    stream.push_back(random_tensor(100, 12, 4, 8800 + i));
  const std::vector<serve::Priority> classes = {serve::Priority::kHigh, serve::Priority::kLow,
                                         serve::Priority::kHigh, serve::Priority::kLow};
  serve::DeviceFault stall{0, serve::FaultKind::kStall};
  stall.at_dispatch = 1;
  stall.duration_seconds = 0.5;
  serve::FaultToleranceOptions tol;
  tol.degrade_deadline_seconds[static_cast<int>(serve::Priority::kLow)] = 0.01;
  serve::ServerConfig cfg = base_cfg(stream.size() + 1)
                                .with_fault_plan(serve::FaultPlan{{stall}})
                                .with_fault_tolerance(tol);
  serve::Server server(cfg);
  const ServedSession s = serve_all(server, model, stream, 1e-7, &classes);

  EXPECT_EQ(s.report.stats.completed, 2u);
  EXPECT_EQ(s.report.stats.failed, 2u);
  const auto& high =
      s.report.stats.per_class[static_cast<int>(serve::Priority::kHigh)];
  const auto& low =
      s.report.stats.per_class[static_cast<int>(serve::Priority::kLow)];
  EXPECT_EQ(high.completed, 2u);
  EXPECT_EQ(high.failed, 0u);
  EXPECT_EQ(low.completed, 0u);
  EXPECT_EQ(low.failed, 2u);
  EXPECT_TRUE(s.handles[0].get().ok());
  EXPECT_EQ(s.handles[0].get().attempts, 2);  // survived the stall
  EXPECT_TRUE(s.handles[2].get().ok());
  for (const std::size_t i : {std::size_t(1), std::size_t(3)}) {
    EXPECT_EQ(s.handles[i].get().error,
              serve::ServeErrorCode::kDeadlineHopeless)
        << i;
    EXPECT_THROW(s.handles[i].value(), serve::ServeError);
  }
}

TEST(FaultDegrade, FaultFreeOverloadShedsHopelessLowClassWorkerInvariant) {
  // Degrade deadlines are a placer contract, not a fault-plan feature:
  // with no plan at all, an overloaded single-device session still sheds
  // the low-class requests whose projected start (on the worker-
  // invariant shadow clock) blows their deadline, and serves every
  // high-class request.
  const ModelFn model = small_unet(90);
  std::vector<SparseTensor> stream;
  std::vector<serve::Priority> classes;
  for (int i = 0; i < 12; ++i) {
    stream.push_back(random_tensor(100, 12, 4, 9000 + i));
    classes.push_back(i % 2 == 0 ? serve::Priority::kHigh
                                 : serve::Priority::kLow);
  }
  const double service =
      run_model(model, stream[0], rtx2080ti(), torchsparse_config())
          .total_seconds();
  serve::FaultToleranceOptions tol;
  tol.degrade_deadline_seconds[static_cast<int>(serve::Priority::kLow)] =
      1.5 * service;
  auto run = [&](int workers) {
    serve::ServerConfig cfg = base_cfg(stream.size() + 1)
                                  .with_workers(workers)
                                  .with_fault_tolerance(tol);
    serve::Server server(cfg);
    // Near-simultaneous arrivals: the device is overloaded from the
    // first request on.
    return serve_all(server, model, stream, 1e-7, &classes).report;
  };
  const serve::StreamReport w1 = run(1);
  const serve::StreamReport w4 = run(4);

  const int hi = static_cast<int>(serve::Priority::kHigh);
  const int lo = static_cast<int>(serve::Priority::kLow);
  EXPECT_EQ(w1.stats.faults_injected, 0u);
  EXPECT_GT(w1.stats.failed, 0u);
  EXPECT_EQ(w1.stats.per_class[hi].failed, 0u);
  EXPECT_EQ(w1.stats.per_class[hi].completed, 6u);
  EXPECT_EQ(w1.stats.per_class[lo].failed, w1.stats.failed);
  EXPECT_TRUE(w1.requests[1].ok());  // the first low starts in time
  for (const serve::StreamResult& r : w1.requests)
    if (!r.ok()) {
      EXPECT_EQ(r.priority, serve::Priority::kLow) << r.id;
      EXPECT_EQ(r.error, serve::ServeErrorCode::kDeadlineHopeless) << r.id;
    }

  // Worker-invariant: the same requests shed, the same served.
  EXPECT_EQ(w4.stats.completed, w1.stats.completed);
  EXPECT_EQ(w4.stats.failed, w1.stats.failed);
  ASSERT_EQ(w4.requests.size(), w1.requests.size());
  for (std::size_t i = 0; i < w1.requests.size(); ++i) {
    EXPECT_EQ(w4.requests[i].error, w1.requests[i].error) << i;
    EXPECT_EQ(w4.requests[i].batch_id, w1.requests[i].batch_id) << i;
  }
  for (int c = 0; c < serve::kNumPriorityClasses; ++c) {
    EXPECT_EQ(w4.stats.per_class[c].completed,
              w1.stats.per_class[c].completed);
    EXPECT_EQ(w4.stats.per_class[c].failed, w1.stats.per_class[c].failed);
  }
  expect_same_timeline(w4.stats.aggregate, w1.stats.aggregate);
}

// --- Warm replacement -------------------------------------------------

TEST(FaultWarm, ReplacementShardWarmStartsFromSnapshot) {
  // A finite-duration crash brings up a replacement shard. With a warm
  // snapshot installed the replacement re-seeds from the manifest and
  // serves the duplicate-heavy tail without a single cold build; cold
  // (no snapshot) must re-pay map builds after the cache loss.
  const ModelFn model = small_unet(89);
  const auto stream = duplicate_stream(10, 8900);
  auto make_cfg = [&] {
    return base_cfg(stream.size() + 1)
        .with_devices(2)
        .with_map_cache_bytes(std::size_t(64) << 20)
        .with_route(serve::RoutePolicy::kCacheAffinity);
  };

  // First life (fault-free) builds the snapshot covering every scan.
  serve::Server first(make_cfg());
  serve_all(first, model, stream, 0.001);
  std::stringstream image;
  first.map_cache()->save_snapshot(image);
  const auto snapshot =
      std::make_shared<const MapCacheSnapshot>(io::load_map_cache(image));

  serve::DeviceFault crash{0, serve::FaultKind::kCrash};
  crash.at_dispatch = 4;
  crash.duration_seconds = 0.01;  // finite: a replacement arrives
  auto run = [&](bool warm) {
    serve::ServerConfig cfg =
        make_cfg().with_fault_plan(serve::FaultPlan{{crash}});
    if (warm) cfg.with_warm_snapshot(snapshot);
    serve::Server server(cfg);
    return serve_all(server, model, stream, 1e-5).report;
  };
  const serve::StreamReport warm = run(true);
  const serve::StreamReport cold = run(false);
  EXPECT_EQ(warm.stats.completed, stream.size());
  EXPECT_EQ(cold.stats.completed, stream.size());
  EXPECT_EQ(warm.stats.failed, 0u);
  // Snapshot-warm: the replacement re-seeds, so no lookup anywhere in
  // the stream pays a cold build. Cold restart pays them.
  EXPECT_EQ(warm.stats.map_cache.misses, 0u);
  EXPECT_GT(cold.stats.map_cache.misses, 0u);
  EXPECT_EQ(warm.stats.map_cache.hits, warm.stats.map_cache.lookups);
}

}  // namespace
}  // namespace ts
