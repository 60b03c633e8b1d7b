// Serving runtime: the batch path must be a pure throughput construct —
// identical per-request results to serial run_model, deterministic
// statistics, and exactly-once tuning under concurrency.
#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <random>
#include <stdexcept>
#include <thread>
#include <unordered_set>

#include "core/conv3d.hpp"
#include "engines/presets.hpp"
#include "engines/runner.hpp"
#include "engines/workloads.hpp"
#include "gpusim/device.hpp"
#include "nn/layers.hpp"
#include "serve/serve_stats.hpp"
#include "serve/server.hpp"
#include "serve/tuned_param_store.hpp"

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

/// A small but multi-level model (down + submanifold + up) so request
/// timelines exercise mapping, movement, and matmul stages.
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

std::vector<SparseTensor> make_batch(int n, uint64_t seed) {
  std::vector<SparseTensor> batch;
  for (int i = 0; i < n; ++i)
    batch.push_back(random_tensor(150 + 20 * i, 12, 4,
                                  seed + static_cast<uint64_t>(i)));
  return batch;
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

serve::ServerConfig batch_config(DeviceSpec dev, int workers) {
  serve::ServerConfig cfg;
  cfg.with_device(std::move(dev))
      .with_engine(torchsparse_config())
      .with_workers(workers);
  return cfg;
}

TEST(RunBatch, MatchesSerialRunModelPerInput) {
  const ModelFn model = small_unet(11);
  const auto batch = make_batch(6, 100);
  const DeviceSpec dev = rtx2080ti();
  const EngineConfig cfg = torchsparse_config();

  serve::ServerConfig scfg = batch_config(dev, 4);
  scfg.run.numerics = true;
  const serve::StreamReport report =
      serve::Server(scfg).run_batch(model, batch);

  ASSERT_EQ(report.requests.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    RunOptions serial;
    serial.numerics = true;
    const Timeline ref = run_model(model, batch[i], dev, cfg, serial);
    EXPECT_EQ(report.requests[i].id, i);
    expect_same_timeline(report.requests[i].timeline, ref);
  }
}

TEST(RunBatch, StatsAreSaneUnderManyWorkers) {
  const ModelFn model = small_unet(12);
  const auto batch = make_batch(8, 200);
  const serve::StreamReport report =
      serve::Server(batch_config(rtx3090(), 4)).run_batch(model, batch);
  const serve::StreamStats& s = report.stats;

  EXPECT_EQ(s.completed, batch.size());
  EXPECT_EQ(s.workers, 4);
  EXPECT_GT(s.makespan_seconds, 0.0);
  EXPECT_GT(s.throughput_fps, 0.0);
  EXPECT_GT(s.mean_service_seconds, 0.0);
  EXPECT_LE(s.e2e_p50_seconds, s.e2e_p90_seconds);
  EXPECT_LE(s.e2e_p90_seconds, s.e2e_p99_seconds);
  EXPECT_LE(s.e2e_p99_seconds, s.makespan_seconds + 1e-12);

  double sum_service = 0, max_service = 0;
  for (const serve::StreamResult& r : report.requests) {
    EXPECT_GT(r.service_seconds, 0.0);
    EXPECT_GE(r.start_seconds, 0.0);
    EXPECT_DOUBLE_EQ(r.finish_seconds,
                     r.start_seconds + r.service_seconds);
    sum_service += r.service_seconds;
    max_service = std::max(max_service, r.service_seconds);
  }
  // The schedule can never beat perfect division of work or finish
  // before its longest single request, and never exceeds serial time.
  EXPECT_GE(s.makespan_seconds,
            std::max(max_service, sum_service / s.workers) - 1e-12);
  EXPECT_LE(s.makespan_seconds, sum_service + 1e-12);
  expect_same_timeline(s.aggregate, [&] {
    Timeline t;
    for (const auto& r : report.requests) t += r.timeline;
    return t;
  }());
}

TEST(RunBatch, MoreWorkersImproveModeledThroughput) {
  const ModelFn model = small_unet(13);
  const auto batch = make_batch(8, 300);

  auto throughput_with = [&](int workers) {
    return serve::Server(batch_config(rtx2080ti(), workers))
        .run_batch(model, batch)
        .stats.throughput_fps;
  };
  const double one = throughput_with(1);
  const double four = throughput_with(4);
  EXPECT_GT(four, 1.5 * one);
}

TEST(RunBatch, EmptyBatchAndWorkerClamping) {
  const serve::Server server(batch_config(rtx2080ti(), 0));  // clamped to 1
  EXPECT_EQ(server.config().workers, 1);
  const serve::StreamReport report = server.run_batch(small_unet(14), {});
  EXPECT_TRUE(report.requests.empty());
  EXPECT_EQ(report.stats.completed, 0u);
  EXPECT_EQ(report.stats.workers, 1);
  EXPECT_DOUBLE_EQ(report.stats.throughput_fps, 0.0);
}

TEST(TunedParamStore, ComputesEachKeyOnceUnderConcurrentAccess) {
  Workload w = make_minkunet_workload("serve-tune", "SemanticKITTI", 0.25,
                                      1, /*seed=*/77, /*scale=*/0.12,
                                      /*tune_sample_count=*/1);
  const DeviceSpec dev = rtx2080ti();
  const EngineConfig cfg = torchsparse_config();
  const std::string key = serve::tuned_key(w.name, dev, cfg);

  serve::TunedParamStore store;
  constexpr int kThreads = 8;
  std::vector<serve::TunedParams> results(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      results[static_cast<std::size_t>(t)] =
          store.get_or_tune(key, w.model, w.tune_samples, dev, cfg);
    });
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(store.compute_count(), 1u);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_TRUE(store.contains(key));
  ASSERT_FALSE(results[0].empty());
  for (int t = 1; t < kThreads; ++t)
    EXPECT_EQ(results[static_cast<std::size_t>(t)], results[0]);
  // A second sequential request is a pure cache hit.
  EXPECT_EQ(store.get_or_tune(key, w.model, w.tune_samples, dev, cfg),
            results[0]);
  EXPECT_EQ(store.compute_count(), 1u);
}

TEST(TunedParamStore, DistinctKeysAreTunedIndependently) {
  Workload w = make_minkunet_workload("serve-tune2", "SemanticKITTI", 0.25,
                                      1, /*seed=*/78, /*scale=*/0.12,
                                      /*tune_sample_count=*/1);
  serve::TunedParamStore store;
  const EngineConfig cfg = torchsparse_config();
  const std::string k1 = serve::tuned_key(w.name, rtx2080ti(), cfg);
  const std::string k2 = serve::tuned_key(w.name, rtx3090(), cfg);
  EXPECT_NE(k1, k2);
  store.get_or_tune(k1, w.model, w.tune_samples, rtx2080ti(), cfg);
  store.get_or_tune(k2, w.model, w.tune_samples, rtx3090(), cfg);
  EXPECT_EQ(store.compute_count(), 2u);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_TRUE(store.get("missing-key").empty());
}

TEST(Conv3d, StrideMismatchErrorIsDescriptive) {
  // Regression for the seed SIGABRT: a transposed conv whose stride does
  // not divide the tensor stride must throw the same descriptive
  // runtime_error in Debug and Release, never assert.
  const SparseTensor x = random_tensor(40, 8, 4, 500);  // stride 1
  std::mt19937_64 rng(501);
  Conv3dParams up;
  up.geom = ConvGeometry{2, 2, true};
  up.weights = spnn::make_conv_weights(2, 4, 4, rng);
  ExecContext ctx(rtx2080ti(), torchsparse_config());
  try {
    sparse_conv3d(x, up, ctx);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(),
                 "transposed conv stride 2 does not divide tensor stride 1");
  }
}

TEST(Conv3d, ApiBoundaryChecksThrowInsteadOfAssert) {
  const SparseTensor x = random_tensor(40, 8, 4, 502);
  std::mt19937_64 rng(503);
  ExecContext ctx(rtx2080ti(), torchsparse_config());

  Conv3dParams wrong_count;
  wrong_count.geom = ConvGeometry{3, 1, false};
  wrong_count.weights = spnn::make_conv_weights(2, 4, 4, rng);  // 8 != 27
  EXPECT_THROW(sparse_conv3d(x, wrong_count, ctx), std::invalid_argument);

  Conv3dParams wrong_channels;
  wrong_channels.geom = ConvGeometry{3, 1, false};
  wrong_channels.weights = spnn::make_conv_weights(3, 8, 4, rng);  // x has 4
  EXPECT_THROW(sparse_conv3d(x, wrong_channels, ctx),
               std::invalid_argument);

  Conv3dParams zero_stride;
  zero_stride.geom = ConvGeometry{3, 0, false};
  zero_stride.weights = spnn::make_conv_weights(3, 4, 4, rng);
  EXPECT_THROW(sparse_conv3d(x, zero_stride, ctx), std::invalid_argument);
}

TEST(TunedParamStore, GetIsNonBlockingAndMissTolerant) {
  serve::TunedParamStore store;
  EXPECT_TRUE(store.get("never-tuned").empty());
  EXPECT_FALSE(store.contains("never-tuned"));
  EXPECT_EQ(store.compute_count(), 0u);
}

// --- serve::percentile: the shared nearest-rank implementation --------

TEST(ServeStats, PercentileNearestRankInteriorValues) {
  const std::vector<double> s = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  // Nearest rank: ceil(q * n)-th smallest (1-based).
  EXPECT_DOUBLE_EQ(serve::percentile(s, 0.50), 5.0);
  EXPECT_DOUBLE_EQ(serve::percentile(s, 0.90), 9.0);
  EXPECT_DOUBLE_EQ(serve::percentile(s, 0.99), 10.0);
  EXPECT_DOUBLE_EQ(serve::percentile(s, 0.05), 1.0);
  EXPECT_DOUBLE_EQ(serve::percentile(s, 0.11), 2.0);
  // Exact rank boundary: q*n integral picks that element, not the next.
  EXPECT_DOUBLE_EQ(serve::percentile(s, 0.30), 3.0);
}

TEST(ServeStats, PercentileEdgeQuantilesAndDegenerateSamples) {
  const std::vector<double> s = {3, 7, 11};
  // q = 0 clamps the rank up to 1 -> the minimum; q = 1 is the maximum
  // (rank n, never one past the end).
  EXPECT_DOUBLE_EQ(serve::percentile(s, 0.0), 3.0);
  EXPECT_DOUBLE_EQ(serve::percentile(s, 1.0), 11.0);
  // A single sample answers every quantile with itself.
  const std::vector<double> one = {42.0};
  EXPECT_DOUBLE_EQ(serve::percentile(one, 0.0), 42.0);
  EXPECT_DOUBLE_EQ(serve::percentile(one, 0.5), 42.0);
  EXPECT_DOUBLE_EQ(serve::percentile(one, 0.99), 42.0);
  EXPECT_DOUBLE_EQ(serve::percentile(one, 1.0), 42.0);
  // Empty sample: nothing to report.
  EXPECT_DOUBLE_EQ(serve::percentile({}, 0.5), 0.0);
}

TEST(ServeStats, PercentileRejectsOutOfRangeQuantiles) {
  const std::vector<double> s = {1, 2};
  EXPECT_THROW(serve::percentile(s, -0.01), std::invalid_argument);
  EXPECT_THROW(serve::percentile(s, 1.01), std::invalid_argument);
  EXPECT_THROW(
      serve::percentile(s, std::numeric_limits<double>::quiet_NaN()),
      std::invalid_argument);
  EXPECT_THROW(
      serve::percentile(s, std::numeric_limits<double>::infinity()),
      std::invalid_argument);
}

TEST(ServeStats, FoldDerivesEveryScopeFromFinalResults) {
  // Two served requests (one retried once) and one failure after two
  // attempts, across two classes and two models.
  serve::StreamResult a;
  a.priority = serve::Priority::kHigh;
  a.queue_wait_seconds = 1.0;
  a.e2e_seconds = 3.0;
  a.service_seconds = 2.0;
  a.timeline.add(Stage::kMatMul, 2.0);
  serve::StreamResult b = a;
  b.model = 1;
  b.queue_wait_seconds = 5.0;
  b.e2e_seconds = 9.0;
  b.service_seconds = 4.0;
  b.attempts = 2;
  b.retry_wait_seconds = 0.5;
  serve::StreamResult f;
  f.priority = serve::Priority::kLow;
  f.model = 1;
  f.attempts = 2;
  f.retry_wait_seconds = 7.0;  // ignored: only served retries count
  f.error = serve::ServeErrorCode::kRetriesExhausted;

  serve::StreamStatsFold fold(2);
  for (const serve::StreamResult* r : {&a, &b, &f}) fold.add(*r);
  EXPECT_EQ(fold.completed(), 2u);
  EXPECT_EQ(fold.failed(), 1u);
  serve::StreamStats s;
  fold.write(s);
  EXPECT_EQ(s.completed, 2u);
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.retries, 2u);
  EXPECT_DOUBLE_EQ(s.queue_wait_p50_seconds, 1.0);
  EXPECT_DOUBLE_EQ(s.e2e_p99_seconds, 9.0);
  EXPECT_DOUBLE_EQ(s.retry_wait_p99_seconds, 0.5);
  EXPECT_DOUBLE_EQ(s.mean_service_seconds, 3.0);
  EXPECT_DOUBLE_EQ(s.aggregate.stage_seconds(Stage::kMatMul), 4.0);
  ASSERT_EQ(s.per_class.size(),
            static_cast<std::size_t>(serve::kNumPriorityClasses));
  const auto& high = s.per_class[static_cast<int>(serve::Priority::kHigh)];
  const auto& low = s.per_class[static_cast<int>(serve::Priority::kLow)];
  EXPECT_EQ(high.priority, serve::Priority::kHigh);
  EXPECT_EQ(high.completed, 2u);
  EXPECT_EQ(high.retries, 1u);
  EXPECT_EQ(low.failed, 1u);
  EXPECT_EQ(low.retries, 1u);
  ASSERT_EQ(s.per_model.size(), 2u);
  EXPECT_EQ(s.per_model[1].model, 1);
  EXPECT_EQ(s.per_model[0].completed, 1u);
  EXPECT_EQ(s.per_model[1].completed, 1u);
  EXPECT_EQ(s.per_model[1].failed, 1u);
  EXPECT_EQ(s.per_model[1].retries, 2u);
  EXPECT_DOUBLE_EQ(s.per_model[1].queue_wait_p99_seconds, 5.0);
}

}  // namespace
}  // namespace ts
