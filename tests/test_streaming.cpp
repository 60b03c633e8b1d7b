// Streaming serving runtime: async submission must be a pure scheduling
// construct — per-request results bit-identical to serial run_model,
// typed admission-control rejections, SLO-aware batch formation on the
// modeled clock, and statistics that are deterministic across runs.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <random>
#include <stdexcept>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "engines/presets.hpp"
#include "engines/runner.hpp"
#include "gpusim/device.hpp"
#include "nn/layers.hpp"
#include "serve/device_group.hpp"
#include "serve/request_queue.hpp"
#include "serve/serve_policies.hpp"
#include "serve/serve_stats.hpp"
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

/// A single-device, cache-less schedule of `plan` — the plain modeled
/// scheduler the offline sweeps (bench/fig15) run.
serve::StreamStats schedule_one_device(
    std::vector<serve::StreamResult>& reqs,
    const std::vector<serve::DispatchBatch>& plan, int workers,
    double batch_overhead_seconds,
    std::vector<serve::StreamBatchRecord>* batches = nullptr) {
  serve::DeviceGroup group(rtx2080ti(), 1, 0);
  const auto routing =
      serve::make_routing_policy(serve::RoutePolicy::kRoundRobin);
  return serve::schedule_stream_dispatch(reqs, plan, group, *routing,
                                         workers, batch_overhead_seconds,
                                         nullptr, batches);
}

/// Single-class arrival trace for the offline planner.
std::vector<serve::ArrivalInfo> single_class(
    const std::vector<double>& arrivals) {
  std::vector<serve::ArrivalInfo> infos(arrivals.size());  // kNormal
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    infos[i].id = i;
    infos[i].arrival_seconds = arrivals[i];
  }
  return infos;
}

// --- SloBatchingPolicy::plan: batch formation on the modeled clock -----

TEST(SloBatchingPolicy, SloAwareClosesOnDeadlineOrFullBatch) {
  serve::BatcherOptions opt;
  opt.policy = serve::BatchPolicy::kSloAware;
  opt.max_batch = 3;
  opt.slo_budget_seconds = 1.0;
  const auto plan = serve::SloBatchingPolicy::plan(
      single_class({0.0, 0.2, 5.0, 5.1, 5.2, 9.0}), opt);

  ASSERT_EQ(plan.size(), 3u);
  // [0, 0.2]: deadline 0.0 + 1.0 passed before the arrival at 5.0.
  EXPECT_EQ(plan[0].members, (std::vector<std::size_t>{0, 1}));
  EXPECT_DOUBLE_EQ(plan[0].dispatch_seconds, 1.0);
  // [5.0, 5.1, 5.2]: filled to max_batch at the 5.2 arrival.
  EXPECT_EQ(plan[1].members, (std::vector<std::size_t>{2, 3, 4}));
  EXPECT_DOUBLE_EQ(plan[1].dispatch_seconds, 5.2);
  // [9.0]: flushed at end of stream (modeled close = last arrival).
  EXPECT_EQ(plan[2].members, (std::vector<std::size_t>{5}));
  EXPECT_DOUBLE_EQ(plan[2].dispatch_seconds, 9.0);
}

TEST(SloBatchingPolicy, ImmediateAndFullBatchPolicies) {
  const std::vector<double> arrivals = {0.0, 1.0, 2.0, 3.0, 4.0};

  serve::BatcherOptions imm;
  imm.policy = serve::BatchPolicy::kImmediate;
  imm.max_batch = 8;
  const auto plan_imm =
      serve::SloBatchingPolicy::plan(single_class(arrivals), imm);
  ASSERT_EQ(plan_imm.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(plan_imm[i].members, (std::vector<std::size_t>{i}));
    EXPECT_DOUBLE_EQ(plan_imm[i].dispatch_seconds, arrivals[i]);
  }

  serve::BatcherOptions full;
  full.policy = serve::BatchPolicy::kFullBatch;
  full.max_batch = 2;
  const auto plan_full =
      serve::SloBatchingPolicy::plan(single_class(arrivals), full);
  ASSERT_EQ(plan_full.size(), 3u);
  EXPECT_EQ(plan_full[0].members, (std::vector<std::size_t>{0, 1}));
  EXPECT_DOUBLE_EQ(plan_full[0].dispatch_seconds, 1.0);
  EXPECT_EQ(plan_full[1].members, (std::vector<std::size_t>{2, 3}));
  EXPECT_DOUBLE_EQ(plan_full[1].dispatch_seconds, 3.0);
  // Remainder flushed at the last arrival.
  EXPECT_EQ(plan_full[2].members, (std::vector<std::size_t>{4}));
  EXPECT_DOUBLE_EQ(plan_full[2].dispatch_seconds, 4.0);
}

TEST(SloBatchingPolicy, RejectsNonMonotoneArrivalsAndBadBudgets) {
  EXPECT_THROW(
      serve::SloBatchingPolicy::plan(single_class({1.0, 0.5}), {}),
      std::invalid_argument);
  serve::BatcherOptions bad;
  bad.slo_budget_seconds = -1.0;
  EXPECT_THROW(serve::SloBatchingPolicy{bad}, std::invalid_argument);
  bad.slo_budget_seconds = std::numeric_limits<double>::infinity();
  EXPECT_THROW(serve::SloBatchingPolicy{bad}, std::invalid_argument);
}

// --- schedule_stream_dispatch: the pure modeled scheduler --------------

TEST(ScheduleStreamDispatch, BackToBackWithPerBatchOverhead) {
  std::vector<serve::StreamResult> reqs(4);
  const double arrivals[] = {0.0, 0.1, 0.2, 0.3};
  for (std::size_t i = 0; i < 4; ++i) {
    reqs[i].id = i;
    reqs[i].arrival_seconds = arrivals[i];
    reqs[i].service_seconds = 1.0;
  }
  const std::vector<serve::DispatchBatch> plan = {{{0, 1, 2, 3}, 0.3}};
  std::vector<serve::StreamBatchRecord> batches;
  const serve::StreamStats s = schedule_one_device(
      reqs, plan, /*workers=*/1, /*batch_overhead_seconds=*/0.5, &batches);

  // Batch starts at dispatch 0.3, pays 0.5 overhead once, then members
  // run back-to-back.
  EXPECT_DOUBLE_EQ(reqs[0].start_seconds, 0.8);
  EXPECT_DOUBLE_EQ(reqs[3].start_seconds, 3.8);
  EXPECT_DOUBLE_EQ(reqs[3].finish_seconds, 4.8);
  // Queue wait ends at batch-execution start (0.3); the overhead and
  // batch-mates are run time.
  EXPECT_DOUBLE_EQ(reqs[0].queue_wait_seconds, 0.3);
  EXPECT_DOUBLE_EQ(reqs[3].queue_wait_seconds, 0.0);
  EXPECT_DOUBLE_EQ(reqs[3].e2e_seconds, 4.5);
  EXPECT_DOUBLE_EQ(s.makespan_seconds, 4.8);
  EXPECT_DOUBLE_EQ(s.mean_batch_size, 4.0);
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].lane, 0);
  EXPECT_DOUBLE_EQ(batches[0].start_seconds, 0.3);
  EXPECT_DOUBLE_EQ(batches[0].finish_seconds, 4.8);
}

TEST(ScheduleStreamDispatch, RejectsPlanThatDoesNotCoverRequests) {
  std::vector<serve::StreamResult> reqs(3);
  EXPECT_THROW(schedule_one_device(reqs, {{{0, 1}, 0.0}}, 1, 0.0),
               std::invalid_argument);
  EXPECT_THROW(
      schedule_one_device(reqs, {{{0, 1}, 0.0}, {{1, 2}, 0.0}}, 1, 0.0),
      std::invalid_argument);
}

// --- RequestQueue: admission control ----------------------------------

TEST(RequestQueue, RejectsPastConfiguredDepthWithTypedError) {
  serve::QueueOptions qopt;
  qopt.max_depth = 3;
  serve::RequestQueue queue(qopt);
  const auto batch = make_batch(4, 900);

  for (int i = 0; i < 3; ++i)
    queue.submit(batch[static_cast<std::size_t>(i)], 0.001 * i);
  EXPECT_EQ(queue.depth(), 3u);

  // The 4th submission sheds load with the typed error (which is still a
  // runtime_error, so generic handlers keep working).
  try {
    queue.submit(batch[3], 0.003);
    FAIL() << "expected serve::AdmissionError";
  } catch (const serve::AdmissionError& e) {
    EXPECT_NE(std::string(e.what()).find("depth limit"),
              std::string::npos);
  }
  EXPECT_TRUE((std::is_base_of<std::runtime_error,
                               serve::AdmissionError>::value));
  EXPECT_FALSE(queue.try_submit(batch[3], 0.003).has_value());
  EXPECT_EQ(queue.rejected(), 2u);
  EXPECT_EQ(queue.submitted(), 3u);

  queue.close();
  EXPECT_THROW(queue.submit(batch[3], 0.004), serve::AdmissionError);
  EXPECT_EQ(queue.rejected(), 3u);
}

TEST(RequestQueue, ValidatesArrivalStamps) {
  serve::RequestQueue queue;
  const SparseTensor x = random_tensor(30, 8, 4, 901);
  queue.submit(x, 1.0);
  EXPECT_THROW(queue.submit(x, 0.5), std::invalid_argument);
  EXPECT_THROW(queue.submit(x, -1.0), std::invalid_argument);
  // Out-of-enumerator priority values (an index into per-class
  // accounting downstream) die at the admission boundary too.
  EXPECT_THROW(queue.submit(x, 1.5, static_cast<serve::Priority>(3)),
               std::invalid_argument);
  EXPECT_THROW(queue.try_submit(x, 1.5, static_cast<serve::Priority>(-1)),
               std::invalid_argument);
  // Invalid stamps and priorities are caller bugs, not load shedding.
  EXPECT_EQ(queue.rejected(), 0u);
}

TEST(RequestQueue, ClassDepthCapShedsOnlyTheCappedClass) {
  serve::QueueOptions qopt;
  qopt.max_depth = 8;
  qopt.class_max_depth[static_cast<int>(serve::Priority::kLow)] = 1;
  serve::RequestQueue queue(qopt);
  const SparseTensor x = random_tensor(30, 8, 4, 902);

  queue.submit(x, 0.0, serve::Priority::kLow);
  // The low class is at its cap; the queue itself has plenty of room.
  try {
    queue.submit(x, 0.001, serve::Priority::kLow);
    FAIL() << "expected serve::AdmissionError";
  } catch (const serve::AdmissionError& e) {
    EXPECT_NE(std::string(e.what()).find("class"), std::string::npos);
  }
  EXPECT_FALSE(
      queue.try_submit(x, 0.001, serve::Priority::kLow).has_value());
  EXPECT_EQ(queue.rejected(), 2u);
  // Other classes are untouched by the low-class cap.
  queue.submit(x, 0.002, serve::Priority::kNormal);
  queue.submit(x, 0.003, serve::Priority::kHigh);
  EXPECT_EQ(queue.depth(), 3u);
  // Draining the pending low request frees the class slot.
  serve::PendingRequest req;
  ASSERT_TRUE(queue.wait_pop(req));
  EXPECT_EQ(req.priority, serve::Priority::kLow);
  queue.submit(x, 0.004, serve::Priority::kLow);
  EXPECT_EQ(queue.depth(), 3u);
}

TEST(RequestQueue, SubmitWaitBlocksForASlotAndWakesOnDrain) {
  serve::QueueOptions qopt;
  qopt.max_depth = 1;
  serve::RequestQueue queue(qopt);
  const SparseTensor x = random_tensor(30, 8, 4, 903);
  queue.submit(x, 0.0);

  // The producer blocks on the full queue until the consumer drains a
  // slot; then its request is admitted (never shed).
  serve::StreamHandle handle;
  std::thread producer([&] { handle = queue.submit_wait(x, 0.001); });
  serve::PendingRequest req;
  ASSERT_TRUE(queue.wait_pop(req));
  producer.join();
  EXPECT_TRUE(handle.valid());
  EXPECT_EQ(queue.depth(), 1u);
  EXPECT_EQ(queue.submitted(), 2u);
  EXPECT_EQ(queue.rejected(), 0u);
}

TEST(RequestQueue, CloseWakesBlockedSubmitWaitWithTypedError) {
  serve::QueueOptions qopt;
  qopt.max_depth = 1;
  serve::RequestQueue queue(qopt);
  const SparseTensor x = random_tensor(30, 8, 4, 904);
  queue.submit(x, 0.0);

  // Shutdown while a producer is parked in submit_wait: the waiter must
  // wake with the typed rejection, not deadlock against a consumer that
  // will never drain another slot.
  std::atomic<bool> rejected{false};
  std::thread producer([&] {
    try {
      queue.submit_wait(x, 0.001);
    } catch (const serve::AdmissionError&) {
      rejected = true;
    }
  });
  // Give the producer a moment to actually park (the outcome is the
  // same typed error either way — close-then-wait rejects immediately).
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.close();
  producer.join();
  EXPECT_TRUE(rejected);
  EXPECT_EQ(queue.rejected(), 1u);
  EXPECT_EQ(queue.depth(), 1u);  // the original admission is untouched
}

// --- Server sessions: the end-to-end streaming path -------------------

serve::ServerConfig session_config(const DeviceSpec& dev, int workers) {
  serve::ServerConfig cfg;
  cfg.with_device(dev).with_engine(torchsparse_config()).with_workers(
      workers);
  return cfg;
}

TEST(StreamingServe, ResultsAreBitIdenticalToSerialRunModel) {
  const ModelFn model = small_unet(21);
  const auto batch = make_batch(6, 1000);
  const DeviceSpec dev = rtx2080ti();
  const EngineConfig cfg = torchsparse_config();

  serve::ServerConfig scfg = session_config(dev, 3);
  scfg.run.numerics = true;
  scfg.batcher.max_batch = 3;
  scfg.batcher.slo_budget_seconds = 0.005;
  serve::Server server(scfg);
  server.start(model);
  std::vector<serve::StreamHandle> handles;
  for (std::size_t i = 0; i < batch.size(); ++i)
    handles.push_back(server.submit(batch[i], 0.001 * double(i)));
  const serve::StreamReport report = server.drain();

  ASSERT_EQ(report.requests.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    RunOptions serial;
    serial.numerics = true;
    const Timeline ref = run_model(model, batch[i], dev, cfg, serial);
    EXPECT_EQ(report.requests[i].id, i);
    expect_same_timeline(report.requests[i].timeline, ref);
    // The handle resolves to the same scheduled result.
    const serve::StreamResult& via_handle = handles[i].get();
    EXPECT_EQ(via_handle.id, i);
    expect_same_timeline(via_handle.timeline, ref);
    EXPECT_DOUBLE_EQ(via_handle.finish_seconds,
                     report.requests[i].finish_seconds);
    EXPECT_GE(report.requests[i].queue_wait_seconds, 0.0);
    EXPECT_DOUBLE_EQ(report.requests[i].e2e_seconds,
                     report.requests[i].finish_seconds -
                         report.requests[i].arrival_seconds);
    // e2e covers the queue wait plus at least this request's own run.
    EXPECT_GE(report.requests[i].e2e_seconds + 1e-15,
              report.requests[i].queue_wait_seconds +
                  report.requests[i].service_seconds);
  }
}

TEST(StreamingServe, AdmissionRejectionsAreCountedInStats) {
  const auto batch = make_batch(5, 1100);

  // A pre-filled, closed queue makes the rejection deterministic: the
  // session cannot drain it while the producer is still submitting.
  serve::QueueOptions qopt;
  qopt.max_depth = 4;
  serve::RequestQueue queue(qopt);
  for (int i = 0; i < 4; ++i)
    queue.submit(batch[static_cast<std::size_t>(i)], 0.0005 * i);
  EXPECT_THROW(queue.submit(batch[4], 0.002), serve::AdmissionError);
  queue.close();

  const serve::ServerConfig cfg = session_config(rtx2080ti(), 2);
  std::vector<serve::ModelEntry> models(1);
  models[0].name = "default";
  models[0].fn = small_unet(22);
  serve::SloBatchingPolicy batching(cfg.batcher);
  const auto routing = serve::make_routing_policy(cfg.shard.route);
  const serve::StreamReport report =
      serve::serve_stream(models, queue, cfg, batching, *routing);
  EXPECT_EQ(report.stats.completed, 4u);
  EXPECT_EQ(report.stats.rejected, 1u);
}

TEST(StreamingServe, TightSloDispatchesSmallerBatchesAndMeetsBudget) {
  const ModelFn model = small_unet(23);
  const DeviceSpec dev = rtx2080ti();
  const EngineConfig cfg = torchsparse_config();

  // Modeled mean service time anchors the arrival process so the test is
  // load-calibrated on every machine (service times are cost-model
  // output, hence machine-independent).
  const SparseTensor probe = random_tensor(160, 12, 4, 1200);
  const double service =
      run_model(model, probe, dev, cfg).total_seconds();
  ASSERT_GT(service, 0.0);
  const double gap = 0.6 * service;

  const int n = 12;
  std::vector<SparseTensor> batch;
  for (int i = 0; i < n; ++i)
    batch.push_back(random_tensor(160, 12, 4,
                                  1200 + static_cast<uint64_t>(i)));

  auto serve_with = [&](double slo_budget) {
    // Lanes >= dispatched batches, so queue wait is purely the batcher's
    // deadline wait and the SLO bound below is exact.
    serve::ServerConfig scfg = session_config(dev, 12);
    scfg.batcher.policy = serve::BatchPolicy::kSloAware;
    scfg.batcher.max_batch = 6;
    scfg.batcher.slo_budget_seconds = slo_budget;
    serve::Server server(scfg);
    server.start(model);
    for (int i = 0; i < n; ++i)
      server.submit(batch[static_cast<std::size_t>(i)], gap * i);
    return server.drain();
  };

  const serve::StreamReport tight = serve_with(1.0 * service);
  const serve::StreamReport loose = serve_with(100.0 * service);

  // A tight SLO must cut batch sizes...
  EXPECT_LT(tight.stats.mean_batch_size, loose.stats.mean_batch_size);
  EXPECT_GT(tight.stats.batches, loose.stats.batches);
  for (const serve::StreamBatchRecord& b : tight.batches)
    EXPECT_LE(b.size, 6u);
  // ...and the modeled p99 queue wait stays within the budget.
  EXPECT_LE(tight.stats.queue_wait_p99_seconds, 1.0 * service + 1e-12);

  // Deterministic: an identical re-run reproduces the schedule exactly.
  const serve::StreamReport again = serve_with(1.0 * service);
  EXPECT_DOUBLE_EQ(again.stats.mean_batch_size,
                   tight.stats.mean_batch_size);
  EXPECT_DOUBLE_EQ(again.stats.queue_wait_p99_seconds,
                   tight.stats.queue_wait_p99_seconds);
  EXPECT_DOUBLE_EQ(again.stats.e2e_p99_seconds,
                   tight.stats.e2e_p99_seconds);
  EXPECT_DOUBLE_EQ(again.stats.throughput_fps,
                   tight.stats.throughput_fps);
  ASSERT_EQ(again.requests.size(), tight.requests.size());
  for (std::size_t i = 0; i < tight.requests.size(); ++i) {
    EXPECT_DOUBLE_EQ(again.requests[i].start_seconds,
                     tight.requests[i].start_seconds);
    EXPECT_DOUBLE_EQ(again.requests[i].finish_seconds,
                     tight.requests[i].finish_seconds);
    EXPECT_EQ(again.requests[i].batch_id, tight.requests[i].batch_id);
  }
}

TEST(StreamingServe, ProducerThreadSubmitsWhileServing) {
  const ModelFn model = small_unet(24);
  const auto batch = make_batch(8, 1300);

  serve::Server server(session_config(rtx3090(), 4));
  server.start(model);
  // No wall-clock pacing: the modeled arrival stamps carry the stream's
  // timing, and the queue's own blocking hand-off provides the
  // producer/consumer interleaving this test is about.
  std::thread producer([&] {
    for (std::size_t i = 0; i < batch.size(); ++i)
      server.submit(batch[i], 0.002 * double(i));
  });
  producer.join();
  const serve::StreamReport report = server.drain();

  EXPECT_EQ(report.stats.completed, batch.size());
  EXPECT_EQ(report.stats.rejected, 0u);
  EXPECT_GT(report.stats.throughput_fps, 0.0);
  EXPECT_LE(report.stats.queue_wait_p50_seconds,
            report.stats.queue_wait_p99_seconds);
  EXPECT_LE(report.stats.e2e_p50_seconds, report.stats.e2e_p99_seconds);
}

TEST(StreamingServe, EmptySessionYieldsEmptyReport) {
  serve::Server server(session_config(rtx2080ti(), 2));
  server.start(small_unet(25));
  const serve::StreamReport report = server.drain();
  EXPECT_TRUE(report.requests.empty());
  EXPECT_TRUE(report.batches.empty());
  EXPECT_EQ(report.stats.completed, 0u);
  EXPECT_DOUBLE_EQ(report.stats.throughput_fps, 0.0);
}

// --- Priority classes: batching policy --------------------------------

TEST(SloBatchingPolicy, SingleClassPlanIsContiguousAndStampedByItsTrigger) {
  // Randomized monotone single-class trace, all three dispatch policies:
  // every batch is a contiguous run of arrival-order ids no larger than
  // the cap, stamped by the rule that closed it — the arrival that
  // filled it, its head's deadline, or (last batch only) the final
  // arrival at flush. Bursts of short gaps make full batches happen,
  // long gaps make deadlines fire.
  std::mt19937_64 rng(515);
  std::uniform_real_distribution<double> short_gap(0.0, 0.002);
  std::uniform_real_distribution<double> long_gap(0.0, 0.04);
  std::vector<double> arrivals;
  double t = 0;
  for (int i = 0; i < 200; ++i) {
    t += (i / 10) % 2 == 0 ? short_gap(rng) : long_gap(rng);
    arrivals.push_back(t);
  }
  const auto infos = single_class(arrivals);

  for (const serve::BatchPolicy policy :
       {serve::BatchPolicy::kImmediate, serve::BatchPolicy::kFullBatch,
        serve::BatchPolicy::kSloAware}) {
    SCOPED_TRACE(to_string(policy));
    serve::BatcherOptions opt;
    opt.policy = policy;
    opt.max_batch = 5;
    opt.slo_budget_seconds = 0.015;
    const std::size_t cap =
        policy == serve::BatchPolicy::kImmediate ? 1 : opt.max_batch;
    const auto plan = serve::SloBatchingPolicy::plan(infos, opt);

    std::size_t next = 0, filled = 0, expired = 0;
    for (std::size_t k = 0; k < plan.size(); ++k) {
      const std::vector<std::size_t>& members = plan[k].members;
      ASSERT_FALSE(members.empty()) << "batch " << k;
      ASSERT_LE(members.size(), cap) << "batch " << k;
      for (const std::size_t m : members) ASSERT_EQ(m, next++);
      const double head = arrivals[members.front()];
      const double tail = arrivals[members.back()];
      const double stamp = plan[k].dispatch_seconds;
      const bool last = k + 1 == plan.size();
      if (members.size() == cap) {
        EXPECT_EQ(stamp, tail) << "full batch " << k;
        ++filled;
      } else if (last && stamp == arrivals.back()) {
        // Flushed remainder.
      } else {
        ASSERT_EQ(policy, serve::BatchPolicy::kSloAware) << "batch " << k;
        EXPECT_EQ(stamp, head + opt.slo_budget_seconds) << "batch " << k;
        EXPECT_GE(stamp, tail) << "batch " << k;
        // The deadline fired before the next request arrived.
        if (!last) EXPECT_LE(stamp, arrivals[next]) << "batch " << k;
        ++expired;
      }
    }
    EXPECT_EQ(next, arrivals.size());
    EXPECT_GT(filled, 0u);
    if (policy == serve::BatchPolicy::kSloAware) EXPECT_GT(expired, 0u);
  }
}

TEST(SloBatchingPolicy, StrictPriorityHoldsLowClassBackDeterministically) {
  // H0@0.0 H2@0.2 fill a class-0 batch (cap 2) at 0.2 while L1@0.1 is
  // held back by strict priority; H3,H4 fill the next. The held low —
  // alone, so it can never fill a class batch — dispatches only when
  // its own wait budget expires, back-stamped to the deadline.
  serve::BatcherOptions opt;
  opt.policy = serve::BatchPolicy::kSloAware;
  opt.max_batch = 2;
  opt.slo_budget_seconds = 1.0;
  std::vector<serve::ArrivalInfo> infos = {
      {0, 0.0, serve::Priority::kHigh}, {1, 0.1, serve::Priority::kLow},
      {2, 0.2, serve::Priority::kHigh}, {3, 0.3, serve::Priority::kHigh},
      {4, 0.4, serve::Priority::kHigh}, {5, 2.0, serve::Priority::kHigh},
  };
  const auto plan = serve::SloBatchingPolicy::plan(infos, opt);
  ASSERT_EQ(plan.size(), 4u);
  EXPECT_EQ(plan[0].members, (std::vector<std::size_t>{0, 2}));
  EXPECT_DOUBLE_EQ(plan[0].dispatch_seconds, 0.2);
  // The low arrived before H3/H4 but is outranked: they dispatch ahead
  // of it at 0.4 while it keeps waiting.
  EXPECT_EQ(plan[1].members, (std::vector<std::size_t>{3, 4}));
  EXPECT_DOUBLE_EQ(plan[1].dispatch_seconds, 0.4);
  // The held low dispatches at its deadline (0.1 + 1.0), swept when the
  // arrival at 2.0 passes it.
  EXPECT_EQ(plan[2].members, (std::vector<std::size_t>{1}));
  EXPECT_DOUBLE_EQ(plan[2].dispatch_seconds, 1.1);
  // End of stream flushes the remaining high at the last arrival.
  EXPECT_EQ(plan[3].members, (std::vector<std::size_t>{5}));
  EXPECT_DOUBLE_EQ(plan[3].dispatch_seconds, 2.0);

  // Once the highs drain, a full batch of lows is work-conserving:
  // strict priority holds lows back only while higher-class work is
  // pending.
  std::vector<serve::ArrivalInfo> lows_alone = {
      {0, 0.0, serve::Priority::kHigh}, {1, 0.1, serve::Priority::kLow},
      {2, 0.2, serve::Priority::kHigh}, {3, 0.3, serve::Priority::kLow},
  };
  const auto conserving = serve::SloBatchingPolicy::plan(lows_alone, opt);
  ASSERT_EQ(conserving.size(), 2u);
  EXPECT_EQ(conserving[0].members, (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(conserving[1].members, (std::vector<std::size_t>{1, 3}));
  EXPECT_DOUBLE_EQ(conserving[1].dispatch_seconds, 0.3);
}

TEST(SloBatchingPolicy, AgingPromotesStarvingLowIntoEarlyBatch) {
  // kFullBatch, continuous highs, one early low. Without aging the low
  // starves until the end-of-stream flush; with aging it is promoted to
  // the top class and wins a slot by arrival order.
  serve::BatcherOptions opt;
  opt.policy = serve::BatchPolicy::kFullBatch;
  opt.max_batch = 2;
  std::vector<serve::ArrivalInfo> infos = {
      {0, 0.0, serve::Priority::kHigh}, {1, 0.1, serve::Priority::kLow},
      {2, 0.2, serve::Priority::kHigh}, {3, 0.3, serve::Priority::kHigh},
      {4, 0.4, serve::Priority::kHigh},
  };

  const auto strict = serve::SloBatchingPolicy::plan(infos, opt);
  ASSERT_EQ(strict.size(), 3u);
  EXPECT_EQ(strict[0].members, (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(strict[1].members, (std::vector<std::size_t>{3, 4}));
  EXPECT_EQ(strict[2].members, (std::vector<std::size_t>{1}));  // starved

  serve::PriorityOptions aging;
  aging.aging_seconds = 0.05;  // promoted 2 classes after 0.1s of wait
  const auto aged = serve::SloBatchingPolicy::plan(infos, opt, aging);
  ASSERT_EQ(aged.size(), 3u);
  // At 0.2 the low has waited 0.1 = 2 aging intervals: effective class
  // 0, older than H2 -> it takes the second slot of the first batch.
  EXPECT_EQ(aged[0].members, (std::vector<std::size_t>{0, 1}));
  EXPECT_DOUBLE_EQ(aged[0].dispatch_seconds, 0.2);
  EXPECT_EQ(aged[1].members, (std::vector<std::size_t>{2, 3}));
  EXPECT_EQ(aged[2].members, (std::vector<std::size_t>{4}));
}

TEST(SloBatchingPolicy, ValidatesOptionsAndStamps) {
  serve::BatcherOptions opt;
  serve::PriorityOptions bad;
  bad.aging_seconds = 0.0;
  EXPECT_THROW(serve::SloBatchingPolicy(opt, bad), std::invalid_argument);
  bad.aging_seconds = -1.0;
  EXPECT_THROW(serve::SloBatchingPolicy(opt, bad), std::invalid_argument);
  serve::SloBatchingPolicy policy(opt);
  policy.on_arrival({0, 1.0, serve::Priority::kNormal});
  EXPECT_THROW(policy.on_arrival({1, 0.5, serve::Priority::kNormal}),
               std::invalid_argument);
}

// --- Priority classes: queue preemption --------------------------------

TEST(RequestQueue, PriorityPreemptionEvictsNewestLowestClass) {
  serve::QueueOptions qopt;
  qopt.max_depth = 3;
  qopt.priority_preemption = true;
  serve::RequestQueue queue(qopt);
  const auto batch = make_batch(5, 950);

  serve::StreamHandle l0 =
      queue.submit(batch[0], 0.00, serve::Priority::kLow);
  serve::StreamHandle n1 =
      queue.submit(batch[1], 0.01, serve::Priority::kNormal);
  serve::StreamHandle l2 =
      queue.submit(batch[2], 0.02, serve::Priority::kLow);
  EXPECT_EQ(queue.depth(), 3u);

  // A high submission preempts the *newest lowest-class* pending
  // request (l2, not l0); the victim's handle reports AdmissionError.
  serve::StreamHandle h3 =
      queue.submit(batch[3], 0.03, serve::Priority::kHigh);
  EXPECT_EQ(queue.depth(), 3u);
  EXPECT_EQ(queue.rejected(), 1u);
  EXPECT_THROW(l2.get(), serve::AdmissionError);

  // An equal-or-lower class submission cannot preempt: normal vs
  // lowest-pending normal/low... a low incoming finds no strictly
  // lower class and is shed itself.
  EXPECT_THROW(queue.submit(batch[4], 0.04, serve::Priority::kLow),
               serve::AdmissionError);
  EXPECT_EQ(queue.rejected(), 2u);

  // The surviving entries drain in arrival order with their classes.
  serve::PendingRequest pr;
  ASSERT_TRUE(queue.wait_pop(pr));
  EXPECT_EQ(pr.id, l0.id());
  EXPECT_EQ(pr.priority, serve::Priority::kLow);
  ASSERT_TRUE(queue.wait_pop(pr));
  EXPECT_EQ(pr.id, n1.id());
  ASSERT_TRUE(queue.wait_pop(pr));
  EXPECT_EQ(pr.id, h3.id());
  EXPECT_EQ(pr.priority, serve::Priority::kHigh);
}

// --- Priority classes: end-to-end separation ---------------------------

/// Serves an overloaded 3:1 priority mix through a Server: requests at
/// i % 4 == 3 carry `minority`, the rest `majority`. Arrivals outrun
/// capacity by design, so class scheduling — not spare lanes — decides
/// who waits.
serve::StreamReport serve_priority_mix(const ModelFn& model,
                                       const std::vector<SparseTensor>& in,
                                       double gap, double budget,
                                       int workers, int devices,
                                       serve::Priority majority,
                                       serve::Priority minority,
                                       double aging_seconds = 0) {
  serve::ServerConfig cfg;
  cfg.with_device(rtx2080ti())
      .with_engine(torchsparse_config())
      .with_workers(workers)
      .with_devices(devices)
      .with_queue_depth(in.size() + 1);
  serve::BatcherOptions b;
  b.policy = serve::BatchPolicy::kSloAware;
  b.max_batch = 4;
  b.slo_budget_seconds = budget;
  cfg.with_batcher(b);
  if (aging_seconds > 0) {
    serve::PriorityOptions p;
    p.aging_seconds = aging_seconds;
    cfg.with_priority(p);
  }
  serve::Server server(cfg);
  server.start(model);
  for (std::size_t i = 0; i < in.size(); ++i)
    server.submit(in[i], gap * static_cast<double>(i),
                  i % 4 == 3 ? minority : majority);
  return server.drain();
}

TEST(PriorityServe, HighClassP99StrictlyBelowLowClassUnderOverload) {
  const ModelFn model = small_unet(27);
  const DeviceSpec dev = rtx2080ti();
  const EngineConfig cfg = torchsparse_config();
  const SparseTensor probe = random_tensor(150, 12, 4, 1500);
  const double service = run_model(model, probe, dev, cfg).total_seconds();
  ASSERT_GT(service, 0.0);
  const double gap = 0.05 * service;   // heavy overload
  const double budget = 8.0 * gap;

  std::vector<SparseTensor> stream;
  for (int i = 0; i < 32; ++i)
    stream.push_back(random_tensor(150, 12, 4,
                                   1500 + static_cast<uint64_t>(i)));

  const int kHigh = static_cast<int>(serve::Priority::kHigh);
  const int kLow = static_cast<int>(serve::Priority::kLow);
  for (const auto& [workers, devices] :
       std::vector<std::pair<int, int>>{{1, 1}, {2, 1}, {4, 1}, {1, 2},
                                        {2, 2}}) {
    const serve::StreamReport rep = serve_priority_mix(
        model, stream, gap, budget, workers, devices,
        serve::Priority::kLow, serve::Priority::kHigh);
    const serve::PriorityClassStats& high = rep.stats.per_class[kHigh];
    const serve::PriorityClassStats& low = rep.stats.per_class[kLow];
    EXPECT_EQ(high.completed, 8u);
    EXPECT_EQ(low.completed, 24u);
    // The priority contract, at every worker and device count: the
    // high class's modeled tail latency sits strictly below the low
    // class's, on both the queue-wait and end-to-end axes.
    EXPECT_LT(high.e2e_p99_seconds, low.e2e_p99_seconds)
        << "workers=" << workers << " devices=" << devices;
    EXPECT_LT(high.queue_wait_p99_seconds, low.queue_wait_p99_seconds)
        << "workers=" << workers << " devices=" << devices;
  }

  // Deterministic: an identical re-run reproduces the per-class stats
  // bit-for-bit.
  const serve::StreamReport a =
      serve_priority_mix(model, stream, gap, budget, 2, 2,
                         serve::Priority::kLow, serve::Priority::kHigh);
  const serve::StreamReport b =
      serve_priority_mix(model, stream, gap, budget, 2, 2,
                         serve::Priority::kLow, serve::Priority::kHigh);
  for (int c = 0; c < serve::kNumPriorityClasses; ++c) {
    EXPECT_DOUBLE_EQ(a.stats.per_class[c].e2e_p99_seconds,
                     b.stats.per_class[c].e2e_p99_seconds);
    EXPECT_DOUBLE_EQ(a.stats.per_class[c].queue_wait_p99_seconds,
                     b.stats.per_class[c].queue_wait_p99_seconds);
    EXPECT_EQ(a.stats.per_class[c].completed,
              b.stats.per_class[c].completed);
  }
  // Priorities are a scheduling construct: each request's class rides
  // through to its result, and per-class counts partition the stream.
  for (const serve::StreamResult& r : a.requests)
    EXPECT_EQ(r.priority, r.id % 4 == 3 ? serve::Priority::kHigh
                                        : serve::Priority::kLow);
}

TEST(PriorityServe, AgingBoundsLowClassTailUnderOverload) {
  // High-dominated overload (H H H L repeating): without aging the
  // sparse lows are held back behind a steady stream of high-class
  // batches; with aging each low is promoted after 2 aging intervals
  // and wins a slot in an early mixed batch by arrival order.
  const ModelFn model = small_unet(28);
  const DeviceSpec dev = rtx2080ti();
  const EngineConfig cfg = torchsparse_config();
  const SparseTensor probe = random_tensor(150, 12, 4, 1600);
  const double service = run_model(model, probe, dev, cfg).total_seconds();
  const double gap = 0.05 * service;
  const double budget = 40.0 * gap;  // lows never deadline out mid-stream

  std::vector<SparseTensor> stream;
  for (int i = 0; i < 32; ++i)
    stream.push_back(random_tensor(150, 12, 4,
                                   1600 + static_cast<uint64_t>(i)));

  const int kLow = static_cast<int>(serve::Priority::kLow);
  const serve::StreamReport strict = serve_priority_mix(
      model, stream, gap, budget, 2, 1, serve::Priority::kHigh,
      serve::Priority::kLow);
  const serve::StreamReport aged = serve_priority_mix(
      model, stream, gap, budget, 2, 1, serve::Priority::kHigh,
      serve::Priority::kLow, /*aging_seconds=*/2.0 * gap);
  // With aging, promoted lows win batch slots earlier, pulling the low
  // class's queue-wait tail strictly down — no starvation; every
  // request still completes exactly once under both disciplines, and
  // priorities never touch modeled compute.
  EXPECT_LT(aged.stats.per_class[kLow].queue_wait_p99_seconds,
            strict.stats.per_class[kLow].queue_wait_p99_seconds);
  EXPECT_EQ(aged.stats.completed, stream.size());
  EXPECT_EQ(strict.stats.completed, stream.size());
  expect_same_timeline(aged.stats.aggregate, strict.stats.aggregate);

  // Structural view of the same fact: the first batch carrying a low
  // request dispatches strictly earlier (in plan order) with aging on.
  auto first_low_batch = [](const serve::StreamReport& rep) {
    std::size_t first = rep.batches.size();
    for (const serve::StreamResult& r : rep.requests)
      if (r.priority == serve::Priority::kLow)
        first = std::min(first, r.batch_id);
    return first;
  };
  EXPECT_LT(first_low_batch(aged), first_low_batch(strict));
}

// --- Context reuse hook ------------------------------------------------

TEST(ResetContext, ReusedContextMatchesFreshContextBitForBit) {
  const ModelFn model = small_unet(26);
  const SparseTensor x = random_tensor(140, 12, 4, 1400);
  const DeviceSpec dev = rtx2080ti();
  const EngineConfig cfg = torchsparse_config();
  RunOptions opt;
  opt.numerics = true;

  ExecContext reused = make_run_context(dev, cfg, opt);
  const Timeline first = run_in_context(model, x, reused);
  reset_context(reused);
  const Timeline second = run_in_context(model, x, reused);
  expect_same_timeline(first, second);

  const Timeline fresh = run_model(model, x, dev, cfg, opt);
  expect_same_timeline(second, fresh);
}

// --- Per-model stream statistics --------------------------------------

TEST(PerModelStats, InvariantAcrossWorkerAndDeviceCounts) {
  // StreamStats::per_model mirrors per_class: a deterministic function
  // of the (input, arrival, priority, model) stream and the config.
  // `workers` is a modeled lanes-per-device knob, so wait/e2e
  // percentiles legitimately shift with it under contention — what IS
  // invariant across worker counts are the count-type stats (the same
  // contract ServeEquivalence pins for the aggregate stream). Repeat
  // runs of one config must match bit-for-bit, percentiles included.
  const ModelFn seg = small_unet(61);
  const ModelFn det = small_unet(62);
  const auto batch = make_batch(10, 6100);
  auto serve_with = [&](int workers, int devices) {
    serve::ServerConfig cfg;
    cfg.with_device(rtx2080ti())
        .with_engine(torchsparse_config())
        .with_workers(workers)
        .with_map_cache_bytes(std::size_t(64) << 20)
        .with_queue_depth(batch.size() + 1)
        .with_devices(devices)
        .with_route(serve::RoutePolicy::kCacheAffinity)
        .with_model("seg", seg)
        .with_model("det", det);
    serve::Server server(cfg);
    server.start();
    for (std::size_t i = 0; i < batch.size(); ++i)
      server.submit_to(static_cast<int>(i % 2), batch[i],
                       0.001 * static_cast<double>(i),
                       i % 3 == 0 ? serve::Priority::kHigh
                                  : serve::Priority::kNormal);
    return server.drain();
  };
  for (const int devices : {1, 2}) {
    const serve::StreamReport w1 = serve_with(1, devices);
    const serve::StreamReport w4 = serve_with(4, devices);
    const serve::StreamReport w4b = serve_with(4, devices);
    ASSERT_EQ(w1.stats.per_model.size(), 2u);
    ASSERT_EQ(w4.stats.per_model.size(), 2u);
    ASSERT_EQ(w4b.stats.per_model.size(), 2u);
    for (std::size_t m = 0; m < 2; ++m) {
      const serve::ModelStats& a = w1.stats.per_model[m];
      const serve::ModelStats& b = w4.stats.per_model[m];
      EXPECT_EQ(a.model, b.model);
      EXPECT_EQ(a.completed, b.completed);
      EXPECT_EQ(a.failed, b.failed);
      EXPECT_EQ(a.retries, b.retries);
      EXPECT_EQ(a.rejected, b.rejected);
      EXPECT_EQ(a.cache_hits, b.cache_hits);
      EXPECT_EQ(a.cache_lookups, b.cache_lookups);
      EXPECT_EQ(a.completed, 5u);

      const serve::ModelStats& c = w4b.stats.per_model[m];
      EXPECT_EQ(b.model, c.model);
      EXPECT_EQ(b.completed, c.completed);
      EXPECT_EQ(b.failed, c.failed);
      EXPECT_EQ(b.retries, c.retries);
      EXPECT_EQ(b.rejected, c.rejected);
      EXPECT_EQ(b.cache_hits, c.cache_hits);
      EXPECT_EQ(b.cache_lookups, c.cache_lookups);
      EXPECT_DOUBLE_EQ(b.queue_wait_p50_seconds, c.queue_wait_p50_seconds);
      EXPECT_DOUBLE_EQ(b.queue_wait_p90_seconds, c.queue_wait_p90_seconds);
      EXPECT_DOUBLE_EQ(b.queue_wait_p99_seconds, c.queue_wait_p99_seconds);
      EXPECT_DOUBLE_EQ(b.e2e_p50_seconds, c.e2e_p50_seconds);
      EXPECT_DOUBLE_EQ(b.e2e_p90_seconds, c.e2e_p90_seconds);
      EXPECT_DOUBLE_EQ(b.e2e_p99_seconds, c.e2e_p99_seconds);
    }
  }
}

TEST(PerModelStats, AdmissionRejectionsAreSplitByModel) {
  const auto batch = make_batch(5, 6200);
  std::vector<serve::ModelEntry> models(2);
  models[0].name = "a";
  models[0].fn = small_unet(63);
  models[1].name = "b";
  models[1].fn = small_unet(64);

  serve::QueueOptions qopt;
  qopt.max_depth = 4;
  serve::RequestQueue queue(qopt);
  queue.submit(batch[0], 0.000, serve::Priority::kNormal, /*model=*/0);
  queue.submit(batch[1], 0.001, serve::Priority::kNormal, /*model=*/1);
  queue.submit(batch[2], 0.002, serve::Priority::kNormal, /*model=*/0);
  queue.submit(batch[3], 0.003, serve::Priority::kNormal, /*model=*/1);
  // Depth-capped: the fifth submission sheds, charged to ITS model.
  EXPECT_EQ(queue.try_submit(batch[4], 0.004, serve::Priority::kNormal,
                             /*model=*/1),
            std::nullopt);
  queue.close();

  serve::ServerConfig cfg;
  cfg.with_device(rtx2080ti()).with_engine(torchsparse_config());
  serve::SloBatchingPolicy batching(cfg.batcher, cfg.priority,
                                    serve::model_batching_infos(models));
  const auto routing = serve::make_routing_policy(cfg.shard.route);
  const serve::StreamReport report =
      serve::serve_stream(models, queue, cfg, batching, *routing);

  EXPECT_EQ(report.stats.rejected, 1u);
  ASSERT_EQ(report.stats.per_model.size(), 2u);
  EXPECT_EQ(report.stats.per_model[0].completed, 2u);
  EXPECT_EQ(report.stats.per_model[1].completed, 2u);
  EXPECT_EQ(report.stats.per_model[0].rejected, 0u);
  EXPECT_EQ(report.stats.per_model[1].rejected, 1u);
}

}  // namespace
}  // namespace ts
