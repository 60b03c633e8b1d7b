// The serving layer's modeled report types and statistics helpers.
//
// Every serving path — streaming sessions, the zero-arrival fixed-batch
// session behind Server::run_batch, and the one-shot
// schedule_stream_dispatch sweeps — reports with the StreamReport types
// declared here. All serving statistics are modeled: arrivals, batch
// dispatch times, lane assignment and completion times live on a
// deterministic modeled clock, so throughput and latency percentiles are
// reproducible across runs and machines regardless of thread
// interleaving.
//
// Every serve-side percentile (queue wait and e2e, overall and per class
// or model) goes through one audited nearest-rank implementation rather
// than per-call-site copies, so edge behavior (q = 0, q = 1,
// single-sample inputs) is defined — and unit-tested — in exactly one
// place (tests/test_serve.cpp).
#pragma once

#include <cstddef>
#include <vector>

#include "core/kernel_map_cache.hpp"
#include "gpusim/timeline.hpp"
#include "serve/device_group.hpp"
#include "serve/priority.hpp"
#include "serve/request_queue.hpp"

namespace ts::serve {

/// One priority class's modeled latency outcome within a served stream
/// (StreamStats::per_class). Percentiles are over the class's own
/// requests; zeros when the class saw no traffic. Deterministic and
/// worker-count invariant like every other modeled serve statistic.
struct PriorityClassStats {
  Priority priority = Priority::kNormal;
  std::size_t completed = 0;
  /// Admitted-but-failed requests in this class (typed ServeErrorCode
  /// results: retries exhausted, no healthy device, deadline shed).
  std::size_t failed = 0;
  /// Extra placement attempts fault losses forced on this class's
  /// served requests (sum of attempts - 1).
  std::size_t retries = 0;
  double queue_wait_p50_seconds = 0;
  double queue_wait_p90_seconds = 0;
  double queue_wait_p99_seconds = 0;
  double e2e_p50_seconds = 0;
  double e2e_p90_seconds = 0;
  double e2e_p99_seconds = 0;
};

/// One model's modeled outcome within a served stream
/// (StreamStats::per_model) — the per-model mirror of
/// PriorityClassStats, extended with the admission and cache-warmth
/// counters a multi-model operator watches per tenant. Percentiles are
/// over the model's own requests; zeros when the model saw no traffic.
/// Deterministic and worker-count invariant like every other modeled
/// serve statistic.
struct ModelStats {
  /// Registry index this entry describes (position in per_model).
  int model = 0;
  std::size_t completed = 0;
  /// Admitted-but-failed requests (typed ServeErrorCode results).
  std::size_t failed = 0;
  /// Extra placement attempts fault losses forced on this model's
  /// served requests (sum of attempts - 1).
  std::size_t retries = 0;
  /// Admission-control rejections of this model's submissions
  /// (RequestQueue::rejected_by_model).
  std::size_t rejected = 0;
  /// Deterministic kernel-map cache outcome over this model's requests:
  /// warm lookups vs all lookups under the submission-order replay.
  /// Namespaced digests make these counters tenant-true — another
  /// model's identical input can never inflate a model's warm hits.
  std::size_t cache_hits = 0;
  std::size_t cache_lookups = 0;
  double queue_wait_p50_seconds = 0;
  double queue_wait_p90_seconds = 0;
  double queue_wait_p99_seconds = 0;
  double e2e_p50_seconds = 0;
  double e2e_p90_seconds = 0;
  double e2e_p99_seconds = 0;
};

/// One dispatched batch's slot in the modeled schedule.
struct StreamBatchRecord {
  std::size_t batch_id = 0;
  std::size_t first = 0;          // first request id in the batch
  std::size_t size = 0;
  double dispatch_seconds = 0;    // when the batcher released it
  double start_seconds = 0;       // max(dispatch, lane free) on its lane
  double finish_seconds = 0;      // last member's completion
  int lane = 0;                   // worker lane it ran on (within device)
  int device = 0;                 // device shard it was routed to
  /// Registry index of the model the whole batch ran under (batches
  /// never mix models; 0 on single-model streams).
  int model = 0;
  /// Placement attempts this batch took (1 = no shard failure ever
  /// touched it; > 1 = redispatched after fault losses). The record
  /// describes the attempt that finally served the batch.
  int attempts = 1;
};

struct StreamStats {
  std::size_t completed = 0;
  std::size_t rejected = 0;        // admission-control rejections
  /// Requests admitted but not served: resolved with a ServeErrorCode
  /// (retries exhausted or no healthy device, which need a FaultPlan;
  /// or a deadline-hopeless shed, which any finite
  /// FaultToleranceOptions::degrade_deadline_seconds can cause, with or
  /// without a plan). 0 with no plan and unbounded deadlines.
  std::size_t failed = 0;
  /// Sum of per-request (attempts - 1) over served requests — every
  /// extra placement attempt a fault forced.
  std::size_t retries = 0;
  /// Batches that were re-placed at least once after a shard failure.
  std::size_t redispatched_batches = 0;
  /// Fault activations the injector applied during the stream.
  std::size_t faults_injected = 0;
  /// p99 of the modeled redispatch penalty (final placement start minus
  /// first-attempt placement start, on the worker-invariant shadow
  /// clock) over requests that retried; 0 when none did.
  double retry_wait_p99_seconds = 0;
  std::size_t batches = 0;
  double mean_batch_size = 0;
  int workers = 1;
  double makespan_seconds = 0;     // last finish - first arrival
  double throughput_fps = 0;       // completed / makespan
  double queue_wait_p50_seconds = 0;  // arrival -> batch-execution-start
  double queue_wait_p90_seconds = 0;  //   percentiles (the SLO-bounded
  double queue_wait_p99_seconds = 0;  //   quantity; see StreamResult)
  double e2e_p50_seconds = 0;         // finish - arrival percentiles
  double e2e_p90_seconds = 0;
  double e2e_p99_seconds = 0;
  double mean_service_seconds = 0;
  Timeline aggregate;              // sum of all request timelines
  /// Per-priority-class latency percentiles (size kNumPriorityClasses,
  /// indexed by static_cast<int>(Priority); zero counts for classes
  /// that saw no traffic). Single-class streams put everything in the
  /// submitting class's entry.
  std::vector<PriorityClassStats> per_class;
  /// Per-model modeled outcome (size == the session's registry size; 1
  /// on single-model streams, where entry 0 mirrors the stream totals).
  /// Latency percentiles, admission rejections, and namespaced cache
  /// warmth per model — the tenant-facing view of a shared fleet.
  std::vector<ModelStats> per_model;
  /// Deterministic (submission-order replay) kernel-map cache outcome
  /// summed over all device shards; zeros when the cache is disabled.
  MapCacheReplayStats map_cache;
  /// Device shards the stream was served on (1 = unsharded).
  int devices = 1;
  /// Per-device modeled outcome (size == devices): routed batch/request
  /// counts, busy/free clocks, utilization, and the shard's own
  /// kernel-map cache accounting. Deterministic and worker-count
  /// independent, like every other modeled stat.
  std::vector<DeviceShardStats> per_device;
};

struct StreamReport {
  std::vector<StreamResult> requests;       // in submission order
  std::vector<StreamBatchRecord> batches;   // in dispatch order
  StreamStats stats;
};

/// The per-request half of StreamStats, folded from final results: a
/// scheduler add()s each request once, the moment it is served or fails,
/// and write()s at the end. Schedule-level numbers (batch counts,
/// makespan, per-device clocks, fault activations, cache replay) stay
/// with the scheduler.
class StreamStatsFold {
 public:
  /// `num_models` sizes per_model (clamped to >= 1); every folded
  /// result's model must index it.
  explicit StreamStatsFold(int num_models = 1);

  /// Folds one final result: its queue wait, e2e, retry wait,
  /// `attempts - 1` retries, error, priority, model, timeline and
  /// service time. The service and timeline sums are floating point,
  /// so add() order is part of the output.
  void add(const StreamResult& r);

  std::size_t completed() const { return total_.waits.size(); }
  std::size_t failed() const { return total_.failed; }

  /// Writes completed, failed, retries and the six percentiles of the
  /// totals and of every per_class and per_model entry (resized and
  /// labelled here), plus retry_wait_p99_seconds, mean_service_seconds
  /// and aggregate. Leaves every other field untouched.
  void write(StreamStats& s) const;

 private:
  /// One reporting scope: the stream, a priority class or a model.
  struct Scope {
    std::vector<double> waits, e2es;  // served requests only
    std::size_t failed = 0;
    std::size_t retries = 0;
  };

  Scope total_;
  std::vector<Scope> classes_;
  std::vector<Scope> models_;
  std::vector<double> retry_waits_;  // served requests that retried
  double sum_service_ = 0;
  Timeline aggregate_;
};

/// Nearest-rank percentile of an ascending-sorted sample.
///
/// Definition: the smallest element whose rank r (1-based) satisfies
/// r >= q * n, i.e. sorted[max(ceil(q * n), 1) - 1]. Consequences the
/// call sites rely on:
///  * q = 0 returns the minimum (rank clamps up to 1);
///  * q = 1 returns the maximum (rank n, never past the end);
///  * a single-sample input returns that sample for every q;
///  * an empty sample returns 0.0 (there is nothing to report).
/// Preconditions (std::invalid_argument): q is finite and within
/// [0, 1]; `sorted` must already be ascending (not validated — callers
/// sort once and query three percentiles).
double percentile(const std::vector<double>& sorted, double q);

}  // namespace ts::serve
