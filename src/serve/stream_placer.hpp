// The modeled placer behind every serving path. Internal to src/serve:
// serve_stream (serve_stream.cpp) and schedule_stream_dispatch
// (stream_placer.cpp) are its only callers; everything outside the
// directory goes through server.hpp.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/kernel_map_cache.hpp"
#include "serve/device_group.hpp"
#include "serve/fault.hpp"
#include "serve/request_queue.hpp"
#include "serve/serve_policies.hpp"
#include "serve/serve_stats.hpp"

namespace ts::serve {

using RequestAt = std::function<StreamResult&(std::size_t)>;
/// A request's recorded kernel-map cache events; null when the cache is
/// disabled.
using EventsAt = std::function<const std::vector<MapCacheEvent>*(std::size_t)>;

/// The batch contract both entry points enforce before a batch is
/// placed: members non-empty, each one in range, dispatched once,
/// arrived by the dispatch stamp and targeting the batch's model.
/// Marks the members in `assigned` (parallel to `requests`). Throws
/// std::invalid_argument prefixed with `who`.
template <class Requests, class Assigned>
void claim_batch(const char* who, const DispatchBatch& b,
                 const Requests& requests, Assigned& assigned) {
  const auto reject = [who](const std::string& why) {
    throw std::invalid_argument(std::string(who) + ": " + why);
  };
  if (b.members.empty()) reject("empty batch");
  for (const std::size_t m : b.members) {
    if (m >= requests.size() || assigned[m])
      reject("each request must be dispatched exactly once");
    if (requests[m].arrival_seconds > b.dispatch_seconds)
      reject("batch dispatched before member arrival");
    if (requests[m].model != b.model)
      reject("batch for model " + std::to_string(b.model) + " holds member " +
             std::to_string(m) + " of model " +
             std::to_string(requests[m].model));
    assigned[m] = 1;
  }
}

/// One batch at a time, in dispatch order: fault events due by its
/// dispatch stamp -> health-aware route -> per-device cache accounting
/// -> lane placement -> finalization, folding every final result into
/// the stream statistics. This is the single scheduler body behind both
/// the one-shot schedule_stream_dispatch and the incremental
/// serve_stream core.
///
/// Device churn is the normal case, so the placer always runs with a
/// FaultInjector. With an empty plan it has no events: every shard is
/// UP, service factors are exactly 1.0, and no batch is ever
/// vulnerable, so each batch finalizes the moment it is placed.
///
///  * Every fault decision — which batches a fault kills, retry
///    stamps, shed projections, retry_wait penalties — runs on a
///    per-device *shadow clock* (`shadow_free_`): the single-lane
///    modeled schedule a one-worker device would follow. Real lane
///    state varies with the worker count; the shadow clock depends
///    only on the routed batch sequence, so every fault-relevant
///    statistic stays worker-count invariant (tests/test_fault.cpp).
///  * Finalization is deferred: a placed batch's results ship (and its
///    members' promises fulfill, via `on_final`) only once no pending
///    crash/stall on its device can still activate before its shadow
///    finish (FaultInjector::vulnerable).
///  * Cache events replay on the *first* attempt only: a retried batch
///    keeps its attempt-1 modeled service times. Replaying again would
///    double-apply the warm-hit deltas to member timelines; modeling
///    the retry's mapping work as already-done is the documented
///    choice (docs/SERVING.md).
class StreamPlacer {
 public:
  /// `events_at` returns null for every request when the cache is
  /// disabled. `on_final` (optional) fires per member, in batch-member
  /// order, the moment that member's result is final: at placement, at
  /// deferred finalization, or with a typed failure. `injector` must
  /// outlive the placer.
  StreamPlacer(DeviceGroup& group, RoutingPolicy& routing,
               int workers_per_device, double batch_overhead_seconds,
               RequestAt request_at, EventsAt events_at,
               FaultInjector& injector,
               std::function<void(std::size_t)> on_final = {},
               int num_models = 1);
  ~StreamPlacer();
  StreamPlacer(const StreamPlacer&) = delete;
  StreamPlacer& operator=(const StreamPlacer&) = delete;

  /// Consumes the next batch in dispatch order (caller guarantees the
  /// batch passed claim_batch, every member is measured and every
  /// earlier batch was fed): first processes every fault event and due
  /// retry up to the batch's dispatch stamp, then places (or
  /// sheds/defers) it. Batches no pending fault can kill are final on
  /// return.
  void feed(const DispatchBatch& b);

  /// End-of-stream drain: after the last batch is fed, runs the
  /// remaining fault events and retries to quiescence so every admitted
  /// request is either served or carries a typed failure.
  void finish_stream();

  /// Requests with a final outcome: served + typed failures. The
  /// end-of-stream coverage check compares this against the drained
  /// count.
  std::size_t accounted_requests() const {
    return fold_.completed() + fold_.failed();
  }

  /// Final batch records, sorted by batch id (deferred finalization can
  /// finalize out of dispatch order). Fully-failed batches produce no
  /// record.
  std::vector<StreamBatchRecord> batch_records() const;

  /// Stream statistics over everything final so far. `first_arrival`
  /// is the first drained request's stamp (the makespan origin).
  StreamStats finalize(double first_arrival);

 private:
  /// A batch placed on real lanes whose outcome is not yet final: a
  /// pending crash/stall on its device could still kill it. Keyed by
  /// batch id in `live_`.
  struct Live {
    std::vector<std::size_t> members;
    std::vector<double> services;  // device-local, fault-factor scaled
    double dispatch = 0;           // first dispatch stamp (d0)
    double first_vstart = 0;       // shadow start of attempt 1
    double vstart = 0;             // shadow start of this attempt
    double vfinish = 0;            // shadow finish of this attempt
    double start = 0;              // real lane start
    int lane = 0;
    int device = 0;
    int attempts = 1;
  };
  /// A lost (or capacity-deferred) batch waiting for its redispatch
  /// stamp. Keyed by (due stamp, batch id) — modeled-time order with
  /// the dispatch-order tie-break.
  struct Retry {
    std::vector<std::size_t> members;
    double dispatch = 0;
    int attempts_done = 0;
    double first_vstart = 0;
  };

  int route_batch(std::size_t id, const std::vector<std::size_t>& members,
                  double dispatch_seconds);
  void replay_members(int dev, const std::vector<std::size_t>& members);
  void finalize_placed(std::size_t id, const Live& lv);
  void process_until(double now, long long k);
  void handle_event(const FaultEvent& e);
  void attempt_place(std::size_t id, const std::vector<std::size_t>& members,
                     double d0, double t, int n, double first_vstart);
  void finalize_sweep();
  void fail_members(const std::vector<std::size_t>& members,
                    ServeErrorCode code, const std::string& detail,
                    int attempts_so_far, std::size_t id, int device);

  DeviceGroup& group_;
  RoutingPolicy& routing_;
  int workers_;
  double overhead_;
  RequestAt request_at_;
  EventsAt events_at_;
  FaultInjector& injector_;
  std::function<void(std::size_t)> on_final_;
  std::size_t next_batch_id_ = 0;
  std::size_t placed_batches_ = 0;
  std::vector<StreamBatchRecord> records_;
  /// Every final result, folded in finalization order.
  StreamStatsFold fold_;
  /// Per-model cache replay counters, parallel to the registry: only
  /// the replay sees individual lookups.
  std::vector<std::size_t> model_cache_hits_, model_cache_lookups_;
  double last_finish_ = 0;
  // Fault state. Every quantity here lives on the shadow clock /
  // dispatch order, never on real lane state — the worker-invariance
  // pillar.
  std::vector<double> shadow_free_;  // per-device single-lane cursor
  std::map<std::size_t, Live> live_;
  std::map<std::pair<double, std::size_t>, Retry> retries_;
  std::size_t redispatched_batches_ = 0;
};

}  // namespace ts::serve
