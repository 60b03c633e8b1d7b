#include "serve/stream_placer.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "serve/server.hpp"

namespace ts::serve {

StreamPlacer::StreamPlacer(DeviceGroup& group, RoutingPolicy& routing,
                           int workers_per_device,
                           double batch_overhead_seconds, RequestAt request_at,
                           EventsAt events_at, FaultInjector& injector,
                           std::function<void(std::size_t)> on_final,
                           int num_models)
    : group_(group),
      routing_(routing),
      workers_(std::max(workers_per_device, 1)),
      overhead_(batch_overhead_seconds),
      request_at_(std::move(request_at)),
      events_at_(std::move(events_at)),
      injector_(injector),
      on_final_(std::move(on_final)),
      fold_(num_models),
      model_cache_hits_(static_cast<std::size_t>(std::max(num_models, 1))),
      model_cache_lookups_(model_cache_hits_.size()) {
  if (!std::isfinite(overhead_) || overhead_ < 0)
    throw std::invalid_argument(
        "serve: batch_overhead_seconds must be finite and >= 0");
  group_.begin_schedule(workers_);
  injector_.reset();
  shadow_free_.assign(static_cast<std::size_t>(group_.size()), 0.0);
  group_.attach_fault_injector(&injector_);
}

StreamPlacer::~StreamPlacer() { group_.attach_fault_injector(nullptr); }

void StreamPlacer::feed(const DispatchBatch& b) {
  const std::size_t id = next_batch_id_++;
  process_until(b.dispatch_seconds, static_cast<long long>(id));
  attempt_place(id, b.members, b.dispatch_seconds, b.dispatch_seconds, 1,
                0.0);
  finalize_sweep();
}

void StreamPlacer::finish_stream() {
  // Dispatch-indexed faults whose batch never came can no longer fire;
  // every other event and retry runs to quiescence.
  injector_.end_of_plan();
  process_until(std::numeric_limits<double>::infinity(), -1);
}

std::vector<StreamBatchRecord> StreamPlacer::batch_records() const {
  std::vector<StreamBatchRecord> recs = records_;
  std::sort(recs.begin(), recs.end(),
            [](const StreamBatchRecord& a, const StreamBatchRecord& b) {
              return a.batch_id < b.batch_id;
            });
  return recs;
}

StreamStats StreamPlacer::finalize(double first_arrival) {
  StreamStats s;
  fold_.write(s);
  s.workers = workers_;
  s.devices = group_.size();
  s.batches = placed_batches_;
  s.redispatched_batches = redispatched_batches_;
  s.faults_injected = injector_.activations();
  // Per-model rejections are the caller's to fill: only the admission
  // queue knows them.
  for (std::size_t m = 0; m < s.per_model.size(); ++m) {
    s.per_model[m].cache_hits = model_cache_hits_[m];
    s.per_model[m].cache_lookups = model_cache_lookups_[m];
  }
  if (s.completed > 0) {
    s.mean_batch_size = static_cast<double>(s.completed) /
                        static_cast<double>(placed_batches_);
    s.makespan_seconds = last_finish_ - first_arrival;
    s.throughput_fps =
        s.makespan_seconds > 0
            ? static_cast<double>(s.completed) / s.makespan_seconds
            : 0.0;
  }

  // Per-device clocks and the group-wide cache summary.
  s.per_device.resize(static_cast<std::size_t>(group_.size()));
  for (int d = 0; d < group_.size(); ++d) {
    DeviceShardStats& ds = group_.stats(d);
    ds.map_cache = group_.cache(d).stats();
    ds.free_seconds = group_.lane_high_water(d);
    ds.utilization =
        s.makespan_seconds > 0
            ? ds.busy_seconds /
                  (static_cast<double>(s.workers) * s.makespan_seconds)
            : 0.0;
    s.map_cache.lookups += ds.map_cache.lookups;
    s.map_cache.hits += ds.map_cache.hits;
    s.map_cache.misses += ds.map_cache.misses;
    s.map_cache.evictions += ds.map_cache.evictions;
    s.map_cache.modeled_seconds_saved += ds.map_cache.modeled_seconds_saved;
    s.per_device[static_cast<std::size_t>(d)] = ds;
  }
  return s;
}

/// Routes one batch, enforcing the policy's device-range contract.
/// Policy inputs (accumulated modeled work, modeled cache ownership,
/// members' reference-device measurements) are independent of lane
/// count, so routing — and with it every per-device cache decision —
/// is worker-count invariant. On a batch's first attempt the members'
/// timelines are still their cold measurements (cache replay runs
/// after routing), so estimate-based policies see the same inputs
/// cached or not.
int StreamPlacer::route_batch(std::size_t id,
                              const std::vector<std::size_t>& members,
                              double dispatch_seconds) {
  const int dev = routing_.route(
      RouteQuery{id, members, dispatch_seconds, events_at_,
                 [this](std::size_t m) {
                   return request_at_(m).service_seconds;
                 },
                 [this](std::size_t m) -> const Timeline* {
                   return &request_at_(m).timeline;
                 }},
      group_);
  if (dev < 0 || dev >= group_.size())
    throw std::invalid_argument(
        "serve: routing policy returned device " + std::to_string(dev) +
        " outside [0, " + std::to_string(group_.size()) + ")");
  return dev;
}

/// Per-device deterministic cache accounting: replays the members'
/// recorded resolutions (in batch-member order) through the routed
/// device's modeled cache, which applies the warm-hit delta on hits and
/// keeps the group's digest->owner index in step. A member without
/// events (cache disabled) keeps the service time its caller measured
/// or supplied.
void StreamPlacer::replay_members(int dev,
                                  const std::vector<std::size_t>& members) {
  for (const std::size_t m : members) {
    const std::vector<MapCacheEvent>* evs = events_at_(m);
    if (!evs) continue;
    StreamResult& r = request_at_(m);
    // Callers guarantee r.model indexes the registry (validated at the
    // feed boundary); namespaced keys make these per-model counters
    // tenant-true.
    const std::size_t mdl = static_cast<std::size_t>(r.model);
    model_cache_lookups_[mdl] += evs->size();
    model_cache_hits_[mdl] += group_.record_lookup(dev, *evs, r.timeline);
    r.service_seconds = r.timeline.total_seconds();
  }
}

/// Ships one placed batch's final results: fills every member's
/// schedule fields, folds it into the stats, records the batch, and
/// fires on_final per member. The retry wait is the worker-invariant
/// shadow-clock start delta between the final and first attempts.
void StreamPlacer::finalize_placed(std::size_t id, const Live& lv) {
  double cursor = lv.start + overhead_;
  std::size_t si = 0;
  for (const std::size_t m : lv.members) {
    StreamResult& r = request_at_(m);
    r.start_seconds = cursor;
    r.finish_seconds = cursor + lv.services[si];
    cursor = r.finish_seconds;
    ++si;
    // Queue wait ends when the *batch* starts executing; the once-per-
    // batch overhead and batch-mates ahead of this request are part of
    // the (batched) run phase, not the queue. This is what the SLO
    // budget bounds: with free lanes, wait <= slo_budget_seconds by
    // construction of the batcher's deadline rule.
    r.queue_wait_seconds = lv.start - r.arrival_seconds;
    r.e2e_seconds = r.finish_seconds - r.arrival_seconds;
    r.batch_id = id;
    r.batch_size = lv.members.size();
    r.device = lv.device;
    r.attempts = lv.attempts;
    r.retry_wait_seconds = lv.vstart - lv.first_vstart;
    fold_.add(r);
    if (on_final_) on_final_(m);
  }
  last_finish_ = std::max(last_finish_, cursor);
  records_.push_back(StreamBatchRecord{
      id, lv.members.front(), lv.members.size(), lv.dispatch, lv.start,
      cursor, lv.lane, lv.device, request_at_(lv.members.front()).model,
      lv.attempts});
  ++placed_batches_;
}

// -- Fault event loop --------------------------------------------------

/// Processes every fault event and due retry with a stamp <= `now`
/// (the next batch's dispatch stamp, or infinity at end of stream), in
/// modeled-time order with recoveries before activations before retries
/// on ties. `k` is the dispatch index about to happen, so a
/// dispatch-indexed fault on batch #k activates here, before that batch
/// routes.
void StreamPlacer::process_until(double now, long long k) {
  for (;;) {
    const double rs = retries_.empty()
                          ? std::numeric_limits<double>::infinity()
                          : retries_.begin()->first.first;
    FaultEvent e;
    if (injector_.pop_event(std::min(now, rs), k, now, &e)) {
      handle_event(e);
    } else if (!retries_.empty() && rs <= now) {
      const auto it = retries_.begin();
      const std::size_t id = it->first.second;
      Retry r = std::move(it->second);
      retries_.erase(it);
      injector_.advance(rs);
      attempt_place(id, r.members, r.dispatch, rs, r.attempts_done + 1,
                    r.first_vstart);
    } else {
      break;
    }
    finalize_sweep();
  }
  injector_.advance(now);
  finalize_sweep();
}

void StreamPlacer::handle_event(const FaultEvent& e) {
  if (e.type == FaultEvent::Type::kRecovery) {
    // Outage over: real lanes rebase to the recovery stamp (a crash's
    // replacement shard additionally warm-seeds from the snapshot
    // manifest), and the shadow clock restarts there too — everything
    // the outage had in flight was already re-enqueued.
    group_.revive_shard(e.device, e.stamp, e.replacement);
    shadow_free_[static_cast<std::size_t>(e.device)] = e.stamp;
    return;
  }
  if (e.kind == FaultKind::kSlowdown) return;  // degrades, kills nothing
  if (e.kind == FaultKind::kCrash) group_.invalidate_shard_cache(e.device);
  // Re-enqueue (or fail) every live batch on the device whose shadow
  // finish the outage overruns.
  const FaultToleranceOptions& opt = injector_.options();
  for (auto it = live_.begin(); it != live_.end();) {
    Live& lv = it->second;
    if (lv.device != e.device || lv.vfinish <= e.stamp) {
      ++it;
      continue;
    }
    const std::size_t id = it->first;
    const int next = lv.attempts + 1;
    if (next > opt.max_attempts) {
      fail_members(lv.members, ServeErrorCode::kRetriesExhausted,
                   "batch " + std::to_string(id) +
                       " lost to a device fault on attempt " +
                       std::to_string(lv.attempts) + " of " +
                       std::to_string(opt.max_attempts),
                   lv.attempts, id, e.device);
    } else {
      // Modeled exponential backoff: retry n waits backoff * 2^(n-2)
      // after the loss (ldexp keeps the doubling exact in binary).
      const double wait = opt.retry_backoff_seconds > 0
                              ? std::ldexp(opt.retry_backoff_seconds, next - 2)
                              : 0.0;
      retries_.emplace(std::make_pair(e.stamp + wait, id),
                       Retry{std::move(lv.members), lv.dispatch, lv.attempts,
                             lv.first_vstart});
    }
    it = live_.erase(it);
  }
}

/// Attempt `n` to place batch `id` at modeled time `t` (`d0` is its
/// original dispatch stamp). Routes health-aware, sheds deadline-
/// hopeless members, scales services by the routed shard's fault
/// factor, places on real lanes, and registers the batch as live.
void StreamPlacer::attempt_place(std::size_t id,
                                 const std::vector<std::size_t>& members,
                                 double d0, double t, int n,
                                 double first_vstart) {
  if (!injector_.any_routable()) {
    // Whole-fleet outage: park the batch until the earliest recovery
    // without consuming an attempt (nothing was tried), or fail it
    // when every outage is permanent.
    const double er = injector_.earliest_recovery();
    if (!std::isfinite(er)) {
      fail_members(members, ServeErrorCode::kNoHealthyDevice,
                   "every device shard is down with no pending recovery",
                   n - 1, id, -1);
      return;
    }
    retries_.emplace(std::make_pair(er, id),
                     Retry{members, d0, n - 1, first_vstart});
    return;
  }
  int dev = route_batch(id, members, t);
  // The routing contract never required health awareness; a DOWN
  // answer (round-robin, custom policies) falls back to the
  // health-aware least-loaded survivor.
  if (group_.health(dev) == ShardHealth::kDown) dev = group_.least_loaded();

  // Graceful degradation: project the batch's start on the routed
  // shard's shadow clock; members whose class deadline is already
  // blown resolve now with a typed shed instead of consuming the
  // surviving capacity the unexpired classes need.
  const double vstart =
      std::max(t, shadow_free_[static_cast<std::size_t>(dev)]);
  const std::array<double, kNumPriorityClasses>& deadlines =
      injector_.options().degrade_deadline_seconds;
  std::vector<std::size_t> kept, shed;
  for (const std::size_t m : members) {
    const StreamResult& r = request_at_(m);
    const double dl = deadlines[static_cast<std::size_t>(r.priority)];
    if (std::isfinite(dl) && vstart - r.arrival_seconds > dl)
      shed.push_back(m);
    else
      kept.push_back(m);
  }
  if (!shed.empty())
    fail_members(shed, ServeErrorCode::kDeadlineHopeless,
                 "projected batch start exceeds the class degrade "
                 "deadline",
                 n - 1, id, dev);
  if (kept.empty()) return;

  // Cache events replay on the first attempt only (see class doc).
  if (n == 1) replay_members(dev, kept);

  std::vector<double> services;
  services.reserve(kept.size());
  const double factor = injector_.service_factor(dev);
  for (const std::size_t m : kept)
    services.push_back(routing_.device_service_estimate(
                           dev, request_at_(m).service_seconds) *
                       factor);
  double start = 0, finish = 0;
  const int lane =
      group_.place_batch(dev, t, overhead_, services, &start, &finish);
  double vfinish = vstart + overhead_;
  for (const double s : services) vfinish += s;
  shadow_free_[static_cast<std::size_t>(dev)] = vfinish;

  Live lv;
  lv.members = std::move(kept);
  lv.services = std::move(services);
  lv.dispatch = d0;
  lv.first_vstart = n == 1 ? vstart : first_vstart;
  lv.vstart = vstart;
  lv.vfinish = vfinish;
  lv.start = start;
  lv.lane = lane;
  lv.device = dev;
  lv.attempts = n;
  live_.emplace(id, std::move(lv));
  if (n == 2) ++redispatched_batches_;
}

/// Finalizes every live batch no pending fault can still kill, in
/// batch-id order.
void StreamPlacer::finalize_sweep() {
  for (auto it = live_.begin(); it != live_.end();) {
    if (injector_.vulnerable(it->second.device, it->second.vfinish)) {
      ++it;
      continue;
    }
    finalize_placed(it->first, it->second);
    it = live_.erase(it);
  }
}

/// Resolves `members` with a typed failure (no exception tunneling:
/// the error travels inside the StreamResult, see StreamHandle).
void StreamPlacer::fail_members(const std::vector<std::size_t>& members,
                                ServeErrorCode code, const std::string& detail,
                                int attempts_so_far, std::size_t id,
                                int device) {
  for (const std::size_t m : members) {
    StreamResult& r = request_at_(m);
    r.error = code;
    r.error_detail = detail;
    r.attempts = attempts_so_far;
    r.batch_id = id;
    r.batch_size = members.size();
    if (device >= 0) r.device = device;
    fold_.add(r);
    if (on_final_) on_final_(m);
  }
}

StreamStats schedule_stream_dispatch(
    std::vector<StreamResult>& requests,
    const std::vector<DispatchBatch>& plan, DeviceGroup& group,
    RoutingPolicy& routing, int workers_per_device,
    double batch_overhead_seconds,
    const std::vector<std::vector<MapCacheEvent>>* events,
    std::vector<StreamBatchRecord>* batches, const FaultPlan* fault_plan,
    const FaultToleranceOptions* fault_tolerance) {
  if (events && events->size() != requests.size())
    throw std::invalid_argument(
        "schedule_stream_dispatch: events must be parallel to requests");
  // Per-model stats are sized off the request stream, so model ids must
  // be non-negative.
  int num_models = 1;
  for (const StreamResult& r : requests) {
    if (r.model < 0)
      throw std::invalid_argument(
          "schedule_stream_dispatch: request model ids must be >= 0");
    num_models = std::max(num_models, r.model + 1);
  }
  // Validate the whole plan before mutating anything: its batches must
  // partition [0, requests.size()).
  std::vector<char> assigned(requests.size(), 0);
  std::size_t covered = 0;
  for (const DispatchBatch& b : plan) {
    claim_batch("schedule_stream_dispatch", b, requests, assigned);
    covered += b.members.size();
  }
  if (covered != requests.size())
    throw std::invalid_argument(
        "schedule_stream_dispatch: plan covers " + std::to_string(covered) +
        " requests, have " + std::to_string(requests.size()));

  // The injector outlives the placer (whose destructor detaches it
  // from the caller-owned group).
  FaultInjector injector(
      fault_plan ? *fault_plan : FaultPlan{},
      fault_tolerance ? *fault_tolerance : FaultToleranceOptions{},
      group.size());
  StreamPlacer placer(
      group, routing, workers_per_device, batch_overhead_seconds,
      [&requests](std::size_t i) -> StreamResult& { return requests[i]; },
      [events](std::size_t i) { return events ? &(*events)[i] : nullptr; },
      injector, {}, num_models);
  for (const DispatchBatch& b : plan) placer.feed(b);
  placer.finish_stream();
  if (batches) *batches = placer.batch_records();
  return placer.finalize(
      requests.empty() ? 0.0 : requests.front().arrival_seconds);
}

}  // namespace ts::serve
