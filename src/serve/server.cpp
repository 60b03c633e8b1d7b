#include "serve/server.hpp"

#include "io/serialize.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <deque>
#include <exception>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

namespace ts::serve {

// ---------------------------------------------------------------------
// ServerConfig builder
// ---------------------------------------------------------------------

ServerConfig& ServerConfig::with_device(DeviceSpec d) {
  device = std::move(d);
  return *this;
}
ServerConfig& ServerConfig::with_engine(EngineConfig e) {
  engine = std::move(e);
  return *this;
}
ServerConfig& ServerConfig::with_workers(int n) {
  workers = n;
  return *this;
}
ServerConfig& ServerConfig::with_run(RunOptions r) {
  run = std::move(r);
  return *this;
}
ServerConfig& ServerConfig::with_map_cache_bytes(std::size_t bytes) {
  map_cache_bytes = bytes;
  return *this;
}
ServerConfig& ServerConfig::with_queue_depth(std::size_t depth) {
  queue.max_depth = depth;
  return *this;
}
ServerConfig& ServerConfig::with_priority_preemption(bool on) {
  queue.priority_preemption = on;
  return *this;
}
ServerConfig& ServerConfig::with_batcher(BatcherOptions b) {
  batcher = b;
  return *this;
}
ServerConfig& ServerConfig::with_priority(PriorityOptions p) {
  priority = p;
  return *this;
}
ServerConfig& ServerConfig::with_batch_overhead(double seconds) {
  batch_overhead_seconds = seconds;
  return *this;
}
ServerConfig& ServerConfig::with_reuse_context(bool on) {
  reuse_context = on;
  return *this;
}
ServerConfig& ServerConfig::with_devices(int n) {
  shard.devices = n;
  return *this;
}
ServerConfig& ServerConfig::with_fleet(const std::vector<FleetTier>& tiers) {
  fleet = expand_fleet(tiers);  // validates; throws invalid_argument
  device = fleet.front();       // the measurement reference spec
  shard.devices = static_cast<int>(fleet.size());
  return *this;
}
ServerConfig& ServerConfig::with_route(RoutePolicy r) {
  shard.route = r;
  return *this;
}
ServerConfig& ServerConfig::with_batching_policy(
    std::shared_ptr<BatchingPolicy> p) {
  batching = std::move(p);
  return *this;
}
ServerConfig& ServerConfig::with_routing_policy(
    std::shared_ptr<RoutingPolicy> p) {
  routing = std::move(p);
  return *this;
}
ServerConfig& ServerConfig::warm_start(const std::string& path) {
  warm_snapshot = std::make_shared<const MapCacheSnapshot>(
      io::load_map_cache_file(path));
  return *this;
}
ServerConfig& ServerConfig::with_warm_snapshot(
    std::shared_ptr<const MapCacheSnapshot> snap) {
  warm_snapshot = std::move(snap);
  return *this;
}
ServerConfig& ServerConfig::with_dedup_batching(bool on) {
  dedup_batching = on;
  return *this;
}
ServerConfig& ServerConfig::with_fault_plan(FaultPlan plan) {
  fault_plan = std::make_shared<const FaultPlan>(std::move(plan));
  return *this;
}
ServerConfig& ServerConfig::with_fault_plan(
    std::shared_ptr<const FaultPlan> plan) {
  fault_plan = std::move(plan);
  return *this;
}
ServerConfig& ServerConfig::with_fault_tolerance(FaultToleranceOptions opt) {
  fault_tolerance = opt;
  return *this;
}
ServerConfig& ServerConfig::with_class_queue_depth(Priority cls,
                                                   std::size_t depth) {
  const int c = static_cast<int>(cls);
  if (c < 0 || c >= kNumPriorityClasses)
    throw std::invalid_argument(
        "ServerConfig::with_class_queue_depth: priority class " +
        std::to_string(c) + " outside [0, " +
        std::to_string(kNumPriorityClasses) + ")");
  queue.class_max_depth[static_cast<std::size_t>(c)] = depth;
  return *this;
}
ServerConfig& ServerConfig::with_model(std::string name, ModelFn fn,
                                       double slo_budget_seconds,
                                       Priority default_priority,
                                       double weight) {
  ModelEntry entry;
  entry.name = std::move(name);
  entry.fn = std::move(fn);
  entry.slo_budget_seconds = slo_budget_seconds;
  entry.default_priority = default_priority;
  entry.weight = weight;
  return with_model(std::move(entry));
}
ServerConfig& ServerConfig::with_model(ModelEntry entry) {
  // The namespace IS the registry index: model 0 keeps the un-salted digest
  // space, later models get independent remaps. Stamping here (and again
  // in Server's constructor) makes cross-model isolation structural.
  entry.cache_namespace = static_cast<uint64_t>(models.size());
  models.push_back(std::move(entry));
  return *this;
}
ServerConfig& ServerConfig::with_model_tuned(
    int model, std::unordered_map<int, GroupParams> tuned) {
  if (model < 0 || static_cast<std::size_t>(model) >= models.size())
    throw std::invalid_argument(
        "ServerConfig::with_model_tuned: model " + std::to_string(model) +
        " outside the registry [0, " + std::to_string(models.size()) + ")");
  models[static_cast<std::size_t>(model)].tuned = std::move(tuned);
  return *this;
}

std::vector<ModelBatchingInfo> model_batching_infos(
    const std::vector<ModelEntry>& models) {
  std::vector<ModelBatchingInfo> infos;
  infos.reserve(models.size());
  for (const ModelEntry& m : models)
    infos.push_back(ModelBatchingInfo{m.slo_budget_seconds, m.weight});
  return infos;
}

// ---------------------------------------------------------------------
// Incremental placement
// ---------------------------------------------------------------------

namespace {

/// Replays one recorded cache resolution through a device's modeled
/// cache (record mode), applying the shared warm-hit delta on hits.
/// record_lookup's decisions and apply_map_cache_hit's arithmetic are
/// the same ones MapCacheReplay uses, so a 1-device group reproduces
/// the single-device replay bit-for-bit. Goes through the group (not
/// the raw cache) so the digest->owner index tracks every admission
/// and eviction.
bool replay_event(DeviceGroup& group, int device, const MapCacheEvent& ev,
                  Timeline& t, MapCacheReplayStats& st) {
  ++st.lookups;
  const KernelMapCache::RecordOutcome out =
      group.record_lookup(device, ev.key, ev.bytes);
  st.evictions += out.evictions;
  if (!out.hit) {
    ++st.misses;
    return false;
  }
  ++st.hits;
  apply_map_cache_hit(ev, t);
  st.modeled_seconds_saved += ev.cold_seconds - ev.hit_seconds;
  return true;
}

using RequestAt = std::function<StreamResult&(std::size_t)>;
using EventsAt = std::function<const std::vector<MapCacheEvent>*(std::size_t)>;

/// One batch at a time, in dispatch order: fault events due by its
/// dispatch stamp -> health-aware route -> per-device cache accounting
/// -> lane placement -> finalization, accumulating everything
/// finalize() needs for the stream statistics. This is the single
/// scheduler body behind both the one-shot schedule_stream_dispatch and
/// the incremental serve_stream core.
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
  /// `on_final` (optional) fires per member, in batch-member order, the
  /// moment that member's result is final: at placement, at deferred
  /// finalization, or with a typed failure. `injector` must outlive the
  /// placer.
  StreamPlacer(DeviceGroup& group, RoutingPolicy& routing,
               int workers_per_device, double batch_overhead_seconds,
               RequestAt request_at, EventsAt events_at, bool cached,
               FaultInjector& injector,
               std::function<void(std::size_t)> on_final = {},
               int num_models = 1)
      : group_(group),
        routing_(routing),
        workers_(std::max(workers_per_device, 1)),
        overhead_(batch_overhead_seconds),
        request_at_(std::move(request_at)),
        events_at_(std::move(events_at)),
        cached_(cached),
        injector_(injector),
        on_final_(std::move(on_final)),
        class_waits_(kNumPriorityClasses),
        class_e2es_(kNumPriorityClasses),
        num_models_(std::max(num_models, 1)) {
    if (!std::isfinite(overhead_) || overhead_ < 0)
      throw std::invalid_argument(
          "serve: batch_overhead_seconds must be finite and >= 0");
    const std::size_t nm = static_cast<std::size_t>(num_models_);
    model_waits_.resize(nm);
    model_e2es_.resize(nm);
    model_failed_.assign(nm, 0);
    model_retries_.assign(nm, 0);
    model_cache_hits_.assign(nm, 0);
    model_cache_lookups_.assign(nm, 0);
    group_.begin_schedule(workers_);
    injector_.reset();
    shadow_free_.assign(static_cast<std::size_t>(group_.size()), 0.0);
    group_.attach_fault_injector(&injector_);
  }

  ~StreamPlacer() { group_.attach_fault_injector(nullptr); }

  /// Consumes the next batch in dispatch order (caller guarantees every
  /// member is measured and every earlier batch was fed): first
  /// processes every fault event and due retry up to the batch's
  /// dispatch stamp, then places (or sheds/defers) it. Batches no
  /// pending fault can kill are final on return.
  void feed(const DispatchBatch& b) {
    if (b.members.empty())
      throw std::invalid_argument(
          "serve: batching policy emitted an empty batch");
    const std::size_t id = next_batch_id_++;
    process_until(b.dispatch_seconds, static_cast<long long>(id));
    attempt_place(id, b.members, b.dispatch_seconds, b.dispatch_seconds, 1,
                  0.0);
    finalize_sweep();
  }

  /// End-of-stream drain: after the last batch is fed, runs the
  /// remaining fault events and retries to quiescence so every admitted
  /// request is either served or carries a typed failure.
  void finish_stream() {
    injector_.end_of_plan();
    for (;;) {
      const double es = injector_.next_event_stamp();
      const double rs = retries_.empty()
                            ? std::numeric_limits<double>::infinity()
                            : retries_.begin()->first.first;
      if (!std::isfinite(es) && !std::isfinite(rs)) break;
      if (es <= rs) {
        FaultEvent e;
        if (injector_.pop_event(es, -1, 0.0, &e)) handle_event(e);
      } else {
        pop_retry();
      }
      finalize_sweep();
    }
    finalize_sweep();
  }

  std::size_t placed_batches() const { return placed_batches_; }
  std::size_t placed_requests() const { return placed_requests_; }

  /// Requests with a final outcome: served + typed failures. The
  /// end-of-stream coverage check compares this against the drained
  /// count (placed_requests alone would miss shed/failed ones).
  std::size_t accounted_requests() const {
    return placed_requests_ + failed_;
  }

  /// Final batch records, sorted by batch id (deferred finalization can
  /// finalize out of dispatch order). Fully-failed batches produce no
  /// record.
  std::vector<StreamBatchRecord> batch_records() const {
    std::vector<StreamBatchRecord> recs = records_;
    std::sort(recs.begin(), recs.end(),
              [](const StreamBatchRecord& a, const StreamBatchRecord& b) {
                return a.batch_id < b.batch_id;
              });
    return recs;
  }

  /// Stream statistics over everything placed so far. `first_arrival`
  /// is the first drained request's stamp (the makespan origin).
  StreamStats finalize(double first_arrival) {
    StreamStats s;
    s.workers = workers_;
    s.devices = group_.size();
    s.completed = placed_requests_;
    s.batches = placed_batches_;
    s.failed = failed_;
    s.retries = retries_total_;
    s.redispatched_batches = redispatched_batches_;
    s.faults_injected = injector_.activations();
    if (!retry_waits_.empty()) {
      std::sort(retry_waits_.begin(), retry_waits_.end());
      s.retry_wait_p99_seconds = percentile(retry_waits_, 0.99);
    }
    s.per_device.resize(static_cast<std::size_t>(group_.size()));
    s.per_class.resize(kNumPriorityClasses);
    for (int c = 0; c < kNumPriorityClasses; ++c) {
      PriorityClassStats& pc = s.per_class[static_cast<std::size_t>(c)];
      pc.priority = static_cast<Priority>(c);
      pc.failed = class_failed_[static_cast<std::size_t>(c)];
      pc.retries = class_retries_[static_cast<std::size_t>(c)];
    }
    // Per-model counters (rejections are the caller's to fill — only
    // the admission queue knows them). Completed counts are final here:
    // every placed request pushed its wait sample already.
    s.per_model.resize(static_cast<std::size_t>(num_models_));
    for (int m = 0; m < num_models_; ++m) {
      ModelStats& pm = s.per_model[static_cast<std::size_t>(m)];
      pm.model = m;
      pm.completed = model_waits_[static_cast<std::size_t>(m)].size();
      pm.failed = model_failed_[static_cast<std::size_t>(m)];
      pm.retries = model_retries_[static_cast<std::size_t>(m)];
      pm.cache_hits = model_cache_hits_[static_cast<std::size_t>(m)];
      pm.cache_lookups = model_cache_lookups_[static_cast<std::size_t>(m)];
    }
    if (placed_requests_ == 0) {
      for (int d = 0; d < group_.size(); ++d)
        s.per_device[static_cast<std::size_t>(d)] = group_.stats(d);
      return s;
    }

    s.mean_batch_size = static_cast<double>(placed_requests_) /
                        static_cast<double>(placed_batches_);
    s.mean_service_seconds =
        sum_service_ / static_cast<double>(placed_requests_);
    s.makespan_seconds = last_finish_ - first_arrival;
    s.throughput_fps =
        s.makespan_seconds > 0
            ? static_cast<double>(placed_requests_) / s.makespan_seconds
            : 0.0;
    std::sort(waits_.begin(), waits_.end());
    std::sort(e2es_.begin(), e2es_.end());
    s.queue_wait_p50_seconds = percentile(waits_, 0.50);
    s.queue_wait_p90_seconds = percentile(waits_, 0.90);
    s.queue_wait_p99_seconds = percentile(waits_, 0.99);
    s.e2e_p50_seconds = percentile(e2es_, 0.50);
    s.e2e_p90_seconds = percentile(e2es_, 0.90);
    s.e2e_p99_seconds = percentile(e2es_, 0.99);
    for (int c = 0; c < kNumPriorityClasses; ++c) {
      PriorityClassStats& pc = s.per_class[static_cast<std::size_t>(c)];
      std::vector<double>& w = class_waits_[static_cast<std::size_t>(c)];
      std::vector<double>& e = class_e2es_[static_cast<std::size_t>(c)];
      pc.completed = w.size();
      if (w.empty()) continue;
      std::sort(w.begin(), w.end());
      std::sort(e.begin(), e.end());
      pc.queue_wait_p50_seconds = percentile(w, 0.50);
      pc.queue_wait_p90_seconds = percentile(w, 0.90);
      pc.queue_wait_p99_seconds = percentile(w, 0.99);
      pc.e2e_p50_seconds = percentile(e, 0.50);
      pc.e2e_p90_seconds = percentile(e, 0.90);
      pc.e2e_p99_seconds = percentile(e, 0.99);
    }
    for (int m = 0; m < num_models_; ++m) {
      ModelStats& pm = s.per_model[static_cast<std::size_t>(m)];
      std::vector<double>& w = model_waits_[static_cast<std::size_t>(m)];
      std::vector<double>& e = model_e2es_[static_cast<std::size_t>(m)];
      if (w.empty()) continue;
      std::sort(w.begin(), w.end());
      std::sort(e.begin(), e.end());
      pm.queue_wait_p50_seconds = percentile(w, 0.50);
      pm.queue_wait_p90_seconds = percentile(w, 0.90);
      pm.queue_wait_p99_seconds = percentile(w, 0.99);
      pm.e2e_p50_seconds = percentile(e, 0.50);
      pm.e2e_p90_seconds = percentile(e, 0.90);
      pm.e2e_p99_seconds = percentile(e, 0.99);
    }
    s.aggregate = aggregate_;

    // Per-device clocks and the group-wide cache summary.
    for (int d = 0; d < group_.size(); ++d) {
      DeviceShardStats& ds = group_.stats(d);
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
      s.map_cache.modeled_seconds_saved +=
          ds.map_cache.modeled_seconds_saved;
      s.per_device[static_cast<std::size_t>(d)] = ds;
    }
    return s;
  }

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

  /// Routes one batch, enforcing the policy's device-range contract.
  /// Policy inputs (accumulated modeled work, modeled cache ownership,
  /// members' reference-device measurements) are independent of lane
  /// count, so routing — and with it every per-device cache decision —
  /// is worker-count invariant. On a batch's first attempt the members'
  /// timelines are still their cold measurements (cache replay runs
  /// after routing), so estimate-based policies see the same inputs
  /// cached or not.
  int route_batch(std::size_t id, const std::vector<std::size_t>& members,
                  double dispatch_seconds) {
    const int dev = routing_.route(
        RouteQuery{id, members, dispatch_seconds,
                   cached_ ? events_at_ : EventsAt{},
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

  /// Per-device deterministic cache accounting: replay the members'
  /// recorded resolutions (in batch-member order) through the routed
  /// device's modeled cache.
  void replay_members(int dev, const std::vector<std::size_t>& members) {
    for (const std::size_t m : members) {
      StreamResult& r = request_at_(m);
      // Callers guarantee r.model < num_models_ (validated at the feed
      // boundary); namespaced keys make these per-model counters
      // tenant-true.
      const std::size_t mdl = static_cast<std::size_t>(r.model);
      if (const std::vector<MapCacheEvent>* evs = events_at_(m))
        for (const MapCacheEvent& ev : *evs) {
          const bool hit = replay_event(group_, dev, ev, r.timeline,
                                        group_.stats(dev).map_cache);
          ++model_cache_lookups_[mdl];
          if (hit) ++model_cache_hits_[mdl];
        }
      r.service_seconds = r.timeline.total_seconds();
    }
  }

  /// Ships one placed batch's final results: fills every member's
  /// schedule fields, pushes the percentile samples and the batch
  /// record, and fires on_final per member.
  void finalize_placed(std::size_t id,
                       const std::vector<std::size_t>& members,
                       const std::vector<double>& services, double d0,
                       double start, int lane, int dev, int attempts,
                       double retry_wait) {
    double cursor = start + overhead_;
    std::size_t si = 0;
    for (const std::size_t m : members) {
      StreamResult& r = request_at_(m);
      r.start_seconds = cursor;
      r.finish_seconds = cursor + services[si];
      cursor = r.finish_seconds;
      ++si;
      // Queue wait ends when the *batch* starts executing; the once-per-
      // batch overhead and batch-mates ahead of this request are part of
      // the (batched) run phase, not the queue. This is what the SLO
      // budget bounds: with free lanes, wait <= slo_budget_seconds by
      // construction of the batcher's deadline rule.
      r.queue_wait_seconds = start - r.arrival_seconds;
      r.e2e_seconds = r.finish_seconds - r.arrival_seconds;
      r.batch_id = id;
      r.batch_size = members.size();
      r.device = dev;
      r.attempts = attempts;
      r.retry_wait_seconds = retry_wait;
      waits_.push_back(r.queue_wait_seconds);
      e2es_.push_back(r.e2e_seconds);
      const int cls = static_cast<int>(r.priority);
      class_waits_[static_cast<std::size_t>(cls)].push_back(
          r.queue_wait_seconds);
      class_e2es_[static_cast<std::size_t>(cls)].push_back(r.e2e_seconds);
      const std::size_t mdl = static_cast<std::size_t>(r.model);
      model_waits_[mdl].push_back(r.queue_wait_seconds);
      model_e2es_[mdl].push_back(r.e2e_seconds);
      sum_service_ += r.service_seconds;
      aggregate_ += r.timeline;
      ++placed_requests_;
      if (attempts > 1) {
        retries_total_ += static_cast<std::size_t>(attempts - 1);
        class_retries_[static_cast<std::size_t>(cls)] +=
            static_cast<std::size_t>(attempts - 1);
        model_retries_[mdl] += static_cast<std::size_t>(attempts - 1);
        retry_waits_.push_back(retry_wait);
      }
      if (on_final_) on_final_(m);
    }
    last_finish_ = std::max(last_finish_, cursor);
    records_.push_back(StreamBatchRecord{
        id, members.front(), members.size(), d0, start, cursor, lane, dev,
        request_at_(members.front()).model, attempts});
    ++placed_batches_;
  }

  // -- Fault event loop ------------------------------------------------

  /// Processes every fault event and due retry with a stamp <= `now`
  /// (the next batch's dispatch stamp), in modeled-time order with
  /// recoveries before activations before retries on ties. `k` is the
  /// dispatch index about to happen, so a dispatch-indexed fault on
  /// batch #k activates here, before that batch routes.
  void process_until(double now, long long k) {
    for (;;) {
      const double rs = retries_.empty()
                            ? std::numeric_limits<double>::infinity()
                            : retries_.begin()->first.first;
      FaultEvent e;
      if (injector_.pop_event(std::min(now, rs), k, now, &e)) {
        handle_event(e);
        finalize_sweep();
        continue;
      }
      if (rs <= now) {
        pop_retry();
        finalize_sweep();
        continue;
      }
      break;
    }
    injector_.advance(now);
    finalize_sweep();
  }

  void handle_event(const FaultEvent& e) {
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
    collect_losses(e.device, e.stamp);
  }

  /// Re-enqueues (or fails) every live batch on `device` whose shadow
  /// finish the outage at `stamp` overruns.
  void collect_losses(int device, double stamp) {
    const FaultToleranceOptions& opt = injector_.options();
    for (auto it = live_.begin(); it != live_.end();) {
      Live& lv = it->second;
      if (lv.device != device || lv.vfinish <= stamp) {
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
                     lv.attempts, id, device);
      } else {
        // Modeled exponential backoff: retry n waits backoff * 2^(n-2)
        // after the loss (ldexp keeps the doubling exact in binary).
        const double wait =
            opt.retry_backoff_seconds > 0
                ? std::ldexp(opt.retry_backoff_seconds, next - 2)
                : 0.0;
        retries_.emplace(
            std::make_pair(stamp + wait, id),
            Retry{std::move(lv.members), lv.dispatch, lv.attempts,
                  lv.first_vstart});
      }
      it = live_.erase(it);
    }
  }

  /// Pops the earliest due retry and re-places it.
  void pop_retry() {
    const auto it = retries_.begin();
    const double rs = it->first.first;
    const std::size_t id = it->first.second;
    Retry r = std::move(it->second);
    retries_.erase(it);
    injector_.advance(rs);
    attempt_place(id, r.members, r.dispatch, rs, r.attempts_done + 1,
                  r.first_vstart);
  }

  /// Attempt `n` to place batch `id` at modeled time `t` (`d0` is its
  /// original dispatch stamp). Routes health-aware, sheds deadline-
  /// hopeless members, scales services by the routed shard's fault
  /// factor, places on real lanes, and registers the batch as live.
  void attempt_place(std::size_t id, const std::vector<std::size_t>& members,
                     double d0, double t, int n, double first_vstart) {
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
    if (cached_ && n == 1) replay_members(dev, kept);

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
  /// batch-id order. The worker-invariant retry_wait penalty is the
  /// shadow-clock start delta between the final and first attempts.
  void finalize_sweep() {
    for (auto it = live_.begin(); it != live_.end();) {
      const Live& lv = it->second;
      if (injector_.vulnerable(lv.device, lv.vfinish)) {
        ++it;
        continue;
      }
      finalize_placed(it->first, lv.members, lv.services, lv.dispatch,
                      lv.start, lv.lane, lv.device, lv.attempts,
                      lv.vstart - lv.first_vstart);
      it = live_.erase(it);
    }
  }

  /// Resolves `members` with a typed failure (no exception tunneling:
  /// the error travels inside the StreamResult, see StreamHandle).
  void fail_members(const std::vector<std::size_t>& members,
                    ServeErrorCode code, const std::string& detail,
                    int attempts_so_far, std::size_t id, int device) {
    for (const std::size_t m : members) {
      StreamResult& r = request_at_(m);
      r.error = code;
      r.error_detail = detail;
      r.attempts = attempts_so_far;
      r.batch_id = id;
      r.batch_size = members.size();
      if (device >= 0) r.device = device;
      const std::size_t cls = static_cast<std::size_t>(r.priority);
      const std::size_t mdl = static_cast<std::size_t>(r.model);
      ++failed_;
      ++class_failed_[cls];
      ++model_failed_[mdl];
      if (attempts_so_far > 1) {
        retries_total_ += static_cast<std::size_t>(attempts_so_far - 1);
        class_retries_[cls] += static_cast<std::size_t>(attempts_so_far - 1);
        model_retries_[mdl] += static_cast<std::size_t>(attempts_so_far - 1);
      }
      if (on_final_) on_final_(m);
    }
  }

  DeviceGroup& group_;
  RoutingPolicy& routing_;
  int workers_;
  double overhead_;
  RequestAt request_at_;
  EventsAt events_at_;
  bool cached_;
  FaultInjector& injector_;
  std::function<void(std::size_t)> on_final_;
  std::size_t next_batch_id_ = 0;
  std::size_t placed_batches_ = 0;
  std::size_t placed_requests_ = 0;
  std::vector<StreamBatchRecord> records_;
  std::vector<double> waits_, e2es_;
  std::vector<std::vector<double>> class_waits_, class_e2es_;
  /// Per-model accounting, parallel to the registry (size num_models_).
  int num_models_ = 1;
  std::vector<std::vector<double>> model_waits_, model_e2es_;
  std::vector<std::size_t> model_failed_, model_retries_;
  std::vector<std::size_t> model_cache_hits_, model_cache_lookups_;
  double sum_service_ = 0;
  double last_finish_ = 0;
  Timeline aggregate_;
  // Fault state. Every quantity here lives on the shadow clock /
  // dispatch order, never on real lane state — the worker-invariance
  // pillar.
  std::vector<double> shadow_free_;  // per-device single-lane cursor
  std::map<std::size_t, Live> live_;
  std::map<std::pair<double, std::size_t>, Retry> retries_;
  std::size_t failed_ = 0;
  std::size_t retries_total_ = 0;
  std::size_t redispatched_batches_ = 0;
  std::array<std::size_t, kNumPriorityClasses> class_failed_{};
  std::array<std::size_t, kNumPriorityClasses> class_retries_{};
  std::vector<double> retry_waits_;
};

}  // namespace

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
  // Validate the whole plan before mutating anything: members must
  // partition [0, requests.size()) and no batch may dispatch before one
  // of its members arrives.
  // Per-model stat vectors are sized off the request stream: model ids
  // must be non-negative, and every batch must be single-model (its
  // members' ids matching the batch's own).
  int num_models = 1;
  for (const StreamResult& r : requests) {
    if (r.model < 0)
      throw std::invalid_argument(
          "schedule_stream_dispatch: request model ids must be >= 0");
    num_models = std::max(num_models, r.model + 1);
  }
  std::vector<char> assigned(requests.size(), 0);
  std::size_t covered = 0;
  for (const DispatchBatch& b : plan) {
    if (b.members.empty())
      throw std::invalid_argument(
          "schedule_stream_dispatch: plan contains an empty batch");
    for (const std::size_t m : b.members) {
      if (m >= requests.size() || assigned[m])
        throw std::invalid_argument(
            "schedule_stream_dispatch: plan must dispatch each request "
            "exactly once");
      if (requests[m].arrival_seconds > b.dispatch_seconds)
        throw std::invalid_argument(
            "schedule_stream_dispatch: batch dispatched before member "
            "arrival");
      if (requests[m].model != b.model)
        throw std::invalid_argument(
            "schedule_stream_dispatch: batch " + std::to_string(b.model) +
            " mixes models (member " + std::to_string(m) + " targets " +
            std::to_string(requests[m].model) + ")");
      assigned[m] = 1;
      ++covered;
    }
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
      [events](std::size_t i) {
        return events ? &(*events)[i] : nullptr;
      },
      events != nullptr, injector, {}, num_models);
  for (const DispatchBatch& b : plan) placer.feed(b);
  placer.finish_stream();
  if (batches) *batches = placer.batch_records();
  return placer.finalize(
      requests.empty() ? 0.0 : requests.front().arrival_seconds);
}

// ---------------------------------------------------------------------
// serve_stream: the incremental serving session core
// ---------------------------------------------------------------------

namespace {

/// One measurement work item. Carries stable pointers (deque push_back
/// never moves existing elements), so workers never touch the growing
/// containers themselves; a worker owns its item's pointees exclusively
/// until it publishes `measured` under StreamShared::mu.
struct WorkItem {
  std::size_t index = 0;  // drained-order scheduling id
  SparseTensor* input = nullptr;  // mutable: borrow_input moves it out
  StreamResult* result = nullptr;
  std::vector<MapCacheEvent>* events = nullptr;
};

/// Coordinator/worker shared state of one serving session. Every
/// container mutation happens under `mu` — workers index the same
/// deques during incremental placement, and a deque push_back may
/// reallocate the internal chunk map they would be reading. The deques
/// keep element references stable while the coordinator appends and
/// workers write measured service times through WorkItem pointers.
struct StreamShared {
  Mutex mu;
  /// Wakes workers on new work, producer completion, and failure.
  CondVar cv;
  std::deque<StreamResult> results TS_GUARDED_BY(mu);  // drained order
  std::deque<SparseTensor> inputs TS_GUARDED_BY(mu);   // parallel: results
  std::deque<std::vector<MapCacheEvent>> events TS_GUARDED_BY(mu);
  std::deque<std::promise<StreamResult>> promises TS_GUARDED_BY(mu);
  std::deque<char> fulfilled TS_GUARDED_BY(mu);  // parallel to promises
  std::deque<char> measured TS_GUARDED_BY(mu);   // parallel to results
  std::deque<char> assigned TS_GUARDED_BY(mu);   // batched yet?
  std::vector<DispatchBatch> plan TS_GUARDED_BY(mu);
  std::size_t next_place TS_GUARDED_BY(mu) = 0;
  std::deque<WorkItem> work TS_GUARDED_BY(mu);
  bool producer_done TS_GUARDED_BY(mu) = false;
  std::exception_ptr first_error TS_GUARDED_BY(mu);
};

/// StreamPlacer callbacks over the shared state. The placer stores
/// these type-erased (std::function), which the thread-safety analysis
/// cannot see through — the TS_REQUIRES contracts below are what lets
/// the guarded reads in the bodies analyze clean, and the call-site
/// obligation is discharged structurally rather than by the compiler:
/// placer.feed / finish_stream only ever run with st->mu held
/// (try_place_locked and serve_stream's end-of-stream block).
struct SharedRequestAt {
  StreamShared* st;
  StreamResult& operator()(std::size_t i) const TS_REQUIRES(st->mu) {
    return st->results[i];
  }
};

struct SharedEventsAt {
  StreamShared* st;
  bool cached;
  const std::vector<MapCacheEvent>* operator()(std::size_t i) const
      TS_REQUIRES(st->mu) {
    return cached ? &st->events[i] : nullptr;
  }
};

/// Fulfills a member's promise the moment its result is final —
/// placement time fault-free, deferred finalization under faults.
struct SharedOnFinal {
  StreamShared* st;
  void operator()(std::size_t m) const TS_REQUIRES(st->mu) {
    st->promises[m].set_value(st->results[m]);
    st->fulfilled[m] = 1;
  }
};

/// Latches the first failure and halts measurement: pending work is
/// dropped and workers observe producer_done on their next wakeup.
void fail_locked(StreamShared& st, std::exception_ptr error)
    TS_REQUIRES(st.mu) {
  if (!st.first_error) st.first_error = error;
  st.work.clear();
  st.producer_done = true;
}

/// Incremental placement: batches are placed strictly in dispatch
/// order, each as soon as every member is measured, and the members'
/// promises are fulfilled on the spot — that is what makes an early
/// StreamHandle readable while later batches are still pending.
/// Placement order never depends on measurement timing, so the
/// schedule is bit-identical to a one-shot pass over the same plan.
void try_place_locked(StreamShared& st, StreamPlacer& placer,
                      RequestQueue& queue) TS_REQUIRES(st.mu) {
  if (st.first_error) return;
  try {
    while (st.next_place < st.plan.size()) {
      const DispatchBatch& b = st.plan[st.next_place];
      bool ready = true;
      for (const std::size_t m : b.members)
        if (!st.measured[m]) {
          ready = false;
          break;
        }
      if (!ready) break;
      // Record + fulfillment are the placer's job: fault-free members
      // fulfill here (inside feed), fault-mode members when their
      // batch finalizes or fails.
      placer.feed(b);
      ++st.next_place;
    }
  } catch (...) {
    // A policy contract violation surfaced during placement: fail the
    // stream like a request failure would.
    fail_locked(st, std::current_exception());
    queue.close();
    st.cv.notify_all();
  }
}

/// Validates and appends one policy-emitted batch.
void append_batch_locked(StreamShared& st, DispatchBatch&& b)
    TS_REQUIRES(st.mu) {
  if (b.members.empty())
    throw std::invalid_argument(
        "serve_stream: batching policy emitted an empty batch");
  for (const std::size_t m : b.members) {
    if (m >= st.results.size() || st.assigned[m])
      throw std::invalid_argument(
          "serve_stream: batching policy must dispatch each request "
          "exactly once");
    if (st.results[m].arrival_seconds > b.dispatch_seconds)
      throw std::invalid_argument(
          "serve_stream: batch dispatched before member arrival");
    st.assigned[m] = 1;
  }
  st.plan.push_back(std::move(b));
}

}  // namespace

StreamReport serve_stream(const std::vector<ModelEntry>& models,
                          RequestQueue& queue, const ServerConfig& config,
                          BatchingPolicy& batching, RoutingPolicy& routing,
                          std::vector<ExecContext>* context_pool) {
  if (models.empty())
    throw std::invalid_argument("serve_stream: empty model registry");
  for (const ModelEntry& m : models)
    if (!m.fn)
      throw std::invalid_argument("serve_stream: model '" + m.name +
                                  "' has a null ModelFn");
  // Tuned-parameter restamping is per-request work on the hot path;
  // skip it entirely (keeping single-model sessions bit- and
  // work-identical to the RunOptions store) unless some entry actually
  // overrides it.
  bool per_model_tuned = false;
  for (const ModelEntry& m : models)
    if (!m.tuned.empty()) per_model_tuned = true;
  const int workers = std::max(config.workers, 1);
  // A non-empty fleet names the shards explicitly; otherwise the group
  // is shard.devices homogeneous copies of the reference device.
  const int devices = config.fleet.empty()
                          ? std::max(config.shard.devices, 1)
                          : static_cast<int>(config.fleet.size());
  if (devices > kMaxModeledDevices)
    throw std::invalid_argument(
        "serve_stream: " + std::to_string(devices) +
        " devices exceeds kMaxModeledDevices (" +
        std::to_string(kMaxModeledDevices) + ")");
  RunOptions run = config.run;
  const bool fresh_cache = !run.map_cache && config.map_cache_bytes > 0;
  if (fresh_cache)
    run.map_cache = std::make_shared<KernelMapCache>(config.map_cache_bytes);
  const bool cached = static_cast<bool>(run.map_cache);
  // Warm-start the wall-clock cache only when this call created it — a
  // caller-owned cache (the Server path, which imports at construction)
  // must not be re-imported every session.
  if (fresh_cache && config.warm_snapshot)
    run.map_cache->import_snapshot(*config.warm_snapshot);

  StreamReport report;

  // Coordinator/worker shared state (StreamShared above): the drained
  // stream, the dispatch plan, the work queue, and the failure latch,
  // all guarded by st.mu.
  StreamShared st;

  DeviceGroup group =
      config.fleet.empty()
          ? DeviceGroup(config.device, devices,
                        cached ? run.map_cache->byte_budget() : 0)
          : DeviceGroup(config.fleet,
                        cached ? run.map_cache->byte_budget() : 0);
  // Install the warm-start manifest before the placer's begin_schedule
  // call, so the session's modeled caches seed from it. Modeled warming
  // is keyed on the configured snapshot alone (not on who owns the wall
  // cache): stats stay deterministic functions of the config + stream.
  if (cached && config.warm_snapshot) group.warm_start(config.warm_snapshot);
  // Fulfillment runs through the placer's on_final hook (under st.mu —
  // feed/finish_stream are only ever called with it held), which fires
  // at placement, at deferred finalization, or with a typed failure.
  FaultInjector injector(config.fault_plan ? *config.fault_plan : FaultPlan{},
                         config.fault_tolerance, devices);
  StreamPlacer placer(group, routing, workers, config.batch_overhead_seconds,
                      SharedRequestAt{&st}, SharedEventsAt{&st, cached},
                      cached, injector, SharedOnFinal{&st},
                      static_cast<int>(models.size()));

  // Batch membership only shapes the modeled schedule, so measurement
  // starts the moment a request is drained — no need to wait for its
  // batch.
  auto worker = [&](int device_index) {
    // Each device shard contributes its own measurement pool; a worker
    // carries its pool's identity in its (reusable) context as host-side
    // provenance. Measurement itself is device-agnostic — the group is
    // homogeneous at measurement time and cache accounting is deferred —
    // and the modeled placement (StreamResult::device) is decided by the
    // routing pass, independently of which pool measured a request.
    DeviceSpec shard_dev = config.device;
    shard_dev.device_index = device_index;
    std::optional<ExecContext> ctx;
    if (context_pool && config.reuse_context) {
      // Context hand-off: adopt a warm context from a previous session,
      // restamped to this worker's device pool. st.mu doubles as the
      // pool's lock — hand-offs only happen at worker start/exit.
      MutexLock lock(st.mu);
      if (!context_pool->empty()) {
        ctx.emplace(std::move(context_pool->back()));
        context_pool->pop_back();
        reset_context(*ctx, device_index);
      }
    }
    for (;;) {
      WorkItem item;
      {
        MutexLock lock(st.mu);
        while (!st.producer_done && st.work.empty()) st.cv.wait(st.mu);
        if (st.work.empty()) break;
        item = st.work.front();
        st.work.pop_front();
      }
      try {
        Timeline t;
        // The coordinator validated the model index before queuing the
        // work item, so this resolution cannot be out of range.
        const ModelEntry& entry =
            models[static_cast<std::size_t>(item.result->model)];
        auto run_one = [&](ExecContext& c) {
          // Per-request context restamp: every digest this request
          // resolves lives in its model's namespace, and the model's
          // tuned grouping parameters (when present) override the
          // config-wide store. Entry namespace 0 (model 0's space)
          // inherits the RunOptions namespace, so a caller-salted
          // RunOptions namespace still applies to single-model sessions.
          c.cache_namespace = entry.cache_namespace != 0
                                  ? entry.cache_namespace
                                  : run.cache_namespace;
          if (per_model_tuned)
            c.tuned = entry.tuned.empty() ? run.tuned : entry.tuned;
          if (item.events) c.cache_events = item.events;
          // borrow_input: the queue owns the drained tensor and nothing
          // reads it after measurement, so steal it instead of copying.
          return run.borrow_input
                     ? run_in_context(entry.fn, std::move(*item.input), c)
                     : run_in_context(entry.fn, *item.input, c);
        };
        if (config.reuse_context) {
          if (!ctx)
            ctx.emplace(make_run_context(shard_dev, config.engine, run));
          else
            reset_context(*ctx);
          t = run_one(*ctx);
        } else {
          ExecContext fresh = make_run_context(shard_dev, config.engine, run);
          t = run_one(fresh);
        }
        item.result->timeline = t;
        item.result->service_seconds = t.total_seconds();
        {
          MutexLock lock(st.mu);
          st.measured[item.index] = 1;
          try_place_locked(st, placer, queue);
        }
      } catch (...) {
        {
          MutexLock lock(st.mu);
          fail_locked(st, std::current_exception());
        }
        st.cv.notify_all();
        queue.close();  // unblock the coordinator's wait_pop
        break;
      }
    }
    if (context_pool && ctx) {
      // Hand the warm context back for the next session.
      MutexLock lock(st.mu);
      context_pool->push_back(std::move(*ctx));
    }
  };

  // One measurement pool of `workers` threads per device shard, capped
  // at the host's core count: modeled stats are thread-count independent
  // (deterministic accounting above), so oversubscribing the host beyond
  // its cores buys contention, not wall time.
  const int pool_cap = std::max(
      workers,
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency())));
  const int pool = static_cast<int>(
      std::min<long long>(static_cast<long long>(workers) * devices,
                          pool_cap));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(pool));
  for (int t = 0; t < pool; ++t) threads.emplace_back(worker, t / workers);

  // Coordinator (this thread): drain the queue in arrival order, feed
  // the batching policy, and hand each request to the measurement pool.
  // After a failure the queue is already closed; keep draining it so
  // every outstanding promise can receive the error.
  PendingRequest pr;
  while (queue.wait_pop(pr)) {
    bool errored = false;
    {
      MutexLock lock(st.mu);
      if (st.first_error) {
        st.promises.push_back(std::move(pr.promise));
        st.fulfilled.push_back(0);
        continue;
      }
      const std::size_t idx = st.results.size();
      st.results.emplace_back();
      st.results.back().id = pr.id;
      st.results.back().arrival_seconds = pr.arrival_seconds;
      st.results.back().priority = pr.priority;
      st.results.back().model = pr.model;
      st.inputs.push_back(std::move(pr.input));
      st.promises.push_back(std::move(pr.promise));
      st.fulfilled.push_back(0);
      st.measured.push_back(0);
      st.assigned.push_back(0);
      if (cached) st.events.emplace_back();
      try {
        // The queue guarantees model >= 0; the registry bound is this
        // session's to enforce. Throwing here fails the stream through
        // the established path — every outstanding handle receives the
        // error.
        if (static_cast<std::size_t>(pr.model) >= models.size())
          throw std::invalid_argument(
              "serve_stream: request targets model " +
              std::to_string(pr.model) + " but the registry has " +
              std::to_string(models.size()) + " model(s)");
        ArrivalInfo info{idx, pr.arrival_seconds, pr.priority, pr.model,
                         {}, false};
        if (batching.wants_digests()) {
          // O(points) content hash, computed only for digest-aware
          // policies, from the drained tensor before any worker can
          // borrow it. Salted into the model's namespace so dedup can
          // never coalesce identical inputs across tenants (model 0's
          // namespace is 0 — its digests are untouched).
          info.digest = salt_cache_key(
              input_content_digest(st.inputs.back().coords(),
                                   st.inputs.back().stride()),
              models[static_cast<std::size_t>(pr.model)].cache_namespace);
          info.has_digest = true;
        }
        std::vector<DispatchBatch> closed = batching.on_arrival(info);
        for (DispatchBatch& b : closed)
          append_batch_locked(st, std::move(b));
        st.work.push_back({idx, &st.inputs.back(), &st.results.back(),
                           cached ? &st.events.back() : nullptr});
        try_place_locked(st, placer, queue);
      } catch (...) {
        fail_locked(st, std::current_exception());
        queue.close();
        errored = true;
      }
    }
    // One new work item per iteration — wake one worker; a failure set
    // producer_done, so every worker must see it.
    if (errored)
      st.cv.notify_all();
    else
      st.cv.notify_one();
  }
  {
    bool errored;
    {
      MutexLock lock(st.mu);
      errored = static_cast<bool>(st.first_error);
    }
    if (!errored) {
      try {
        std::vector<DispatchBatch> tail = batching.flush();
        MutexLock lock(st.mu);
        for (DispatchBatch& b : tail) append_batch_locked(st, std::move(b));
        try_place_locked(st, placer, queue);
      } catch (...) {
        MutexLock lock(st.mu);
        fail_locked(st, std::current_exception());
      }
    }
  }
  {
    MutexLock lock(st.mu);
    st.producer_done = true;
  }
  st.cv.notify_all();
  for (std::thread& t : threads) t.join();

  // Everything is measured now; any still-unplaced batches place here
  // (and a policy that failed to cover the stream is a contract error).
  {
    MutexLock lock(st.mu);
    try_place_locked(st, placer, queue);
    if (!st.first_error) {
      // Fault mode: drain the remaining fault events and retries so
      // every admitted request is served or carries a typed failure.
      try {
        placer.finish_stream();
      } catch (...) {
        fail_locked(st, std::current_exception());
      }
    }
    if (!st.first_error &&
        (st.next_place != st.plan.size() ||
         placer.accounted_requests() != st.results.size()))
      fail_locked(st,
                  std::make_exception_ptr(std::invalid_argument(
                      "serve_stream: batching policy left " +
                      std::to_string(st.results.size() -
                                     placer.accounted_requests()) +
                      " request(s) undispatched at end of stream")));
  }

  // The joins above ended all concurrency; the guarded state is still
  // read under st.mu so the annotations stay honest.
  std::exception_ptr failure;
  {
    MutexLock lock(st.mu);
    failure = st.first_error;
  }
  if (failure) {
    // Reset the batching policy (a failed stream skipped the normal
    // flush) so a caller-supplied instance can serve the next session;
    // discard whatever it still had pending.
    try {
      batching.flush();
    } catch (...) {
    }
    // Every unfulfilled handle observes the failure, then rethrow.
    MutexLock lock(st.mu);
    for (std::size_t i = 0; i < st.promises.size(); ++i)
      if (!st.fulfilled[i]) st.promises[i].set_exception(failure);
    std::rethrow_exception(failure);
  }

  report.batches = placer.batch_records();
  {
    MutexLock lock(st.mu);
    report.requests.assign(std::make_move_iterator(st.results.begin()),
                           std::make_move_iterator(st.results.end()));
  }
  report.stats = placer.finalize(
      report.requests.empty() ? 0.0
                              : report.requests.front().arrival_seconds);
  report.stats.rejected = queue.rejected();
  // Admission rejections never reach the placer, so the per-model
  // breakdown is filled from the queue here (the vector only grows to
  // the highest model that was actually rejected).
  const std::vector<std::size_t> rejected = queue.rejected_by_model();
  for (std::size_t m = 0;
       m < report.stats.per_model.size() && m < rejected.size(); ++m)
    report.stats.per_model[m].rejected = rejected[m];
  return report;
}

// ---------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------

Server::Server(ServerConfig config) : cfg_(std::move(config)) {
  cfg_.workers = std::max(cfg_.workers, 1);
  if (cfg_.shard.devices > kMaxModeledDevices)
    throw std::invalid_argument(
        "Server: shard.devices = " + std::to_string(cfg_.shard.devices) +
        " exceeds kMaxModeledDevices (" +
        std::to_string(kMaxModeledDevices) + ")");
  cfg_.shard.devices = std::max(cfg_.shard.devices, 1);
  if (!cfg_.fleet.empty()) {
    // A directly-populated fleet (bypassing with_fleet) gets the same
    // loud bound check, and shard.devices is forced consistent so every
    // observer of the config sees the fleet's true size.
    if (cfg_.fleet.size() > static_cast<std::size_t>(kMaxModeledDevices))
      throw std::invalid_argument(
          "Server: fleet of " + std::to_string(cfg_.fleet.size()) +
          " devices exceeds kMaxModeledDevices (" +
          std::to_string(kMaxModeledDevices) + ")");
    cfg_.shard.devices = static_cast<int>(cfg_.fleet.size());
  }
  if (!std::isfinite(cfg_.batch_overhead_seconds) ||
      cfg_.batch_overhead_seconds < 0)
    throw std::invalid_argument(
        "Server: batch_overhead_seconds must be finite and >= 0");
  if (cfg_.queue.max_depth == 0)
    throw std::invalid_argument("Server: queue.max_depth must be >= 1");
  // Fault configuration fails at construction, not mid-session: the
  // plan must target devices this deployment actually has, and the
  // tolerance knobs are validated even without a plan (a later
  // with_fault_plan on a copied config should not resurrect bad knobs).
  if (cfg_.fault_plan)
    validate_fault_plan(*cfg_.fault_plan, cfg_.shard.devices);
  validate_fault_tolerance(cfg_.fault_tolerance);
  // Model-registry validation: every entry callable, uniquely and
  // non-emptily named, with finite knobs. Cache namespaces are forced to
  // the registry index regardless of what the caller stamped — digest
  // isolation is structural, and entry 0 keeps the un-salted namespace
  // so a one-entry registry is bit-identical to start(model).
  for (std::size_t i = 0; i < cfg_.models.size(); ++i) {
    ModelEntry& m = cfg_.models[i];
    if (!m.fn)
      throw std::invalid_argument("Server: model '" + m.name +
                                  "' has a null ModelFn");
    if (m.name.empty())
      throw std::invalid_argument("Server: model " + std::to_string(i) +
                                  " has an empty name");
    for (std::size_t j = 0; j < i; ++j)
      if (cfg_.models[j].name == m.name)
        throw std::invalid_argument("Server: duplicate model name '" +
                                    m.name + "'");
    if (!std::isfinite(m.weight) || m.weight <= 0)
      throw std::invalid_argument("Server: model '" + m.name +
                                  "' weight must be finite and > 0");
    if (std::isnan(m.slo_budget_seconds) ||
        (m.slo_budget_seconds >= 0 && !std::isfinite(m.slo_budget_seconds)))
      throw std::invalid_argument(
          "Server: model '" + m.name +
          "' slo_budget_seconds must be finite (or negative to inherit)");
    const int cls = static_cast<int>(m.default_priority);
    if (cls < 0 || cls >= kNumPriorityClasses)
      throw std::invalid_argument("Server: model '" + m.name +
                                  "' has an invalid default_priority");
    m.cache_namespace = static_cast<std::uint64_t>(i);
  }
  // Validate the default policy knobs eagerly (throws invalid_argument)
  // so a bad configuration fails at construction, not at start() —
  // including the per-model batching contract the registry implies.
  if (!cfg_.batching) {
    if (cfg_.dedup_batching)
      DedupBatchingPolicy probe(cfg_.batcher, cfg_.priority,
                                model_batching_infos(cfg_.models));
    else
      SloBatchingPolicy probe(cfg_.batcher, cfg_.priority,
                              model_batching_infos(cfg_.models));
  }
  if (!cfg_.run.map_cache && cfg_.map_cache_bytes > 0)
    cfg_.run.map_cache =
        std::make_shared<KernelMapCache>(cfg_.map_cache_bytes);
  // Warm-start the server-owned wall-clock cache once, here: the first
  // request after a restart hits instead of rebuilding. Per-session
  // modeled warming is serve_stream's job (it reads cfg_.warm_snapshot
  // directly), so it applies identically every session.
  if (cfg_.run.map_cache && cfg_.warm_snapshot)
    cfg_.run.map_cache->import_snapshot(*cfg_.warm_snapshot);
}

Server::~Server() { stop(); }

void Server::launch_locked(std::vector<ModelEntry> models) {
  if (running_)
    throw std::logic_error(
        "Server::start: a session is already running (drain() or stop() "
        "it before starting another)");
  if (loop_.joinable()) loop_.join();
  queue_ = std::make_unique<RequestQueue>(cfg_.queue);
  report_ = StreamReport{};
  error_ = nullptr;
  std::shared_ptr<BatchingPolicy> batching = cfg_.batching;
  if (!batching) {
    // An empty registry contributes an empty info vector, which keeps
    // the policies on their (bit-identical) single-model code paths.
    if (cfg_.dedup_batching)
      batching = std::make_shared<DedupBatchingPolicy>(
          cfg_.batcher, cfg_.priority, model_batching_infos(cfg_.models));
    else
      batching = std::make_shared<SloBatchingPolicy>(
          cfg_.batcher, cfg_.priority, model_batching_infos(cfg_.models));
  }
  std::shared_ptr<RoutingPolicy> routing = cfg_.routing;
  if (!routing) routing = make_routing_policy(cfg_.shard.route);
  running_ = true;
  // The serving thread gets the queue pointer by value: it must not
  // read the guarded queue_ member (it never takes life_mu_ — drain()
  // holds that lock across the join). The session owns *q until the
  // join in drain()/stop(), so the pointer outlives the thread.
  RequestQueue* q = queue_.get();
  loop_ = std::thread([this, q, models = std::move(models), batching,
                       routing] {
    try {
      report_ = serve_stream(models, *q, cfg_, *batching, *routing,
                             &spare_contexts_);
    } catch (...) {
      error_ = std::current_exception();
    }
  });
}

void Server::start(ModelFn model) {
  MutexLock lock(life_mu_);
  if (!model) throw std::invalid_argument("Server::start: null model");
  if (!cfg_.models.empty())
    throw std::invalid_argument(
        "Server::start(model): this server hosts a model registry "
        "(ServerConfig::with_model); open sessions with start() and "
        "submit with submit_to()");
  // One default entry in namespace 0 with every knob inherited.
  std::vector<ModelEntry> models(1);
  models[0].name = "default";
  models[0].fn = std::move(model);
  launch_locked(std::move(models));
}

void Server::start() {
  MutexLock lock(life_mu_);
  if (cfg_.models.empty())
    throw std::logic_error(
        "Server::start(): no models registered (populate "
        "ServerConfig::with_model, or serve a single ModelFn through "
        "start(model))");
  launch_locked(cfg_.models);
}

StreamHandle Server::submit(SparseTensor input, double arrival_seconds,
                            Priority priority) {
  // life_mu_ (not just the running_ atomic): a submit racing drain()'s
  // start()-replacement of queue_ must never dereference the old queue
  // after its session freed it. Admission never blocks inside the
  // queue, so the lock hold is short; a submit arriving while drain()
  // joins simply waits and then gets the typed error.
  MutexLock lock(life_mu_);
  if (!running_ || !queue_)
    throw std::logic_error(
        "Server::submit: no session is running (call start() before "
        "submitting; a drained or stopped session does not admit)");
  return queue_->submit(std::move(input), arrival_seconds, priority);
}

std::optional<StreamHandle> Server::try_submit(SparseTensor input,
                                               double arrival_seconds,
                                               Priority priority) {
  MutexLock lock(life_mu_);
  if (!running_ || !queue_)
    throw std::logic_error(
        "Server::try_submit: no session is running (call start() before "
        "submitting; a drained or stopped session does not admit)");
  return queue_->try_submit(std::move(input), arrival_seconds, priority);
}

Priority Server::resolve_submission(
    int model, const std::optional<Priority>& priority) const {
  if (cfg_.models.empty())
    throw std::logic_error(
        "Server::submit_to: this server has no model registry "
        "(single-model deployments submit with submit())");
  if (model < 0 || static_cast<std::size_t>(model) >= cfg_.models.size())
    throw std::invalid_argument(
        "Server::submit_to: model " + std::to_string(model) +
        " is not registered (registry has " +
        std::to_string(cfg_.models.size()) + " model(s))");
  return priority ? *priority
                  : cfg_.models[static_cast<std::size_t>(model)]
                        .default_priority;
}

StreamHandle Server::submit_to(int model, SparseTensor input,
                               double arrival_seconds,
                               std::optional<Priority> priority) {
  MutexLock lock(life_mu_);
  if (!running_ || !queue_)
    throw std::logic_error(
        "Server::submit_to: no session is running (call start() before "
        "submitting; a drained or stopped session does not admit)");
  const Priority effective = resolve_submission(model, priority);
  return queue_->submit(std::move(input), arrival_seconds, effective,
                        model);
}

std::optional<StreamHandle> Server::try_submit_to(
    int model, SparseTensor input, double arrival_seconds,
    std::optional<Priority> priority) {
  MutexLock lock(life_mu_);
  if (!running_ || !queue_)
    throw std::logic_error(
        "Server::try_submit_to: no session is running (call start() "
        "before submitting; a drained or stopped session does not admit)");
  const Priority effective = resolve_submission(model, priority);
  return queue_->try_submit(std::move(input), arrival_seconds, effective,
                            model);
}

int Server::model_id(const std::string& name) const {
  for (std::size_t i = 0; i < cfg_.models.size(); ++i)
    if (cfg_.models[i].name == name) return static_cast<int>(i);
  return -1;
}

StreamReport Server::drain() {
  // life_mu_ serializes against stop()/start(): whichever of a racing
  // drain/stop pair runs second sees running_ already cleared and gets
  // the typed error / no-op instead of a second join (UB).
  MutexLock lock(life_mu_);
  if (!running_)
    throw std::logic_error(
        "Server::drain: no session is running (already drained or "
        "stopped, or start() was never called)");
  queue_->close();
  loop_.join();
  running_ = false;
  if (error_) std::rethrow_exception(error_);
  return std::move(report_);
}

void Server::stop() {
  MutexLock lock(life_mu_);
  if (!running_) {
    if (loop_.joinable()) loop_.join();
    return;
  }
  queue_->close();
  loop_.join();
  running_ = false;
  // A failed session already delivered its error through the handles;
  // stop() discards the report either way.
  error_ = nullptr;
}

BatchReport Server::run_batch(const ModelFn& model,
                              const std::vector<SparseTensor>& inputs) const {
  BatchOptions opt;
  opt.workers = cfg_.workers;
  opt.run = cfg_.run;  // map_cache already resolved in the constructor
  const BatchRunner runner(cfg_.device, cfg_.engine, opt);
  return runner.run(model, inputs);
}

std::size_t Server::depth() const {
  MutexLock lock(life_mu_);
  return running_ && queue_ ? queue_->depth() : 0;
}

std::size_t Server::rejected() const {
  MutexLock lock(life_mu_);
  return running_ && queue_ ? queue_->rejected() : 0;
}

}  // namespace ts::serve
