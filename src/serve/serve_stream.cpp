#include "serve/server.hpp"

#include <algorithm>
#include <deque>
#include <exception>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "serve/stream_placer.hpp"
#include "tensor/host_pool.hpp"

namespace ts::serve {

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

/// Validates policy-emitted batches and appends them to the plan.
void append_batches_locked(StreamShared& st,
                           std::vector<DispatchBatch> batches)
    TS_REQUIRES(st.mu) {
  for (DispatchBatch& b : batches) {
    claim_batch("serve_stream", b, st.results, st.assigned);
    st.plan.push_back(std::move(b));
  }
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
  const bool per_model_tuned =
      std::any_of(models.begin(), models.end(),
                  [](const ModelEntry& m) { return !m.tuned.empty(); });
  const int workers = std::max(config.workers, 1);
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

  StreamShared st;

  // Validates the fleet (non-empty, within kMaxModeledDevices).
  DeviceGroup group(config.fleet, cached ? run.map_cache->byte_budget() : 0);
  const int devices = group.size();
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
                      injector, SharedOnFinal{&st},
                      static_cast<int>(models.size()));

  // Batch membership only shapes the modeled schedule, so measurement
  // starts the moment a request is drained — no need to wait for its
  // batch. Measurement is device-agnostic: every request is measured on
  // the reference spec fleet.front() with cache accounting deferred, and
  // the modeled placement (StreamResult::device) is decided by the
  // routing pass, independently of which thread measured a request.
  auto worker = [&] {
    std::optional<ExecContext> ctx;
    if (context_pool) {
      // Context hand-off: adopt a warm context from a previous session
      // (reset before its first request like any reused context). st.mu
      // doubles as the pool's lock — hand-offs only happen at thread
      // start/exit.
      MutexLock lock(st.mu);
      if (!context_pool->empty()) {
        ctx.emplace(std::move(context_pool->back()));
        context_pool->pop_back();
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
        // The coordinator validated the model index before queuing the
        // work item, so this resolution cannot be out of range.
        const ModelEntry& entry =
            models[static_cast<std::size_t>(item.result->model)];
        // One reusable context per worker, reset between requests
        // (bit-identical to a fresh context; skips repeated cost-model
        // construction).
        if (!ctx)
          ctx.emplace(
              make_run_context(config.fleet.front(), config.engine, run));
        else
          reset_context(*ctx);
        // Per-request context restamp: every digest this request
        // resolves lives in its model's namespace, and the model's tuned
        // grouping parameters (when present) override the config-wide
        // store. Entry namespace 0 (model 0's space) inherits the
        // RunOptions namespace, so a caller-salted RunOptions namespace
        // still applies to single-model sessions.
        ctx->cache_namespace = entry.cache_namespace != 0
                                   ? entry.cache_namespace
                                   : run.cache_namespace;
        if (per_model_tuned)
          ctx->tuned = entry.tuned.empty() ? run.tuned : entry.tuned;
        if (item.events) ctx->cache_events = item.events;
        // borrow_input: the queue owns the drained tensor and nothing
        // reads it after measurement, so steal it instead of copying.
        {
          // While more than one measurement is in flight, the measuring
          // threads keep the host's cores busy themselves and each runs
          // its replays and GEMMs inline; a measurement alone (a
          // session's tail, a trickle of requests) gets the host pool.
          const ConcurrentCallerScope host_share;
          item.result->timeline =
              run.borrow_input
                  ? run_in_context(entry.fn, std::move(*item.input), *ctx)
                  : run_in_context(entry.fn, *item.input, *ctx);
        }
        item.result->service_seconds = item.result->timeline.total_seconds();
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

  // Measurement threads are a wall-clock resource only — modeled stats
  // are thread-count independent (deterministic accounting above) — so
  // their number comes from the host's cores, not from the modeled
  // lanes: `workers` sizes the schedule, never the thread count.
  std::vector<std::thread> threads(host_parallelism());
  for (std::thread& t : threads) t = std::thread(worker);

  // Coordinator (this thread): drain the queue in arrival order, feed
  // the batching policy, and hand each request to the measurement threads.
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
        append_batches_locked(st, batching.on_arrival(info));
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
    MutexLock lock(st.mu);
    if (!st.first_error) {
      try {
        append_batches_locked(st, batching.flush());
        try_place_locked(st, placer, queue);
      } catch (...) {
        fail_locked(st, std::current_exception());
      }
    }
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

  StreamReport report;
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

}  // namespace ts::serve
