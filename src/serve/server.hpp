// serve::Server — the unified, long-lived serving session API.
//
// One composable deployment object configures every serving knob and
// hosts streaming sessions:
//
//   ServerConfig cfg;                      // builder: unify every knob
//   cfg.with_device(rtx2080ti())
//      .with_engine(torchsparse_config())
//      .with_workers(4)
//      .with_devices(2)
//      .with_route(RoutePolicy::kCacheAffinity)
//      .with_map_cache_bytes(256u << 20);
//   Server server(cfg);
//   server.start(model);                   // spawn the serving session
//   auto h = server.submit(scan, t, Priority::kHigh);
//   ... h.get() the moment its batch is placed (incremental) ...
//   StreamReport report = server.drain();  // close, join, full stats
//
// What a session provides:
//  * Pluggable policies — batch formation (BatchingPolicy) and device
//    routing (RoutingPolicy) are interfaces (serve_policies.hpp), not
//    enum switches; heterogeneous device groups plug in through the
//    routing policy's per-device service-estimate hook.
//  * Priority classes — every submission carries a Priority; the
//    default batching policy implements strict-priority-plus-aging and
//    StreamStats reports per-class latency percentiles.
//  * Incremental fulfillment — batches are placed on the modeled
//    schedule in dispatch order as soon as all their members are
//    measured, so a StreamHandle resolves when its own batch completes
//    in modeled submission order, not at stream end.
//
// The modeled-determinism contract: every result is
// bit-identical to a serial run_model, and every modeled statistic
// depends only on the submitted (input, arrival, priority) stream and
// the configuration — never on thread timing, worker count, or when a
// handle was observed.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/sync.hpp"
#include "engines/runner.hpp"
#include "serve/fault.hpp"
#include "serve/request_queue.hpp"
#include "serve/serve_policies.hpp"
#include "serve/serve_stats.hpp"

namespace ts::serve {

/// One hosted model of a multi-model deployment (ServerConfig::models).
/// Requests name a model by registry index (submit_to / RequestQueue's
/// `model` field); the serving session resolves the entry per request —
/// its ModelFn, tuned parameters, cache namespace, SLO budget, and
/// fairness weight — so one fleet serves heterogeneous models with
/// per-model guarantees. Register through ServerConfig::with_model,
/// which stamps the isolation namespace.
struct ModelEntry {
  /// Registry name (unique, non-empty); resolvable via
  /// Server::model_id.
  std::string name;
  ModelFn fn;
  /// Per-model SLO wait budget for the batcher's deadline trigger; a
  /// negative value (the default) inherits
  /// BatcherOptions::slo_budget_seconds.
  double slo_budget_seconds = -1;
  /// Priority class stamped on submit_to calls that don't specify one.
  Priority default_priority = Priority::kNormal;
  /// Deficit-round-robin fairness weight (relative dispatch share under
  /// cross-model contention). Must be finite and > 0.
  double weight = 1.0;
  /// Kernel-map digest namespace (salt_cache_key): with_model stamps
  /// this to the registry index — and Server's constructor re-stamps it
  /// — so model 0 keeps the un-salted digest space (warm snapshots stay
  /// valid, single-model registries are digest-identical to
  /// start(model) sessions) while every later model gets an independent
  /// remap, making cross-model cache collisions impossible by
  /// construction rather than by configuration discipline.
  uint64_t cache_namespace = 0;
  /// Per-model tuned grouping parameters (Alg. 5 output, typically from
  /// a TunedParamStore lookup for this model's workload). Empty (the
  /// default) inherits RunOptions::tuned.
  std::unordered_map<int, GroupParams> tuned;
};

/// One unified deployment description: device fleet/engine, modeled
/// lanes, per-request run options, admission, batching, sharding, and the
/// pluggable policies. Plain struct with chainable with_* setters —
/// set fields directly or build fluently, both are fine.
struct ServerConfig {
  /// The device shards, one DeviceSpec each, in shard order — the only
  /// device description (one device is a fleet of one, the default).
  /// with_device, with_devices and with_fleet all write this list, so
  /// their call order does not matter. fleet.front() is the measurement
  /// reference: serve_stream measures every request on it, and
  /// the other tiers enter the schedule through the routing policy's
  /// device_service_estimate scaling, never through measurement. Server's
  /// constructor rejects an empty fleet or one past kMaxModeledDevices.
  std::vector<DeviceSpec> fleet = std::vector<DeviceSpec>(1);
  EngineConfig engine;
  /// Modeled lanes per device: how many batches one shard serves at
  /// once on the modeled clock. It never sizes host threads — a session
  /// measures requests on host_parallelism() threads whatever its value.
  int workers = 1;
  RunOptions run;                  // numerics, tuned params, map_cache...
  /// Byte budget for a server-owned cross-request KernelMapCache (0 =
  /// disabled; ignored when run.map_cache is already set, which is how
  /// deployments share one cache). Near-duplicate scans then reuse each
  /// other's kernel maps and downsampled coordinate sets: results stay
  /// bit-identical to the cold path, map-build wall time is skipped on
  /// hits, and the modeled mapping charge is replaced by a small re-key
  /// cost through each device's deterministic MapCacheReplay
  /// (worker-count independent; docs/PERFORMANCE.md).
  std::size_t map_cache_bytes = 0;
  QueueOptions queue;              // admission depth + priority preemption
  BatcherOptions batcher;          // default batching policy's knobs
  PriorityOptions priority;        // strict-priority aging knobs
  /// Fixed modeled setup cost charged once per dispatched batch; the
  /// amortizable slice that makes larger batches cheaper per request.
  double batch_overhead_seconds = 0;
  ShardOptions shard;              // built-in route policy
  /// Custom batch formation; when null the server builds a
  /// SloBatchingPolicy(batcher, priority) per session. Stateful and
  /// driven single-threaded — do not share one instance between
  /// concurrently running servers.
  std::shared_ptr<BatchingPolicy> batching;
  /// Custom routing (e.g. heterogeneous service estimates); when null
  /// the server uses make_routing_policy(shard.route).
  std::shared_ptr<RoutingPolicy> routing;
  /// Warm-start manifest (null = cold starts, the default): a kernel-map
  /// cache snapshot — typically a previous deployment's
  /// KernelMapCache::save_snapshot image — applied twice. The
  /// server-owned wall-clock cache imports the payloads once at
  /// construction, so the first request after a restart hits instead of
  /// rebuilding; and every serving session seeds each device shard's
  /// modeled cache from the manifest (DeviceGroup::warm_start) before
  /// any batch is routed, so modeled hit/miss accounting — still
  /// deterministic and worker-count invariant — starts from the warmed
  /// population instead of cold. Populate through warm_start(path) /
  /// with_warm_snapshot.
  std::shared_ptr<const MapCacheSnapshot> warm_snapshot;
  /// Replace the default SloBatchingPolicy with DedupBatchingPolicy:
  /// same deadline/priority rules, but same-content-digest requests
  /// group into one dispatch (see serve_policies.hpp). Ignored when a
  /// custom `batching` policy is set.
  bool dedup_batching = false;
  /// Deterministic fault schedule (see serve/fault.hpp); null or empty
  /// (the default) injects nothing: every shard stays UP and every
  /// batch is final the moment it is placed. With faults in the plan,
  /// shards go DOWN/DEGRADED on the modeled clock, lost batches are
  /// redispatched through the routing policy under `fault_tolerance`'s
  /// retry budget, and unservable requests resolve with typed
  /// ServeError results. Populate through with_fault_plan.
  std::shared_ptr<const FaultPlan> fault_plan;
  /// Retry / backoff / probation / degradation knobs, validated at
  /// Server construction. Retry, backoff and probation only act when
  /// the plan injects faults; finite degrade_deadline_seconds shed
  /// deadline-hopeless requests with or without a plan.
  FaultToleranceOptions fault_tolerance;
  /// Model registry. With entries, sessions open with start() — no
  /// argument — and submissions target entries by index (submit_to) or
  /// name (model_id). Empty means start(model) supplies the one ModelFn:
  /// the session then serves a one-entry registry (namespace 0, inherited
  /// SLO), bit-identical to the same deployment with that one entry
  /// registered. Populate through with_model.
  std::vector<ModelEntry> models;

  /// Sets every shard of `fleet` to `d`, keeping the shard count.
  ServerConfig& with_device(DeviceSpec d);
  ServerConfig& with_engine(EngineConfig e);
  ServerConfig& with_workers(int n);
  ServerConfig& with_run(RunOptions r);
  ServerConfig& with_map_cache_bytes(std::size_t bytes);
  ServerConfig& with_queue_depth(std::size_t depth);
  ServerConfig& with_priority_preemption(bool on);
  ServerConfig& with_batcher(BatcherOptions b);
  ServerConfig& with_priority(PriorityOptions p);
  ServerConfig& with_batch_overhead(double seconds);
  /// Makes `fleet` `n` copies of fleet.front(): `n` below 1 clamps to 1,
  /// `n` past kMaxModeledDevices throws std::invalid_argument.
  ServerConfig& with_devices(int n);
  /// Describes a heterogeneous fleet as {spec, count} tiers, e.g.
  ///   cfg.with_fleet({{device_spec_by_name("1080ti"), 2},
  ///                   {device_spec_by_name("3090"), 2}});
  /// Assigns the expanded tiers to `fleet` (expand_fleet validation:
  /// std::invalid_argument on an empty list, a non-positive count, or a
  /// total past kMaxModeledDevices); the first tier's spec is the
  /// measurement reference. A single-tier call is the homogeneous
  /// configuration with_device + with_devices builds.
  ServerConfig& with_fleet(const std::vector<FleetTier>& tiers);
  ServerConfig& with_route(RoutePolicy r);
  ServerConfig& with_batching_policy(std::shared_ptr<BatchingPolicy> p);
  ServerConfig& with_routing_policy(std::shared_ptr<RoutingPolicy> p);
  /// Loads a .tsmc snapshot file (io::load_map_cache_file — throws
  /// std::runtime_error on a missing or malformed file, before anything
  /// is configured) into warm_snapshot.
  ServerConfig& warm_start(const std::string& path);
  ServerConfig& with_warm_snapshot(
      std::shared_ptr<const MapCacheSnapshot> snap);
  ServerConfig& with_dedup_batching(bool on = true);
  ServerConfig& with_fault_plan(FaultPlan plan);
  ServerConfig& with_fault_plan(std::shared_ptr<const FaultPlan> plan);
  ServerConfig& with_fault_tolerance(FaultToleranceOptions opt);
  /// Per-class admission cap (QueueOptions::class_max_depth): at most
  /// `depth` pending requests of `cls`; 0 = unlimited (the default).
  /// Degradation lever: cap the low classes so a fault-shrunken fleet
  /// sheds them at admission instead of queueing them into hopeless
  /// deadlines.
  ServerConfig& with_class_queue_depth(Priority cls, std::size_t depth);
  /// Registers one hosted model; registry index = registration order.
  /// `slo_budget_seconds` < 0 inherits the batcher's budget;
  /// `default_priority` stamps submissions that don't pick a class;
  /// `weight` is the model's DRR fairness share. The entry's cache
  /// namespace is stamped to its registry index (see ModelEntry).
  ServerConfig& with_model(std::string name, ModelFn fn,
                           double slo_budget_seconds = -1,
                           Priority default_priority = Priority::kNormal,
                           double weight = 1.0);
  /// Full-entry overload (per-model tuned parameters etc.). The
  /// cache_namespace field is overwritten with the registry index —
  /// isolation is structural, not configurable.
  ServerConfig& with_model(ModelEntry entry);
  /// Installs per-model tuned grouping parameters on an already
  /// registered model (std::invalid_argument on an unknown index).
  ServerConfig& with_model_tuned(int model,
                                 std::unordered_map<int, GroupParams> tuned);
};

/// The ModelBatchingInfo table a registry induces (one entry per model:
/// its SLO budget and DRR weight) — what the server feeds its default
/// SloBatchingPolicy/DedupBatchingPolicy so batching sees the same
/// per-model contract the submission path enforces. Exposed for callers
/// wiring custom policies to a registry config.
std::vector<ModelBatchingInfo> model_batching_infos(
    const std::vector<ModelEntry>& models);

/// One-shot modeled scheduler: places `plan` (explicit, possibly
/// non-contiguous member lists, in dispatch order) over the device group
/// under `routing`, replaying per-member cache events through each
/// batch's routed device and filling every request's schedule fields.
/// Runs the same placer as a serving session, so policy sweeps
/// (bench/fig15, fig19) can reuse one set of measured service times
/// across many batching and routing configurations. `requests` must be
/// in submission order with id, arrival_seconds and service_seconds
/// set; `events` (when non-null) must be parallel to requests, and null
/// means the kernel-map cache is disabled. `group` is reset, so every
/// call accounts from a cold modeled state. On a 1-device group with no
/// events every batch goes to device 0's earliest-available lane.
/// Preconditions (std::invalid_argument): plan members partition
/// [0, requests.size()), every member arrived by its batch's dispatch
/// stamp, overhead finite >= 0. `fault_plan` (validated against the
/// group size; null = no faults) and `fault_tolerance` (defaults when
/// null) configure the placer exactly as ServerConfig's fields do;
/// failed requests carry ServeErrorCode results and produce no batch
/// record.
StreamStats schedule_stream_dispatch(
    std::vector<StreamResult>& requests,
    const std::vector<DispatchBatch>& plan, DeviceGroup& group,
    RoutingPolicy& routing, int workers_per_device,
    double batch_overhead_seconds,
    const std::vector<std::vector<MapCacheEvent>>* events = nullptr,
    std::vector<StreamBatchRecord>* batches = nullptr,
    const FaultPlan* fault_plan = nullptr,
    const FaultToleranceOptions* fault_tolerance = nullptr);

/// One serving session over an externally owned queue with explicit
/// policies — the engine room Server runs on its background thread.
/// Drains `queue` until closed and empty, measures every request on
/// host_parallelism() measurement threads, forms batches with
/// `batching`, and places them incrementally: each batch is routed,
/// cache-accounted, and laned as soon as all earlier batches are placed
/// and its members measured,
/// fulfilling the members' StreamHandles once their results are final.
/// `context_pool`, when non-null, supplies reusable ExecContexts handed
/// back on return (Server keeps warm contexts across sessions this
/// way).
///
/// Requests resolve against `models` (by PendingRequest::model).
/// Measurement threads restamp their context per request — the entry's
/// ModelFn, tuned parameters, and cache namespace — so every digest a
/// request resolves lives in its model's namespace and two models can
/// never alias each other's kernel-map entries. Dedup digests are salted
/// the same way, keeping duplicate grouping within a model.
///
/// Determinism: the report depends only on the drained (input, arrival,
/// priority, model) stream, the config, and the policies. Preconditions
/// (std::invalid_argument): `models` non-empty with non-null fns;
/// config.fleet non-empty and within kMaxModeledDevices.
/// Exception guarantee: on a request failure, a policy contract
/// violation, or a drained request targeting an index outside the
/// registry, the queue is closed, every unfulfilled handle receives the
/// error, and the error is rethrown.
StreamReport serve_stream(const std::vector<ModelEntry>& models,
                          RequestQueue& queue, const ServerConfig& config,
                          BatchingPolicy& batching, RoutingPolicy& routing,
                          std::vector<ExecContext>* context_pool = nullptr);

/// Long-lived serving session host: owns the admission queue, the
/// serving thread, and warm measurement contexts kept across sessions.
///
/// Lifecycle: construct → start(model) → submit(...)* → drain() →
/// (start again with the same or another model) → ... → stop().
/// start/drain pairs are serving *sessions*; modeled statistics are
/// per session (cold modeled caches each time, or warm-seeded from
/// warm_snapshot), while the wall-clock KernelMapCache and the
/// measurement contexts stay warm across sessions.
///
/// Thread-safety: submit/try_submit are safe from any number of
/// producer threads while the session runs. start/drain/stop are
/// serialized against each other internally, so misuse from multiple
/// controlling threads (drain racing stop, concurrent start) surfaces
/// as a typed std::logic_error on the loser — never a hang, a
/// double-join, or UB. Admission shares that lock: a submit racing a
/// drain/start cycle either lands in the closing session's queue
/// (resolving through its handle) or observes the session gone and
/// gets the typed error — it can never dereference a freed queue.
class Server {
 public:
  /// Validates the configuration (std::invalid_argument): workers
  /// clamped to >= 1, fleet non-empty and bounded by kMaxModeledDevices,
  /// overhead finite >= 0; builds the shared kernel-map cache from
  /// map_cache_bytes when run.map_cache is null.
  explicit Server(ServerConfig config);

  /// Joins a running session (discarding its report) before destroying.
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Opens a serving session over the single supplied model, for
  /// deployments with no registry: the session serves a one-entry
  /// registry ("default", namespace 0, every knob inherited).
  /// Preconditions: no session is running (std::logic_error); the
  /// config has no registered models (std::invalid_argument — a
  /// registry deployment opens sessions with the no-argument start()).
  void start(ModelFn model);

  /// Opens a serving session over the configured model registry
  /// (ServerConfig::with_model). Preconditions: no session is running
  /// (std::logic_error); at least one model is registered
  /// (std::logic_error).
  void start();

  /// True between start() and drain()/stop().
  bool running() const { return running_; }

  /// submit_to(0, ...) with an explicit class: model 0 of the session's
  /// registry (the one model of a start(model) session).
  StreamHandle submit(SparseTensor input, double arrival_seconds,
                      Priority priority = Priority::kNormal);

  /// try_submit_to(0, ...) with an explicit class.
  std::optional<StreamHandle> try_submit(
      SparseTensor input, double arrival_seconds,
      Priority priority = Priority::kNormal);

  /// Submits one request to model `model` of the running session
  /// (std::logic_error when no session is running). `model` must index
  /// the session's registry (std::invalid_argument otherwise); a
  /// start(model) session's registry is its one model, index 0. When
  /// `priority` is nullopt the entry's default_priority applies — the
  /// per-model class default. Same admission semantics as
  /// RequestQueue::submit; the handle resolves incrementally, the moment
  /// the request's batch is placed on the modeled schedule.
  /// Mind the StreamHandle deadlock caveat: a request the batching
  /// policy is still holding (open batch, strict-priority hold) only
  /// dispatches on a later arrival or at drain(), so the controlling
  /// thread must not block on such a handle before drain().
  StreamHandle submit_to(int model, SparseTensor input,
                         double arrival_seconds,
                         std::optional<Priority> priority = std::nullopt);

  /// Non-throwing submit_to: nullopt instead of AdmissionError (bad
  /// model indices and lifecycle misuse still throw — caller bugs, not
  /// load shedding).
  std::optional<StreamHandle> try_submit_to(
      int model, SparseTensor input, double arrival_seconds,
      std::optional<Priority> priority = std::nullopt);

  /// Registry index of the named model, or -1 when no such model is
  /// registered.
  int model_id(const std::string& name) const;

  /// Ends the session: closes the queue, joins the serving thread, and
  /// returns the session's report (rethrows the serving error if the
  /// session failed). Precondition (std::logic_error): a session is
  /// running.
  StreamReport drain();

  /// Ends any running session and discards its report (errors were
  /// already delivered through the handles). Safe to call when idle;
  /// called by the destructor.
  void stop();

  /// The offline fixed-batch path under the same deployment: serves
  /// `inputs` as a zero-arrival session on serve_stream — every input
  /// arrives at t = 0 and dispatches alone (BatchPolicy::kImmediate) on
  /// fleet.front() with `workers` lanes, no batch overhead, faults or
  /// warm snapshot — so each request takes the earliest-free lane in
  /// input order. Measures with the deployment's engine and RunOptions
  /// (including the shared kernel-map cache); requests are in input
  /// order and bit-identical to a serial run_model. Does not interact
  /// with the streaming session. Exception guarantee: the first request
  /// failure is rethrown after the session's measurement threads drain.
  StreamReport run_batch(const ModelFn& model,
                         const std::vector<SparseTensor>& inputs) const;

  /// Admission-side observers of the running session (0 when idle).
  std::size_t depth() const;
  std::size_t rejected() const;

  const ServerConfig& config() const { return cfg_; }

  /// The server-owned cross-request kernel-map cache (null when
  /// disabled). Wall-clock observability; stays warm across sessions.
  const std::shared_ptr<KernelMapCache>& map_cache() const {
    return cfg_.run.map_cache;
  }

 private:
  /// Shared session launcher behind start()/start(model): replaces the
  /// queue, builds the session policies, and spawns the serving thread
  /// over the session registry `models`.
  void launch_locked(std::vector<ModelEntry> models) TS_REQUIRES(life_mu_);
  /// Checks that a session is running (std::logic_error), validates a
  /// submission's model index against the session registry
  /// (std::invalid_argument) and resolves its effective priority
  /// (explicit, or the entry default). Errors are prefixed with `who`.
  Priority resolve_submission(const char* who, int model,
                              const std::optional<Priority>& priority) const
      TS_REQUIRES(life_mu_);

  /// Immutable after construction (safe to read without life_mu_).
  ServerConfig cfg_;
  /// Serializes start/drain/stop so lifecycle misuse (drain racing
  /// stop, concurrent start) is a typed error, never a double-join —
  /// and guards queue_ so admission can never race start()'s queue
  /// replacement into a freed RequestQueue. The serving thread never
  /// takes this lock (drain() holds it across the join).
  mutable Mutex life_mu_;
  std::unique_ptr<RequestQueue> queue_ TS_GUARDED_BY(life_mu_);
  /// The running session's model registry (cfg_.models, or the one
  /// start(model) entry); submissions are validated against it.
  std::vector<ModelEntry> session_models_ TS_GUARDED_BY(life_mu_);
  std::thread loop_;
  std::atomic<bool> running_{false};
  /// Session outcome and warm contexts: written by the serving thread,
  /// read/reset only between sessions after loop_.join() — the join's
  /// happens-before is the synchronization, not a lock (annotating
  /// them under life_mu_ would force the serving thread to take it and
  /// deadlock against drain's join).
  StreamReport report_;
  std::exception_ptr error_;
  /// Warm contexts handed back by the session's measurement threads,
  /// reused by the next session (reset before their first request).
  std::vector<ExecContext> spare_contexts_;
};

}  // namespace ts::serve
