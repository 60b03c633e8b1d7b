#include "serve/server.hpp"

#include "io/serialize.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

namespace ts::serve {

// ---------------------------------------------------------------------
// ServerConfig builder
// ---------------------------------------------------------------------

ServerConfig& ServerConfig::with_device(DeviceSpec d) {
  fleet.assign(std::max<std::size_t>(fleet.size(), 1), std::move(d));
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
ServerConfig& ServerConfig::with_devices(int n) {
  if (n > kMaxModeledDevices)
    throw std::invalid_argument(
        "ServerConfig::with_devices: " + std::to_string(n) +
        " devices exceeds kMaxModeledDevices (" +
        std::to_string(kMaxModeledDevices) + ")");
  const DeviceSpec base = fleet.empty() ? DeviceSpec{} : fleet.front();
  fleet.assign(static_cast<std::size_t>(std::max(n, 1)), base);
  return *this;
}
ServerConfig& ServerConfig::with_fleet(const std::vector<FleetTier>& tiers) {
  fleet = expand_fleet(tiers);  // validates; throws invalid_argument
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
// Server
// ---------------------------------------------------------------------

namespace {

/// The one-entry registry a bare ModelFn is served as: "default",
/// namespace 0, every knob inherited.
std::vector<ModelEntry> default_registry(ModelFn fn) {
  std::vector<ModelEntry> models(1);
  models[0].name = "default";
  models[0].fn = std::move(fn);
  return models;
}

/// The session's batching policy: the configured one, or a fresh
/// default (SloBatchingPolicy, or DedupBatchingPolicy under
/// dedup_batching) over the registry's per-model batching contract.
/// Building a default validates its knobs (std::invalid_argument).
std::shared_ptr<BatchingPolicy> session_batching(
    const ServerConfig& cfg, const std::vector<ModelEntry>& models) {
  if (cfg.batching) return cfg.batching;
  if (cfg.dedup_batching)
    return std::make_shared<DedupBatchingPolicy>(
        cfg.batcher, cfg.priority, model_batching_infos(models));
  return std::make_shared<SloBatchingPolicy>(cfg.batcher, cfg.priority,
                                             model_batching_infos(models));
}

}  // namespace

Server::Server(ServerConfig config) : cfg_(std::move(config)) {
  cfg_.workers = std::max(cfg_.workers, 1);
  if (cfg_.fleet.empty() ||
      cfg_.fleet.size() > static_cast<std::size_t>(kMaxModeledDevices))
    throw std::invalid_argument(
        "Server: fleet of " + std::to_string(cfg_.fleet.size()) +
        " devices outside [1, kMaxModeledDevices = " +
        std::to_string(kMaxModeledDevices) + "]");
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
    validate_fault_plan(*cfg_.fault_plan,
                        static_cast<int>(cfg_.fleet.size()));
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
  session_batching(cfg_, cfg_.models);
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
  session_models_ = models;
  std::shared_ptr<BatchingPolicy> batching = session_batching(cfg_, models);
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
  launch_locked(default_registry(std::move(model)));
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
  return submit_to(0, std::move(input), arrival_seconds, priority);
}

std::optional<StreamHandle> Server::try_submit(SparseTensor input,
                                               double arrival_seconds,
                                               Priority priority) {
  return try_submit_to(0, std::move(input), arrival_seconds, priority);
}

Priority Server::resolve_submission(
    const char* who, int model, const std::optional<Priority>& priority) const {
  if (!running_ || !queue_)
    throw std::logic_error(
        std::string(who) +
        ": no session is running (call start() before submitting; a "
        "drained or stopped session does not admit)");
  if (model < 0 || static_cast<std::size_t>(model) >= session_models_.size())
    throw std::invalid_argument(
        std::string(who) + ": model " + std::to_string(model) +
        " is not registered (the session's registry has " +
        std::to_string(session_models_.size()) + " model(s))");
  return priority ? *priority
                  : session_models_[static_cast<std::size_t>(model)]
                        .default_priority;
}

StreamHandle Server::submit_to(int model, SparseTensor input,
                               double arrival_seconds,
                               std::optional<Priority> priority) {
  // life_mu_ (not just the running_ atomic): a submit racing drain()'s
  // start()-replacement of queue_ must never dereference the old queue
  // after its session freed it. Admission never blocks inside the
  // queue, so the lock hold is short; a submit arriving while drain()
  // joins simply waits and then gets the typed error.
  MutexLock lock(life_mu_);
  const Priority effective =
      resolve_submission("Server::submit_to", model, priority);
  return queue_->submit(std::move(input), arrival_seconds, effective,
                        model);
}

std::optional<StreamHandle> Server::try_submit_to(
    int model, SparseTensor input, double arrival_seconds,
    std::optional<Priority> priority) {
  MutexLock lock(life_mu_);
  const Priority effective =
      resolve_submission("Server::try_submit_to", model, priority);
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
  if (running_) queue_->close();
  if (loop_.joinable()) loop_.join();
  running_ = false;
  // A failed session already delivered its error through the handles;
  // stop() discards the report either way.
  error_ = nullptr;
}

StreamReport Server::run_batch(const ModelFn& model,
                               const std::vector<SparseTensor>& inputs) const {
  // A zero-arrival session: every input is queued at t = 0 and dispatches
  // alone, so the placer puts each request, in input order, on the
  // earliest-free lane of the one device.
  ServerConfig batch;
  batch.fleet = {cfg_.fleet.front()};
  batch.engine = cfg_.engine;
  batch.workers = cfg_.workers;
  batch.run = cfg_.run;  // map_cache already resolved in the constructor
  batch.run.borrow_input = true;  // the queue owns its copies
  batch.batcher.policy = BatchPolicy::kImmediate;
  QueueOptions qopt;
  qopt.max_depth = std::max<std::size_t>(inputs.size(), 1);
  RequestQueue queue(qopt);
  for (const SparseTensor& x : inputs) queue.submit(x, 0.0);
  queue.close();
  SloBatchingPolicy batching(batch.batcher, batch.priority);
  const std::unique_ptr<RoutingPolicy> routing =
      make_routing_policy(batch.shard.route);
  return serve_stream(default_registry(model), queue, batch, batching,
                      *routing);
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
