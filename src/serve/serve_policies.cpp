#include "serve/serve_policies.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <tuple>

namespace ts::serve {

const char* to_string(BatchPolicy p) {
  switch (p) {
    case BatchPolicy::kImmediate: return "immediate";
    case BatchPolicy::kFullBatch: return "full-batch";
    case BatchPolicy::kSloAware: return "slo-aware";
  }
  return "?";
}

const char* to_string(Priority p) {
  switch (p) {
    case Priority::kHigh: return "high";
    case Priority::kNormal: return "normal";
    case Priority::kLow: return "low";
  }
  return "?";
}

// ---------------------------------------------------------------------
// SloBatchingPolicy
// ---------------------------------------------------------------------

SloBatchingPolicy::SloBatchingPolicy(BatcherOptions opt,
                                     PriorityOptions priority,
                                     std::vector<ModelBatchingInfo> models)
    : opt_(opt), prio_(priority), models_(std::move(models)) {
  if (opt_.max_batch < 1) opt_.max_batch = 1;
  if (!(opt_.slo_budget_seconds >= 0) ||
      !std::isfinite(opt_.slo_budget_seconds))
    throw std::invalid_argument(
        "SloBatchingPolicy: slo_budget_seconds must be finite and >= 0");
  if (!(prio_.aging_seconds > 0))  // NaN and <= 0 both fail here
    throw std::invalid_argument(
        "SloBatchingPolicy: aging_seconds must be > 0 (infinity = aging "
        "off)");
  for (std::size_t m = 0; m < models_.size(); ++m) {
    const ModelBatchingInfo& info = models_[m];
    if (!(info.weight > 0) || !std::isfinite(info.weight))
      throw std::invalid_argument(
          "SloBatchingPolicy: model " + std::to_string(m) +
          " weight must be finite and > 0");
    // A negative budget means "inherit"; a non-negative one must be a
    // usable deadline offset.
    if (info.slo_budget_seconds >= 0 &&
        !std::isfinite(info.slo_budget_seconds))
      throw std::invalid_argument(
          "SloBatchingPolicy: model " + std::to_string(m) +
          " slo_budget_seconds must be finite (or < 0 to inherit)");
    if (std::isnan(info.slo_budget_seconds))
      throw std::invalid_argument(
          "SloBatchingPolicy: model " + std::to_string(m) +
          " slo_budget_seconds must not be NaN");
  }
  credit_.assign(models_.size(), 0.0);
}

double SloBatchingPolicy::budget(int model) const {
  if (model >= 0 && static_cast<std::size_t>(model) < models_.size()) {
    const double b = models_[static_cast<std::size_t>(model)]
                         .slo_budget_seconds;
    if (b >= 0) return b;
  }
  return opt_.slo_budget_seconds;
}

int SloBatchingPolicy::effective_class(const Pending& p, double now) const {
  int c = static_cast<int>(p.priority);
  if (c > 0 && prio_.aging_enabled()) {
    const double waited = now - p.arrival;
    if (waited > 0) {
      // Compare in double before narrowing: a tiny aging interval can
      // put the promotion count far past INT_MAX, and the cast itself
      // would be UB. Any count >= the class index clamps to the top.
      const double promotions = std::floor(waited / prio_.aging_seconds);
      c = promotions >= static_cast<double>(c)
              ? 0
              : c - static_cast<int>(promotions);
    }
  }
  return c;
}

int SloBatchingPolicy::batch_cap() const {
  return opt_.policy == BatchPolicy::kImmediate ? 1 : opt_.max_batch;
}

bool SloBatchingPolicy::class_full(double now) const {
  if (pending_.empty()) return false;
  int top = kNumPriorityClasses;
  for (const Pending& p : pending_) top = std::min(top, effective_class(p, now));
  std::size_t count = 0;
  for (const Pending& p : pending_)
    if (effective_class(p, now) == top) ++count;
  return count >= static_cast<std::size_t>(batch_cap());
}

std::vector<std::size_t> SloBatchingPolicy::select_members(
    const std::vector<std::size_t>& eligible, double stamp) {
  (void)stamp;
  const std::size_t n =
      std::min<std::size_t>(static_cast<std::size_t>(batch_cap()),
                            eligible.size());
  return std::vector<std::size_t>(eligible.begin(),
                                  eligible.begin() +
                                      static_cast<std::ptrdiff_t>(n));
}

void SloBatchingPolicy::dispatch_at(double when,
                                    std::vector<DispatchBatch>& out,
                                    int forced_model) {
  const double stamp = std::max(when, last_dispatch_);
  // Strict-priority-plus-aging selection among requests that had
  // arrived by the dispatch stamp; later arrivals stay pending (a batch
  // may not contain a request from its own modeled future).
  std::vector<std::size_t> eligible;
  eligible.reserve(pending_.size());
  for (std::size_t i = 0; i < pending_.size(); ++i)
    if (pending_[i].arrival <= stamp) eligible.push_back(i);
  std::sort(eligible.begin(), eligible.end(),
            [&](std::size_t a, std::size_t b) {
              const Pending& pa = pending_[a];
              const Pending& pb = pending_[b];
              return std::make_tuple(effective_class(pa, stamp), pa.arrival,
                                     pa.id) <
                     std::make_tuple(effective_class(pb, stamp), pb.arrival,
                                     pb.id);
            });
  // Cross-model arbitration (registries of 2+ models only — the legacy
  // single-model path never enters this block, keeping its plans
  // structurally untouched): confine the batch to one model, chosen by
  // deficit round-robin within the top eligible effective class, unless
  // a deadline firing forces the model.
  int chosen = 0;
  if (multi_model() && !eligible.empty()) {
    // Dispatch opportunity: every model with eligible work in the top
    // effective class earns its weight. The class gate keeps strict
    // priority dominant — a model with only low-class pending work
    // neither earns credit nor wins while a higher class is waiting.
    const int top = effective_class(pending_[eligible.front()], stamp);
    std::vector<char> candidate(models_.size(), 0);
    for (const std::size_t pos : eligible) {
      const Pending& p = pending_[pos];
      if (effective_class(p, stamp) == top)
        candidate[static_cast<std::size_t>(p.model)] = 1;
    }
    for (std::size_t m = 0; m < models_.size(); ++m)
      if (candidate[m]) credit_[m] += models_[m].weight;
    // A forced model (deadline firing) must have eligible work — the
    // firing request itself arrived by the deadline stamp.
    bool forced_ok = false;
    if (forced_model >= 0 &&
        static_cast<std::size_t>(forced_model) < models_.size()) {
      for (const std::size_t pos : eligible)
        if (pending_[pos].model == forced_model) {
          forced_ok = true;
          break;
        }
    }
    if (forced_ok) {
      chosen = forced_model;
    } else {
      // Richest candidate wins; strict > keeps the lowest model id on
      // exact ties (deterministic — credits are pure FP functions of
      // the fed stream).
      chosen = -1;
      for (std::size_t m = 0; m < models_.size(); ++m) {
        if (!candidate[m]) continue;
        if (chosen < 0 || credit_[m] > credit_[static_cast<std::size_t>(
                                           chosen)])
          chosen = static_cast<int>(m);
      }
      if (chosen < 0) chosen = 0;  // unreachable: eligible is non-empty
    }
    // Filter the sorted eligible set to the chosen model; order (and
    // therefore the select_members contract) is preserved.
    std::vector<std::size_t> mine;
    mine.reserve(eligible.size());
    for (const std::size_t pos : eligible)
      if (pending_[pos].model == chosen) mine.push_back(pos);
    eligible.swap(mine);
  }
  // Membership is the policy-specific part (base: the first batch_cap();
  // dedup: whole digest groups); the trigger and stamp machinery around
  // it is shared.
  std::vector<std::size_t> taken = select_members(eligible, stamp);
  if (taken.empty() && !eligible.empty())
    throw std::logic_error(
        "BatchingPolicy: select_members took no member from a non-empty "
        "eligible set — the dispatch sweep would never terminate");
  if (multi_model())
    credit_[static_cast<std::size_t>(chosen)] -=
        static_cast<double>(taken.size());
  DispatchBatch batch;
  batch.dispatch_seconds = stamp;
  batch.model = taken.empty() ? chosen : pending_[taken.front()].model;
  batch.members.reserve(taken.size());
  for (const std::size_t pos : taken)
    batch.members.push_back(pending_[pos].id);
  // Remove the selected members (positions, highest first, so earlier
  // indices stay valid).
  std::sort(taken.begin(), taken.end());
  for (std::size_t k = taken.size(); k > 0; --k)
    pending_.erase(pending_.begin() +
                   static_cast<std::ptrdiff_t>(taken[k - 1]));
  last_dispatch_ = stamp;
  out.push_back(std::move(batch));
}

std::vector<DispatchBatch> SloBatchingPolicy::on_arrival(
    const ArrivalInfo& arrival) {
  if (!std::isfinite(arrival.arrival_seconds) || arrival.arrival_seconds < 0)
    throw std::invalid_argument(
        "SloBatchingPolicy::on_arrival: arrival time must be finite and >= "
        "0");
  if (any_arrival_ && arrival.arrival_seconds < last_arrival_)
    throw std::invalid_argument(
        "SloBatchingPolicy::on_arrival: arrival times must be "
        "non-decreasing (got " + std::to_string(arrival.arrival_seconds) +
        " after " + std::to_string(last_arrival_) + ")");
  // Model ids index the registry table (and the credit ledger); an
  // unregistered id would corrupt both, so it dies at the feed boundary.
  if (models_.empty()) {
    if (arrival.model != 0)
      throw std::invalid_argument(
          "SloBatchingPolicy::on_arrival: model " +
          std::to_string(arrival.model) +
          " on a single-model policy (only model 0 exists)");
  } else if (arrival.model < 0 ||
             static_cast<std::size_t>(arrival.model) >= models_.size()) {
    throw std::invalid_argument(
        "SloBatchingPolicy::on_arrival: model " +
        std::to_string(arrival.model) + " outside the registry [0, " +
        std::to_string(models_.size()) + ")");
  }

  std::vector<DispatchBatch> out;
  // Deadline sweep: any pending request whose wait budget ran out
  // strictly before this arrival forces a (back-stamped) dispatch; the
  // loop drains a backlog one priority-selected batch at a time. Each
  // dispatched batch is guaranteed at least one member (the request
  // whose deadline fired), so the sweep terminates.
  if (opt_.policy == BatchPolicy::kSloAware) {
    if (multi_model()) {
      // Per-model budgets: the earliest (arrival + budget(model)) expiry
      // fires, and the dispatch is forced onto the firing request's
      // model — a quiet model's deadline can never be out-credited.
      while (!pending_.empty()) {
        double deadline = std::numeric_limits<double>::infinity();
        int firing = -1;
        for (const Pending& p : pending_) {
          const double d = p.arrival + budget(p.model);
          if (d < deadline) {  // strict: ties keep the earliest-fed
            deadline = d;
            firing = p.model;
          }
        }
        if (!(arrival.arrival_seconds > deadline)) break;
        dispatch_at(deadline, out, firing);
      }
    } else {
      while (!pending_.empty()) {
        double oldest = pending_.front().arrival;
        for (const Pending& p : pending_) oldest = std::min(oldest, p.arrival);
        const double deadline = oldest + opt_.slo_budget_seconds;
        if (!(arrival.arrival_seconds > deadline)) break;
        dispatch_at(deadline, out);
      }
    }
  }

  pending_.push_back({arrival.id, arrival.arrival_seconds, arrival.priority,
                      arrival.model, arrival.digest, arrival.has_digest});
  last_arrival_ = arrival.arrival_seconds;
  any_arrival_ = true;

  // Class-full trigger: the highest pending effective class filled a
  // batch. Counting only the top class is the strict-priority gate —
  // lower-class requests neither trigger nor (unless aged up) win
  // slots while a higher class is pending.
  while (class_full(arrival.arrival_seconds))
    dispatch_at(arrival.arrival_seconds, out);
  return out;
}

std::vector<DispatchBatch> SloBatchingPolicy::flush() {
  std::vector<DispatchBatch> out;
  while (!pending_.empty()) dispatch_at(last_arrival_, out);
  last_arrival_ = 0;
  last_dispatch_ = 0;
  any_arrival_ = false;
  // Every stream starts from the same fair state — carried-over credit
  // would make one session's plan depend on the previous session's mix.
  credit_.assign(models_.size(), 0.0);
  return out;
}

std::vector<DispatchBatch> SloBatchingPolicy::plan(
    const std::vector<ArrivalInfo>& arrivals, const BatcherOptions& opt,
    const PriorityOptions& priority) {
  SloBatchingPolicy policy(opt, priority);
  return plan_with(policy, arrivals);
}

std::vector<DispatchBatch> plan_with(
    BatchingPolicy& policy, const std::vector<ArrivalInfo>& arrivals) {
  std::vector<DispatchBatch> plan;
  for (const ArrivalInfo& a : arrivals)
    for (DispatchBatch& b : policy.on_arrival(a)) plan.push_back(std::move(b));
  for (DispatchBatch& b : policy.flush()) plan.push_back(std::move(b));
  return plan;
}

// ---------------------------------------------------------------------
// DedupBatchingPolicy
// ---------------------------------------------------------------------

DedupBatchingPolicy::DedupBatchingPolicy(BatcherOptions opt,
                                         PriorityOptions priority,
                                         std::vector<ModelBatchingInfo> models)
    : SloBatchingPolicy(opt, priority, std::move(models)) {}

bool DedupBatchingPolicy::class_full(double now) const {
  const std::vector<Pending>& pending = pending_requests();
  if (pending.empty()) return false;
  int top = kNumPriorityClasses;
  for (const Pending& p : pending)
    top = std::min(top, effective_class(p, now));
  // Count distinct digest groups in the top class (an undigested request
  // is its own group). Pending sets are small — bounded by the cap's
  // worth of groups plus their duplicates — so a flat scan beats a hash
  // set here, like dominant_digest below.
  std::vector<MapCacheKey> seen;
  std::size_t groups = 0;
  for (const Pending& p : pending) {
    if (effective_class(p, now) != top) continue;
    if (!p.has_digest) {
      ++groups;
      continue;
    }
    bool dup = false;
    for (const MapCacheKey& k : seen)
      if (k == p.digest) {
        dup = true;
        break;
      }
    if (dup) continue;
    seen.push_back(p.digest);
    ++groups;
  }
  return groups >= static_cast<std::size_t>(batch_cap());
}

std::vector<std::size_t> DedupBatchingPolicy::select_members(
    const std::vector<std::size_t>& eligible, double stamp) {
  const std::vector<Pending>& pending = pending_requests();
  const std::size_t cap = static_cast<std::size_t>(batch_cap());
  std::vector<std::size_t> taken;
  taken.reserve(eligible.size());
  std::vector<char> used(eligible.size(), 0);
  std::size_t groups = 0;
  for (std::size_t i = 0; i < eligible.size() && groups < cap; ++i) {
    if (used[i]) continue;
    const Pending& seed = pending[eligible[i]];
    used[i] = 1;
    taken.push_back(eligible[i]);
    ++groups;
    if (!seed.has_digest) continue;
    const int cls = effective_class(seed, stamp);
    // Pull every eligible same-digest mate of the seed's effective class
    // in directly behind it: contiguous emission is what lets the one
    // cold build serve the whole group even when the cache budget is too
    // tight to survive interleaving. Mates never consume cap, and never
    // cross a class boundary — that is the strict-priority gate.
    for (std::size_t j = i + 1; j < eligible.size(); ++j) {
      if (used[j]) continue;
      const Pending& mate = pending[eligible[j]];
      if (!mate.has_digest || !(mate.digest == seed.digest)) continue;
      if (effective_class(mate, stamp) != cls) continue;
      used[j] = 1;
      taken.push_back(eligible[j]);
    }
  }
  return taken;
}

// ---------------------------------------------------------------------
// Built-in routing policies
// ---------------------------------------------------------------------

namespace {

/// The batch's dominant kernel-map digest: the content key with the
/// largest summed cold mapping charge across the members' recorded
/// events (ties -> first encountered in member order). Returns false
/// when the batch recorded no events (or the cache is disabled).
bool dominant_digest(const RouteQuery& q, MapCacheKey* out) {
  if (!q.events_of) return false;
  // Batches are small (max_batch) and events few per request, so a flat
  // first-occurrence-ordered scan beats a hash map here.
  std::vector<MapCacheKey> keys;
  std::vector<double> weight;
  for (const std::size_t m : q.members) {
    const std::vector<MapCacheEvent>* events = q.events_of(m);
    if (!events) continue;
    for (const MapCacheEvent& ev : *events) {
      std::size_t k = 0;
      while (k < keys.size() && !(keys[k] == ev.key)) ++k;
      if (k == keys.size()) {
        keys.push_back(ev.key);
        weight.push_back(0.0);
      }
      weight[k] += ev.cold_seconds;
    }
  }
  if (keys.empty()) return false;
  std::size_t best = 0;
  for (std::size_t k = 1; k < keys.size(); ++k)
    if (weight[k] > weight[best]) best = k;  // strict: ties keep earliest
  *out = keys[best];
  return true;
}

class RoundRobinRouting final : public RoutingPolicy {
 public:
  int route(const RouteQuery& query, const DeviceGroup& group) override {
    return static_cast<int>(query.batch_index %
                            static_cast<std::size_t>(group.size()));
  }
  const char* name() const override { return "round_robin"; }
};

class LeastLoadedRouting final : public RoutingPolicy {
 public:
  int route(const RouteQuery& query, const DeviceGroup& group) override {
    (void)query;
    return group.least_loaded();
  }
  const char* name() const override { return "least_loaded"; }
};

class CacheAffinityRouting final : public RoutingPolicy {
 public:
  int route(const RouteQuery& query, const DeviceGroup& group) override {
    MapCacheKey dominant;
    if (dominant_digest(query, &dominant)) {
      const int owner = group.owner_of(dominant);
      if (owner >= 0) return owner;
    }
    return group.least_loaded();
  }
  const char* name() const override { return "cache_affinity"; }
};

/// Heterogeneous-fleet routing on per-tier service estimates.
///
/// The batch's measured timeline lives on the reference device —
/// spec(0), the fleet's first tier, which is also the spec every request
/// is measured on (ServerConfig::device). route() splits the batch's
/// modeled seconds into its MatMul stage and everything else, then
/// scales each slice to every tier: MatMul with the tiers' peak GEMM
/// throughput ratio (max of FP32/FP16 peaks — a 1080Ti has no tensor
/// cores, so its deficit is large and grouped-GEMM-heavy batches
/// gravitate to tensor-core tiers) and the rest — mapping, gather/
/// scatter, dense heads — with the DRAM bandwidth ratio (the 1080Ti's
/// bandwidth deficit is much smaller, so map-heavy batches overflow to
/// it first under load). The batch goes to the device with the earliest
/// estimated completion: accumulated busy_seconds + the scaled estimate,
/// ties -> lowest id.
///
/// route() also retains the per-device scale factors of the batch it
/// just routed; the scheduler then applies them to lane placement
/// through device_service_estimate, so routing, busy accounting, and
/// lane occupancy all see the same device-local seconds.
///
/// Degenerate cases, all deterministic: on a homogeneous group every
/// factor is exactly 1.0 and the rule reduces to least_loaded
/// (bit-identical, pinned by test); with no timelines or service times
/// to read (or zero-total batches) the estimate is 0 for every device
/// and the rule again reduces to least_loaded.
class EstimateAwareRouting final : public RoutingPolicy {
 public:
  int route(const RouteQuery& query, const DeviceGroup& group) override {
    const int n = group.size();
    // Batch stage totals on the reference device's modeled clock.
    double matmul = 0.0, total = 0.0;
    for (const std::size_t m : query.members) {
      if (query.timeline_of) {
        if (const Timeline* t = query.timeline_of(m)) {
          matmul += t->stage_seconds(Stage::kMatMul);
          total += t->total_seconds();
          continue;
        }
      }
      if (query.service_of) total += query.service_of(m);
    }
    const double other = total - matmul;
    const DeviceSpec& ref = group.spec(0);
    batch_factor_.assign(static_cast<std::size_t>(n), 1.0);
    int best = -1;
    double best_cost = std::numeric_limits<double>::infinity();
    for (int d = 0; d < n; ++d) {
      const DeviceSpec& dev = group.spec(d);
      const double estimate =
          matmul * ratio(peak_gemm(ref), peak_gemm(dev)) +
          other * ratio(ref.dram_bandwidth_gbps, dev.dram_bandwidth_gbps);
      batch_factor_[static_cast<std::size_t>(d)] =
          total > 0 ? estimate / total : 1.0;
      // Health-aware (no-ops without a fault injector): DOWN shards are
      // not candidates, and a DEGRADED/PROBATION shard's estimate is
      // inflated by its service factor — exactly 1.0 on healthy shards,
      // so fault-free routing is bit-identical to the pre-fault rule.
      if (group.health(d) == ShardHealth::kDown) continue;
      const double cost = group.stats(d).busy_seconds +
                          estimate * group.service_factor(d);
      if (cost < best_cost) {  // strict: ties keep the lowest device id
        best_cost = cost;
        best = d;
      }
    }
    // Every shard DOWN: defer to the group's fallback answer (the
    // scheduler only routes when capacity exists).
    return best >= 0 ? best : group.least_loaded();
  }

  double device_service_estimate(int device,
                                 double service_seconds) const override {
    if (device >= 0 &&
        static_cast<std::size_t>(device) < batch_factor_.size())
      return service_seconds *
             batch_factor_[static_cast<std::size_t>(device)];
    return service_seconds;
  }

  const char* name() const override { return "estimate_aware"; }

 private:
  /// Effective GEMM peak: the paper's engine picks the faster of the
  /// FP32 and (tensor-core) FP16 paths per device.
  static double peak_gemm(const DeviceSpec& d) {
    return std::max(d.peak_fp32_tflops, d.peak_fp16_tflops);
  }
  /// ref/dev seconds ratio; identity when either side is unmodeled
  /// (zero), so a default-constructed spec never divides by zero.
  static double ratio(double ref, double dev) {
    return ref > 0 && dev > 0 ? ref / dev : 1.0;
  }

  /// Per-device scale factors of the batch route() last saw — scratch
  /// consumed by the scheduler's device_service_estimate calls for that
  /// same batch.
  std::vector<double> batch_factor_;
};

}  // namespace

std::unique_ptr<RoutingPolicy> make_routing_policy(RoutePolicy policy) {
  switch (policy) {
    case RoutePolicy::kRoundRobin:
      return std::make_unique<RoundRobinRouting>();
    case RoutePolicy::kLeastLoaded:
      return std::make_unique<LeastLoadedRouting>();
    case RoutePolicy::kCacheAffinity:
      return std::make_unique<CacheAffinityRouting>();
    case RoutePolicy::kEstimateAware:
      return std::make_unique<EstimateAwareRouting>();
  }
  throw std::invalid_argument("make_routing_policy: unknown RoutePolicy");
}

}  // namespace ts::serve
