// Pluggable serving policies: batch formation and device routing.
//
// A serve::Server composes its scheduling discipline from two
// interfaces instead of switching on enums:
//
//  * BatchingPolicy — groups the drained request stream into dispatch
//    batches. The default SloBatchingPolicy applies the SLO-aware
//    deadline rule (BatcherOptions below) with strict-priority-plus-
//    aging member selection (priority.hpp); its static plan() is also
//    the offline planner for whole arrival traces (bench/fig15).
//  * RoutingPolicy — maps each dispatched batch onto one device of a
//    DeviceGroup. round_robin / least_loaded / cache_affinity /
//    estimate_aware are the built-in implementations
//    (make_routing_policy), and the device_service_estimate hook is how
//    heterogeneous fleets enter the schedule: a policy that models
//    per-device speed factors (estimate_aware derives them from the
//    fleet's DeviceSpecs) makes the scheduler place batches with the
//    estimated device-local service times.
//
// Both interfaces are driven single-threaded from inside the
// deterministic serving pass: decisions may depend only on modeled
// inputs (arrival stamps, accumulated modeled work, modeled cache
// ownership), never on wall-clock or lane state, which is what keeps
// every modeled statistic reproducible and worker-count invariant.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "core/kernel_map_cache.hpp"
#include "serve/device_group.hpp"
#include "serve/priority.hpp"

namespace ts::serve {

/// Dispatch rules of the default batching policy (the Fig. 15 sweep).
enum class BatchPolicy {
  kImmediate,  // every request is its own batch (latency-optimal)
  kFullBatch,  // wait for max_batch, flush remainder at end of stream
  kSloAware,   // max_batch OR oldest request's wait budget spent
};

const char* to_string(BatchPolicy p);

struct BatcherOptions {
  BatchPolicy policy = BatchPolicy::kSloAware;
  /// Dispatch as soon as this many requests are pending. Clamped to >= 1.
  int max_batch = 8;
  /// kSloAware only: maximum modeled time the oldest pending request may
  /// wait in the batcher before its batch dispatches. This is the queue-
  /// wait slice of the end-to-end SLO; must be >= 0 and finite.
  double slo_budget_seconds = 0.010;
};

/// One drained request as the batching policy sees it: its scheduling
/// id (index into the drained stream), modeled arrival stamp, priority
/// class, and (when the policy asked for it via wants_digests) the
/// request's input content digest — the duplicate-grouping key.
struct ArrivalInfo {
  std::size_t id = 0;
  double arrival_seconds = 0;
  Priority priority = Priority::kNormal;
  /// Registry index of the request's target model (0 on one-model
  /// streams). Validated against the policy's model table on feed.
  int model = 0;
  /// input_content_digest of the request's tensor; meaningful only when
  /// has_digest is set (the serving loop computes digests only for
  /// policies that want them).
  MapCacheKey digest;
  bool has_digest = false;
};

/// One dispatch decision of a BatchingPolicy: `members` (scheduling
/// ids, in the order they will run back-to-back on their lane) leave
/// the batcher together at `dispatch_seconds`. Members need not be
/// contiguous — priority selection reorders across arrival order.
/// Contract: members are non-empty, each id is dispatched exactly once
/// per stream, every member arrived at or before `dispatch_seconds`,
/// and stamps are non-decreasing across the emitted sequence.
struct DispatchBatch {
  std::vector<std::size_t> members;
  double dispatch_seconds = 0;
  /// Registry index of the model every member targets. Batches never mix
  /// models — one batch is one kernel launch group under one model's
  /// tuned parameters and cache namespace — so this is a batch-level
  /// field, not per member. 0 on one-model streams.
  int model = 0;
};

/// Batch-formation interface. Driven by the single serving loop in
/// feed order: one on_arrival per drained request (non-decreasing
/// modeled stamps), then one flush at end of stream. flush() must
/// dispatch everything still pending and reset the policy for reuse.
/// Implementations must be deterministic functions of the fed stream.
class BatchingPolicy {
 public:
  virtual ~BatchingPolicy() = default;

  /// Feeds the next drained request; returns every batch its arrival
  /// closes (possibly none, possibly several when a backlog drains).
  virtual std::vector<DispatchBatch> on_arrival(const ArrivalInfo& arrival) = 0;

  /// End of stream: dispatches all remaining pending requests (modeled
  /// as instantaneous at the last arrival stamp) and resets state.
  virtual std::vector<DispatchBatch> flush() = 0;

  /// Requests currently held back waiting for a dispatch trigger.
  virtual std::size_t pending() const = 0;

  /// True when the policy groups on input content digests; the serving
  /// loop then computes ArrivalInfo::digest for every drained request
  /// (an O(points) hash it skips for digest-blind policies).
  virtual bool wants_digests() const { return false; }

  virtual const char* name() const = 0;
};

/// Per-model batching parameters for a multi-model SloBatchingPolicy:
/// the model's SLO wait budget (deadline trigger) and its deficit-round-
/// robin weight (cross-model fairness share).
struct ModelBatchingInfo {
  /// Wait budget for this model's deadline trigger; a negative value
  /// (the default) inherits BatcherOptions::slo_budget_seconds.
  double slo_budget_seconds = -1;
  /// Relative dispatch share under contention (deficit round-robin
  /// credit earned per dispatch opportunity). Must be finite and > 0.
  double weight = 1.0;
};

/// The default batching policy: an SLO-aware deadline rule with
/// strict-priority-plus-aging member selection.
///
/// Larger dispatch batches amortize work (kernel-map construction,
/// tuned matmul grouping, launch setup) but make the first request of a
/// batch wait while it fills. The deadline rule resolves that tension:
/// dispatch when `max_batch` requests are pending, or the moment a
/// pending request's queue-wait budget (`slo_budget_seconds`) would be
/// spent — whichever comes first. The policy is an online state machine
/// over modeled arrival stamps and never consults a wall clock, so
/// batch boundaries (and every downstream latency statistic) depend
/// only on arrivals and options, never on host speed.
///
/// Triggers (evaluated on the modeled clock, kSloAware):
///  * Class-full: the moment the highest pending effective class holds
///    `max_batch` requests, a batch of them dispatches. Lower classes
///    never count toward this trigger while a higher class is pending —
///    that is the strict-priority gate.
///  * Deadline: when the earliest wait-budget expiry among all pending
///    requests (arrival + slo_budget_seconds) passes, a batch
///    dispatches at that stamp.
/// Selection at a dispatch: among requests arrived by the dispatch
/// stamp, order by (effective class, arrival, id) and take up to
/// max_batch; the rest stay pending. Effective class = static class
/// promoted one level per PriorityOptions::aging_seconds of wait, so
/// with aging enabled an old low-class request eventually ties the top
/// class and wins its slot by arrival; with aging disabled (default)
/// selection is strictly by static class.
///
/// kImmediate dispatches every request alone (cap 1); kFullBatch waits
/// for max_batch with no deadline. At end of stream, flush() dispatches
/// the remainder at the last arrival stamp — close is modeled as
/// instantaneous. On a single-class stream every batch is a contiguous
/// run of arrival-order ids.
class SloBatchingPolicy : public BatchingPolicy {
 public:
  /// Preconditions (std::invalid_argument): slo_budget_seconds finite
  /// and >= 0; priority.aging_seconds > 0 (infinity = aging off); every
  /// ModelBatchingInfo has finite weight > 0 and a finite-or-negative
  /// SLO budget.
  ///
  /// `models` describes the model registry, one entry per model; empty
  /// (the default) is one entry that inherits every setting. The policy
  /// is model-aware (with one model every rule below reduces to the
  /// plain deadline and strict-priority rules):
  ///  * Batches are single-model (DispatchBatch::model): one batch is
  ///    one launch group under one model's tuned parameters.
  ///  * Cross-model fairness is deficit round-robin *within* the top
  ///    effective priority class: at each dispatch, every model with
  ///    eligible top-class requests earns its weight in credit, the
  ///    richest model (ties -> lowest id) dispatches, and its credit is
  ///    debited by the members taken. Strict priority still dominates —
  ///    DRR only arbitrates among models competing at the same class.
  ///  * The deadline trigger honors per-model SLO budgets: the earliest
  ///    (arrival + budget(model)) expiry fires, and the dispatch is
  ///    forced onto the firing request's model so a quiet model's
  ///    deadline can never be starved by a busy model's credit lead.
  explicit SloBatchingPolicy(BatcherOptions opt,
                             PriorityOptions priority = {},
                             std::vector<ModelBatchingInfo> models = {});

  std::vector<DispatchBatch> on_arrival(const ArrivalInfo& arrival) override;
  std::vector<DispatchBatch> flush() override;
  std::size_t pending() const override { return pending_.size(); }
  const char* name() const override { return "slo-priority"; }

  const BatcherOptions& options() const { return opt_; }
  const PriorityOptions& priority_options() const { return prio_; }
  const std::vector<ModelBatchingInfo>& models() const { return models_; }

  /// The offline planner (bench/fig15 sweeps, hand-computed tests):
  /// plans a whole arrival trace at once — on_arrival over each entry,
  /// then flush. `policy`-object streams plan the same way through
  /// plan_with below.
  static std::vector<DispatchBatch> plan(
      const std::vector<ArrivalInfo>& arrivals, const BatcherOptions& opt,
      const PriorityOptions& priority = {});

 protected:
  struct Pending {
    std::size_t id = 0;
    double arrival = 0;
    Priority priority = Priority::kNormal;
    int model = 0;
    MapCacheKey digest;
    bool has_digest = false;
  };

  int effective_class(const Pending& p, double now) const;
  int batch_cap() const;
  const std::vector<Pending>& pending_requests() const { return pending_; }

  /// Trigger hook: true while the class-full rule holds at `now`. The
  /// base rule fires when the highest pending effective class holds
  /// batch_cap() requests; DedupBatchingPolicy overrides it to count
  /// distinct digests instead.
  virtual bool class_full(double now) const;

  /// Selection hook: `eligible` holds positions into the pending list
  /// (requests arrived by `stamp`), sorted by (effective class,
  /// arrival, id). Returns the positions to dispatch, in batch-member
  /// order. The base policy takes the first batch_cap() of them.
  virtual std::vector<std::size_t> select_members(
      const std::vector<std::size_t>& eligible, double stamp);

 private:
  /// Dispatches one batch at `when`: strict-priority-plus-aging
  /// selection among requests arrived by `when`, through the
  /// select_members hook. The batch is confined to one model —
  /// `forced_model` (a deadline firing) when valid, the
  /// deficit-round-robin winner otherwise; -1 always means "let DRR
  /// decide".
  void dispatch_at(double when, std::vector<DispatchBatch>& out,
                   int forced_model = -1);

  /// Effective SLO wait budget for registered `model` (the per-model
  /// override, or BatcherOptions::slo_budget_seconds when inherited).
  double budget(int model) const;

  BatcherOptions opt_;
  PriorityOptions prio_;
  /// Registry-aligned model table; never empty.
  std::vector<ModelBatchingInfo> models_;
  /// Deficit-round-robin credit per model (parallel to models_): earned
  /// at each dispatch opportunity, spent by winning members. Reset by
  /// flush() so every stream starts from the same fair state.
  std::vector<double> credit_;
  std::vector<Pending> pending_;  // arrival order
  double last_arrival_ = 0;
  double last_dispatch_ = 0;
  bool any_arrival_ = false;
};

/// Runs any batching policy over a whole arrival trace: on_arrival per
/// entry, then flush. The object-parameterized form of
/// SloBatchingPolicy::plan, for offline sweeps and plan-equality tests.
std::vector<DispatchBatch> plan_with(BatchingPolicy& policy,
                                     const std::vector<ArrivalInfo>& arrivals);

/// Duplicate-aware batch formation: SloBatchingPolicy's deadline and
/// strict-priority rules with the batch cap re-read as *distinct
/// content digests* instead of requests, so same-digest requests (the
/// near-duplicate LiDAR scans the kernel-map cache exists for) group
/// into one dispatch and a single cold map build amortizes across all
/// of them.
///
/// The two digest-aware changes, both no-ops on an all-unique stream:
///  * Class-full trigger: the top effective class is full when it holds
///    max_batch distinct digest groups (an undigested request is its
///    own group). Duplicates therefore never fire the trigger early —
///    they wait with their group, bounded as ever by the SLO deadline
///    rule, which is inherited unchanged.
///  * Selection: walk the eligible requests in the usual (effective
///    class, arrival, id) order, but take whole digest groups — a seed
///    plus every eligible same-digest mate of the same effective class
///    — emitted contiguously, until max_batch groups are taken. Mates
///    ride along without consuming cap, so a dispatch may carry more
///    than max_batch requests when digests repeat; strict priority is
///    preserved because a group never crosses an effective-class
///    boundary.
///
/// At 0% duplicates every group is a singleton, both rules degenerate
/// to the base policy's, and the emitted plan is bit-equal to
/// SloBatchingPolicy's (pinned by test). Grouped dispatches feed
/// cache_affinity routing its natural input: one batch, one dominant
/// digest, one owner device.
class DedupBatchingPolicy final : public SloBatchingPolicy {
 public:
  explicit DedupBatchingPolicy(BatcherOptions opt,
                               PriorityOptions priority = {},
                               std::vector<ModelBatchingInfo> models = {});

  bool wants_digests() const override { return true; }
  const char* name() const override { return "slo-dedup"; }

 protected:
  bool class_full(double now) const override;
  std::vector<std::size_t> select_members(
      const std::vector<std::size_t>& eligible, double stamp) override;
};

/// Everything a RoutingPolicy may consult about the batch being routed.
/// `events_of(id)` returns the member's recorded kernel-map cache
/// events, or null when the cache is disabled (cache_affinity then
/// falls back to least-loaded). `service_of(id)` / `timeline_of(id)`
/// expose each member's measured modeled service time and stage
/// timeline on the reference device — what estimate_aware scales into
/// per-tier completion estimates; either may be empty when the caller
/// has nothing measured to offer (policies must fall back gracefully).
struct RouteQuery {
  std::size_t batch_index = 0;
  const std::vector<std::size_t>& members;
  double dispatch_seconds = 0;
  std::function<const std::vector<MapCacheEvent>*(std::size_t)> events_of;
  std::function<double(std::size_t)> service_of;
  std::function<const Timeline*(std::size_t)> timeline_of;
};

/// Batch-routing interface over a DeviceGroup. route() is called once
/// per dispatched batch, in dispatch order, from inside the
/// deterministic scheduling pass; it may read the group's accumulated
/// modeled work (DeviceGroup::least_loaded) and modeled cache ownership
/// (DeviceGroup::owner_of) — never lane state, so routing stays
/// worker-count invariant.
class RoutingPolicy {
 public:
  virtual ~RoutingPolicy() = default;

  /// Device index in [0, group.size()) the batch runs on.
  virtual int route(const RouteQuery& query, const DeviceGroup& group) = 0;

  /// Heterogeneous-group hook: the modeled seconds `service_seconds`
  /// of single-device work takes on `device`. The scheduler places and
  /// accounts batches with these estimates, so a policy that models
  /// per-device speed factors (mixed GPU generations) changes lane
  /// occupancy and least-loaded inputs coherently. The default is the
  /// identity — a homogeneous group, bit-identical to the pre-policy
  /// scheduler.
  virtual double device_service_estimate(int device,
                                         double service_seconds) const {
    (void)device;
    return service_seconds;
  }

  virtual const char* name() const = 0;
};

/// The built-in policies (see RoutePolicy in device_group.hpp for the
/// routing rules they implement): round_robin, least_loaded,
/// cache_affinity, estimate_aware. Each is reusable across serving
/// sessions; estimate_aware keeps only per-batch scratch (the scale
/// factors of the batch it last routed) between route() and the
/// scheduler's device_service_estimate calls.
std::unique_ptr<RoutingPolicy> make_routing_policy(RoutePolicy policy);

}  // namespace ts::serve
