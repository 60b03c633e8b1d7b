// Asynchronous request intake for the streaming serving path.
//
// A RequestQueue is the admission boundary of the serving runtime:
// producers submit point-cloud inference requests (each stamped with a
// modeled arrival time and a priority class) and immediately receive a
// StreamHandle — a future over the request's eventual StreamResult. A
// bounded queue depth gives the runtime explicit load-shedding
// semantics: once `max_depth` requests are queued and not yet drained
// by the serving loop, further submissions fail fast with a typed
// AdmissionError instead of growing an unbounded backlog (the classic
// tail-latency failure mode of queueing systems). With
// QueueOptions::priority_preemption, shedding is priority-aware: a
// higher-class submission displaces the newest lowest-class pending
// request instead of being rejected itself.
//
// Time is *modeled*, not wall-clock: arrival stamps are supplied by the
// caller (monotone non-decreasing), and the downstream batching policy
// and scheduler operate purely on those stamps plus cost-model service
// times. That makes every queue-wait and end-to-end latency statistic
// bit-reproducible across runs and machines, exactly like the rest of
// the cost-model engine.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <deque>
#include <future>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/sparse_tensor.hpp"
#include "core/sync.hpp"
#include "gpusim/timeline.hpp"
#include "serve/priority.hpp"

namespace ts::serve {

/// Typed load-shedding error: thrown by RequestQueue::submit when the
/// bounded queue is full or the queue has been closed, and delivered
/// through a StreamHandle whose pending request was preempted by a
/// higher-priority submission. Catch this (and only this) to implement
/// client-side backoff/retry.
class AdmissionError : public std::runtime_error {
 public:
  explicit AdmissionError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Why an *admitted* request failed to be served. Unlike admission
/// rejections (AdmissionError at submit time), these outcomes travel
/// through the normal StreamResult channel: the result resolves with
/// `error` set instead of tunneling an exception through the promise,
/// so a handle always yields a readable result and per-class failure
/// accounting stays on the modeled stats path.
enum class ServeErrorCode {
  kNone = 0,
  /// The request's batch was lost to device faults on every one of its
  /// FaultToleranceOptions::max_attempts placements.
  kRetriesExhausted,
  /// Every device shard was DOWN with no recovery scheduled.
  kNoHealthyDevice,
  /// Graceful degradation shed the request: its batch would have
  /// started past the class's degrade_deadline_seconds budget.
  kDeadlineHopeless,
};

const char* to_string(ServeErrorCode code);

/// Typed serving failure thrown by StreamHandle::value() when the
/// resolved result carries a ServeErrorCode. Catch this to distinguish
/// fault-tolerance outcomes from admission rejections (AdmissionError).
class ServeError : public std::runtime_error {
 public:
  ServeError(ServeErrorCode code, const std::string& what)
      : std::runtime_error(what), code_(code) {}

  ServeErrorCode code() const { return code_; }

 private:
  ServeErrorCode code_;
};

/// One streamed request's complete outcome: the modeled per-stage
/// timeline (bit-identical to a serial run_model on the same input) plus
/// its position in the modeled serving schedule.
struct StreamResult {
  std::size_t id = 0;              // submission order (0-based)
  Timeline timeline;               // identical to serial run_model
  double arrival_seconds = 0;      // modeled submit stamp
  Priority priority = Priority::kNormal;  // submitted priority class
  /// Registry index of the model that served this request (0 on a
  /// start(model) session, whose registry is that one model).
  int model = 0;
  double service_seconds = 0;      // modeled single-request runtime
  double start_seconds = 0;        // modeled execution start on its lane
  double finish_seconds = 0;       // start + service
  /// Time spent queued: arrival until the request's *batch* starts
  /// executing (batcher deadline wait + lane wait). The per-batch
  /// overhead and batch-mates ahead of this request count as run time,
  /// not queueing — this is the quantity the SLO budget bounds.
  double queue_wait_seconds = 0;
  double e2e_seconds = 0;          // finish - arrival (queue wait + run)
  std::size_t batch_id = 0;        // dispatched batch that served it
  std::size_t batch_size = 0;      // size of that batch
  int device = 0;                  // device shard the batch was routed to
  /// Lane placements this request's batch consumed (1 = no faults; 0 =
  /// the request failed before any placement).
  int attempts = 1;
  /// Redispatch penalty on the worker-invariant shadow clock: how much
  /// later the surviving attempt started than the first one would have
  /// (0 when attempts <= 1). The fault-recovery latency cost.
  double retry_wait_seconds = 0;
  /// kNone for a served request; otherwise why fault tolerance gave up
  /// (see ServeErrorCode). Schedule fields are meaningless when set.
  ServeErrorCode error = ServeErrorCode::kNone;
  std::string error_detail;

  bool ok() const { return error == ServeErrorCode::kNone; }
};

/// Future-like handle returned by RequestQueue::submit.
///
/// Thread-safety: `get()`/`ready()` may be called from any thread.
/// Fulfillment is *incremental*: a handle resolves the moment its
/// request's dispatch batch is placed on the modeled schedule — all
/// earlier batches placed and every batch member measured — not when
/// the whole stream ends, so an early request's result is readable
/// while later requests are still queued, measuring, or unsubmitted.
/// The resolved value is final: batches are placed in dispatch order,
/// so no later submission can change an already-placed slot.
///
/// Deadlock caveat: a request still *held by the batching policy* (an
/// open batch waiting to fill, or a low class held back by strict
/// priority) only dispatches when a later arrival triggers it or the
/// stream ends — there is no wall-clock timer behind the modeled
/// deadlines. So block on `get()` only once the request's batch is
/// certain to dispatch: after enough further submissions (e.g. the
/// kImmediate policy dispatches every request on arrival), from a
/// thread other than the one that will close()/drain(), or after
/// Server::drain()/queue close. In particular the single controlling
/// thread of a Server must not `get()` an undispatched request before
/// drain().
/// If serving fails, `get()` rethrows the serving error (or
/// AdmissionError if the request was preempted by a higher-priority
/// submission). Copyable; all copies share one result.
class StreamHandle {
 public:
  StreamHandle() = default;
  StreamHandle(std::size_t id, std::shared_future<StreamResult> fut)
      : id_(id), fut_(std::move(fut)) {}

  /// Submission id (matches StreamResult::id in the final report).
  std::size_t id() const { return id_; }

  bool valid() const { return fut_.valid(); }

  /// True once the result (or the serving error) is available, i.e.
  /// the request's batch has been placed on the modeled schedule.
  bool ready() const {
    return fut_.valid() && fut_.wait_for(std::chrono::seconds(0)) ==
                               std::future_status::ready;
  }

  /// Blocks until the request has been served; returns its result or
  /// rethrows the serving loop's failure. The result may carry a
  /// ServeErrorCode (fault-tolerance outcome) — check ok(), or use
  /// value() for throw-on-failure semantics.
  const StreamResult& get() const { return fut_.get(); }

  /// Like get(), but a result carrying a ServeErrorCode throws a typed
  /// ServeError instead of returning. The failure-aware accessor:
  /// callers that only want served results use value(), callers that
  /// triage failures use get() + StreamResult::ok().
  const StreamResult& value() const;

 private:
  std::size_t id_ = 0;
  std::shared_future<StreamResult> fut_;
};

struct QueueOptions {
  /// Admission limit: maximum number of submitted-but-not-yet-drained
  /// requests. Submissions past this depth throw AdmissionError (submit)
  /// or return nullopt (try_submit) and are counted as rejected.
  std::size_t max_depth = 64;
  /// Priority-aware shedding: when the queue is full and the incoming
  /// request's class strictly outranks the lowest class currently
  /// pending, the *newest* request of that lowest class is evicted (its
  /// StreamHandle receives AdmissionError, the eviction is counted as
  /// rejected) and the incoming request is admitted. Off by default —
  /// legacy first-come-first-admitted shedding.
  bool priority_preemption = false;
  /// Per-class admission caps (0 = the class shares max_depth only): a
  /// submission whose class already has class_max_depth[class] requests
  /// pending is shed with AdmissionError even when the queue has room.
  /// The degradation knob that keeps a flood of best-effort traffic
  /// from crowding out high-priority admission while capacity is
  /// reduced by faults.
  std::array<std::size_t, kNumPriorityClasses> class_max_depth{};
};

/// Internal unit drained by the serving loop: the input, its arrival
/// stamp and priority class, and the promise that fulfills the
/// producer's StreamHandle.
struct PendingRequest {
  std::size_t id = 0;
  SparseTensor input;
  double arrival_seconds = 0;
  Priority priority = Priority::kNormal;
  /// Registry index of the model this request targets (0 = the first /
  /// only model). Validated non-negative at admission; the serving loop
  /// checks it against the session's registry.
  int model = 0;
  std::promise<StreamResult> promise;
};

/// Bounded MPSC intake queue with modeled arrival stamps.
///
/// Thread-safety: submit/try_submit/close and the observers are safe from
/// any number of producer threads; wait_pop is intended for one consumer
/// (the serving loop). Exception guarantees: submit offers the strong
/// guarantee — on AdmissionError or std::invalid_argument the queue is
/// unchanged (the rejection counter, and a priority-preemption
/// eviction, aside).
class RequestQueue {
 public:
  explicit RequestQueue(QueueOptions opt = {});

  /// Enqueues a request with a modeled arrival stamp, priority class,
  /// and target model (registry index; 0 on a one-model session), and
  /// returns its handle. Preconditions (std::invalid_argument):
  /// `arrival_seconds` is finite, non-negative, and non-decreasing
  /// across submissions; `model` >= 0. Throws AdmissionError when the
  /// queue is closed or `max_depth` requests are already pending and no
  /// lower-class request can be preempted; the rejection is counted
  /// (globally and per model).
  StreamHandle submit(SparseTensor input, double arrival_seconds,
                      Priority priority = Priority::kNormal, int model = 0);

  /// Non-throwing admission: nullopt instead of AdmissionError. Invalid
  /// arrival stamps still throw std::invalid_argument (caller bug, not
  /// load shedding).
  std::optional<StreamHandle> try_submit(
      SparseTensor input, double arrival_seconds,
      Priority priority = Priority::kNormal, int model = 0);

  /// Blocking admission: instead of shedding when the queue (or the
  /// request's class) is full, waits until the consumer drains a slot —
  /// backpressure for producers that must not lose requests. A close()
  /// during the wait wakes the waiter with AdmissionError (counted
  /// rejected) — shutdown never deadlocks a blocked producer. Arrival
  /// stamps must still be non-decreasing *at admission*: with several
  /// producers blocked at once, coordinate stamps externally or expect
  /// std::invalid_argument on wake.
  StreamHandle submit_wait(SparseTensor input, double arrival_seconds,
                           Priority priority = Priority::kNormal,
                           int model = 0);

  /// Marks the end of the stream: subsequent submissions are rejected and
  /// wait_pop returns false once the backlog drains. Idempotent.
  void close();

  bool closed() const;

  /// Currently queued (admitted, not yet drained) requests.
  std::size_t depth() const;

  /// Totals since construction. `rejected` counts depth/closed
  /// rejections and priority-preemption evictions.
  std::size_t submitted() const;
  std::size_t rejected() const;

  /// Per-model rejection totals, indexed by model id (grown on demand:
  /// the vector covers the highest model id that ever saw a rejection).
  /// Feeds StreamStats::per_model rejection accounting.
  std::vector<std::size_t> rejected_by_model() const;

  /// Consumer side (the serving loop): blocks until a request is
  /// available or the queue is closed and empty. Returns false — without
  /// touching `out` — only in the closed-and-drained terminal state.
  bool wait_pop(PendingRequest& out);

  const QueueOptions& options() const { return opt_; }

 private:
  StreamHandle admit_locked(SparseTensor&& input, double arrival_seconds,
                            Priority priority, int model) TS_REQUIRES(mu_);
  /// Counts one rejection, both globally and against `model`'s slot in
  /// the per-model ledger (grown on demand).
  void count_rejection_locked(int model) TS_REQUIRES(mu_);
  /// Preemption shed: evicts the newest pending request of the lowest
  /// class if that class is strictly below `incoming`. Returns true on
  /// eviction (a slot is now free).
  bool preempt_locked(Priority incoming) TS_REQUIRES(mu_);
  /// True while admitting `priority` would exceed max_depth or the
  /// class's class_max_depth cap.
  bool full_locked(Priority priority) const TS_REQUIRES(mu_);

  /// Immutable after construction (safe to read without mu_).
  QueueOptions opt_;
  mutable Mutex mu_;
  CondVar cv_;
  /// Wakes producers blocked in submit_wait when a slot frees (wait_pop
  /// drain, preemption eviction) or the queue closes.
  CondVar space_cv_;
  std::deque<PendingRequest> queue_ TS_GUARDED_BY(mu_);
  bool closed_ TS_GUARDED_BY(mu_) = false;
  double last_arrival_ TS_GUARDED_BY(mu_) = 0;
  std::size_t next_id_ TS_GUARDED_BY(mu_) = 0;
  std::size_t rejected_ TS_GUARDED_BY(mu_) = 0;
  /// Per-model rejection ledger (indexed by model id, grown on demand).
  std::vector<std::size_t> model_rejected_ TS_GUARDED_BY(mu_);
  /// Pending requests per priority class (class_max_depth accounting).
  std::array<std::size_t, kNumPriorityClasses> class_depth_
      TS_GUARDED_BY(mu_){};
};

}  // namespace ts::serve
