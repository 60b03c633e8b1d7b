#include "tensor/host_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace ts {

namespace {

constexpr std::size_t kMaxParts = 0xffff;

/// Placeholder callable of a pool with no job yet.
constexpr auto kNoJob = [](std::size_t) {};

/// Polls of a waited-for atomic before blocking on it: about 20-40 us of
/// `pause`, long enough to bridge the gap between back-to-back jobs of one
/// replay, short enough not to take a core from other work for long.
constexpr int kSpinPolls = 2048;

void relax() {
#if defined(__x86_64__)
  _mm_pause();
#endif
}

/// Waits until `a` differs from `old` and returns the new value: a bounded
/// spin, then a blocking atomic wait.
template <class T>
T wait_change(const std::atomic<T>& a, T old) {
  for (int i = 0; i < kSpinPolls; ++i) {
    const T v = a.load(std::memory_order_acquire);
    if (v != old) return v;
    relax();
  }
  T v = a.load(std::memory_order_acquire);
  while (v == old) {
    a.wait(old, std::memory_order_acquire);
    v = a.load(std::memory_order_acquire);
  }
  return v;
}

class HostPool {
 public:
  explicit HostPool(std::size_t workers) {
    threads_.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i)
      threads_.emplace_back([this] { worker_main(); });
  }

  ~HostPool() {
    stop_.store(true, std::memory_order_relaxed);
    epoch_.fetch_add(1, std::memory_order_release);
    epoch_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  HostPool(const HostPool&) = delete;
  HostPool& operator=(const HostPool&) = delete;

  /// Takes the pool for the caller; false if another caller holds it.
  bool acquire() { return !busy_.exchange(true, std::memory_order_acquire); }
  void release() { busy_.store(false, std::memory_order_release); }

  /// Publishes a job of `parts` partitions for the workers and returns its
  /// generation. The caller holds the pool.
  uint32_t begin(std::size_t parts, PartitionFn fn) {
    fn_ = fn;
    error_ = nullptr;
    error_part_ = kMaxParts;
    done_.store(0, std::memory_order_relaxed);
    const uint32_t gen = epoch_.load(std::memory_order_relaxed) + 1;
    claim_.store(pack(gen, parts, 0), std::memory_order_release);
    epoch_.store(gen, std::memory_order_release);
    epoch_.notify_all();
    return gen;
  }

  /// The holder's side of job `gen`: claims and runs what is left, waits
  /// for the workers' partitions, and rethrows the job's exception if
  /// `rethrow`.
  void finish(uint32_t gen, bool rethrow) {
    run_claimed(gen);
    const uint32_t total = static_cast<uint32_t>(
        (claim_.load(std::memory_order_relaxed) >> 16) & 0xffff);
    uint32_t done = done_.load(std::memory_order_acquire);
    while (done != total) done = wait_change(done_, done);
    if (rethrow && error_) std::rethrow_exception(error_);
  }

  /// Runs one claimed partition. Its job cannot finish, so fn_ stays
  /// valid, until done_ counts it.
  void run_one(std::size_t p) {
    try {
      fn_(p);
    } catch (...) {
      std::lock_guard<std::mutex> g(error_mu_);
      if (p < error_part_) {
        error_part_ = p;
        error_ = std::current_exception();
      }
    }
    const uint32_t parts = static_cast<uint32_t>(
        (claim_.load(std::memory_order_relaxed) >> 16) & 0xffff);
    if (done_.fetch_add(1, std::memory_order_acq_rel) + 1 == parts)
      done_.notify_all();
  }

 private:
  // claim_ packs the job generation (bits 32-63), its partition count
  // (16-31) and the next unclaimed partition (0-15). A worker claims by
  // compare-exchange, so one that wakes after its job finished sees a
  // different generation and claims nothing: the caller never waits for
  // a worker that has no partition.
  static uint64_t pack(uint32_t gen, std::size_t parts, std::size_t next) {
    return uint64_t{gen} << 32 | uint64_t{parts} << 16 | next;
  }

  void worker_main() {
    uint32_t seen = 0;
    for (;;) {
      seen = wait_change(epoch_, seen);
      if (stop_.load(std::memory_order_relaxed)) return;
      run_claimed(seen);
    }
  }

  /// Claims and runs partitions of job `gen` until none is left.
  void run_claimed(uint32_t gen) {
    uint64_t s = claim_.load(std::memory_order_acquire);
    for (;;) {
      const std::size_t parts = (s >> 16) & 0xffff, next = s & 0xffff;
      if (static_cast<uint32_t>(s >> 32) != gen || next >= parts) return;
      if (claim_.compare_exchange_weak(s, s + 1, std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
        run_one(next);
        s = claim_.load(std::memory_order_acquire);
      }
    }
  }

  std::atomic<bool> busy_{false};  // set while a PoolRunner holds the pool
  PartitionFn fn_ = PartitionFn(kNoJob);
  std::atomic<uint64_t> claim_{0};
  std::atomic<uint32_t> epoch_{0};  // generation of the latest job
  std::atomic<uint32_t> done_{0};   // partitions of the job finished
  std::atomic<bool> stop_{false};
  std::mutex error_mu_;
  std::exception_ptr error_;  // guarded by error_mu_ while the job runs
  std::size_t error_part_ = kMaxParts;
  std::vector<std::thread> threads_;  // last: started after the state
};

HostPool& pool() {
  static HostPool p(host_parallelism() - 1);
  return p;
}

/// Starts the workers while the library loads (see host_pool.hpp).
[[maybe_unused]] const HostPool& started_at_load = pool();

/// Open ConcurrentCallerScopes.
std::atomic<int> open_scopes{0};

void check_parts(std::size_t parts) {
  if (parts > kMaxParts)
    throw std::invalid_argument("host pool: " + std::to_string(parts) +
                                " partitions, at most " +
                                std::to_string(kMaxParts));
}

}  // namespace

std::size_t host_parallelism() {
  static const std::size_t n =
      std::max(1u, std::thread::hardware_concurrency());
  return n;
}

void run_partitions(std::size_t parts, PartitionFn fn) {
  PoolRunner run;
  run.start(parts, fn);
  run.join();
}

PoolRunner::PoolRunner()
    : holds_pool_(host_parallelism() > 1 &&
                  open_scopes.load(std::memory_order_relaxed) <= 1 &&
                  pool().acquire()) {}

PoolRunner::~PoolRunner() {
  if (in_flight_) pool().finish(job_, /*rethrow=*/false);
  if (holds_pool_) pool().release();
}

std::size_t PoolRunner::threads() const {
  return holds_pool_ ? host_parallelism() : 1;
}

void PoolRunner::start(std::size_t parts, PartitionFn fn) {
  check_parts(parts);
  if (holds_pool_ && parts > 1) {
    job_ = pool().begin(parts, fn);
    in_flight_ = true;
    return;
  }
  for (std::size_t p = 0; p < parts; ++p) fn(p);
}

void PoolRunner::join() {
  if (!in_flight_) return;
  in_flight_ = false;
  pool().finish(job_, /*rethrow=*/true);
}

ConcurrentCallerScope::ConcurrentCallerScope() {
  open_scopes.fetch_add(1, std::memory_order_relaxed);
}

ConcurrentCallerScope::~ConcurrentCallerScope() {
  open_scopes.fetch_sub(1, std::memory_order_relaxed);
}

}  // namespace ts
