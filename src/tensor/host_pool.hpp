// One persistent pool of host threads for the engine's two deterministic
// data-parallel loops: the row-partitioned conv numerics, one job per
// layer whose partitions own disjoint output rows (core/conv3d.hpp), and
// the set-partitioned L2 replay (gpusim/cache.hpp).
//
// A job is a partition count `parts` and a callable fn; running it calls
// fn(p) once for every p in [0, parts). Callers split their work so that
// partitions touch disjoint data, which makes the result independent of
// which thread runs which partition and in what order.
//
// The pool has hardware_concurrency() - 1 worker threads, started when
// the library is loaded, before main(): threads made in the middle of a
// program's set-up move where its later allocations land in the heap
// (see docs/PERFORMANCE.md, "Peak RSS"). Workers claim partitions one at
// a time; the caller claims alongside them, so a partition a busy worker
// has not reached is run by whoever gets to it first. Idle workers spin
// briefly, then block.
//
// The host's cores are one budget, shared two ways. A PoolRunner holds
// the pool for its lifetime, so one caller at a time runs jobs on the
// workers; a runner made while another holds the pool, or from inside a
// partition, runs its jobs inline on its own thread. And while more than
// one ConcurrentCallerScope is open (serving opens one around each
// request it measures) no runner takes the pool at all: the measuring
// threads already occupy the cores, so each runs its jobs inline.
// Callers that run at once without a scope (say, two user threads each
// replaying) share the cores with the one runner that holds the pool.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace ts {

/// Non-owning reference to a callable `void(std::size_t partition)`. The
/// callable must outlive every job it is part of.
class PartitionFn {
 public:
  template <class F>
    requires(!std::same_as<std::remove_cvref_t<F>, PartitionFn>)
  PartitionFn(F& f)  // NOLINT(google-explicit-constructor)
      : obj_(const_cast<void*>(static_cast<const void*>(&f))),
        call_([](void* o, std::size_t p) { (*static_cast<F*>(o))(p); }) {}

  void operator()(std::size_t p) const { call_(obj_, p); }

 private:
  void* obj_;
  void (*call_)(void*, std::size_t);
};

/// Runs one partitioned job at a time for its owner. start() begins
/// fn(0) ... fn(parts - 1) and may return before they finish, so the
/// owner can work meanwhile; join() returns once they have. A job's
/// partitions may run in any order and concurrently. If partitions throw,
/// the exception of the lowest throwing one is rethrown by start() or
/// join(). Every start() is followed by join() before the next start()
/// and before fn's callable is destroyed.
class PartitionRunner {
 public:
  virtual void start(std::size_t parts, PartitionFn fn) = 0;
  virtual void join() = 0;

 protected:
  PartitionRunner() = default;
  ~PartitionRunner() = default;
  PartitionRunner(const PartitionRunner&) = default;
  PartitionRunner& operator=(const PartitionRunner&) = default;
};

/// The host pool as a PartitionRunner. The constructor takes the pool if
/// it is free and at most one ConcurrentCallerScope is open; otherwise
/// every job runs inline, inside start(), in partition order. start()
/// hands the job to the workers and returns; join() has the caller claim
/// the partitions still unclaimed, then wait for the rest. A one-partition
/// job always runs inside start().
class PoolRunner final : public PartitionRunner {
 public:
  PoolRunner();
  /// Waits for an unjoined job, whose exception, if any, is dropped (an
  /// unjoined job means another exception is already propagating), and
  /// releases the pool.
  ~PoolRunner();
  PoolRunner(const PoolRunner&) = delete;
  PoolRunner& operator=(const PoolRunner&) = delete;

  /// Threads this runner's jobs run on, the caller included:
  /// host_parallelism() if it holds the pool, else 1.
  std::size_t threads() const;

  /// Throws std::invalid_argument if parts exceeds 65535.
  void start(std::size_t parts, PartitionFn fn) override;
  void join() override;

 private:
  bool holds_pool_;
  bool in_flight_ = false;
  uint32_t job_ = 0;
};

/// Declares the calling thread, for the scope's lifetime, one of a group
/// of engine threads that run at once and keep the host's cores busy
/// themselves. While more than one scope is open in the process, no
/// PoolRunner takes the pool.
class ConcurrentCallerScope {
 public:
  ConcurrentCallerScope();
  ~ConcurrentCallerScope();
  ConcurrentCallerScope(const ConcurrentCallerScope&) = delete;
  ConcurrentCallerScope& operator=(const ConcurrentCallerScope&) = delete;
};

/// Threads the pool runs at once, the caller included:
/// std::thread::hardware_concurrency(), at least 1.
std::size_t host_parallelism();

/// Runs fn(0) ... fn(parts - 1) on a PoolRunner and returns when all have
/// finished. If any partition throws, every partition already started
/// still finishes, and the exception of the lowest throwing partition is
/// rethrown here. Throws std::invalid_argument if parts exceeds 65535.
void run_partitions(std::size_t parts, PartitionFn fn);

}  // namespace ts
