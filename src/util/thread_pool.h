#pragma once

/// \file thread_pool.h
/// A fixed-size worker pool used for optional parallel Monte Carlo
/// evaluation (MCDB evaluates sampled worlds in parallel). Determinism is
/// preserved because each sample's randomness depends only on its seed, not
/// on scheduling; reductions merge per-worker accumulators in index order.
///
/// One pool may be shared by many concurrent clients (the session server
/// hands every session the same pool): ParallelFor tracks completion per
/// call, so a caller waits only for its own tasks — never for work another
/// client enqueued — and concurrent ParallelFor calls simply interleave
/// their helper tasks in the submission queue.
///
/// Lock discipline (machine-checked by the Clang thread-safety analysis,
/// see util/annotations.h): mu_ guards the submission queue, the in-flight
/// count and the stop flag; cv_task_ wakes workers on submission or stop,
/// cv_idle_ wakes WaitIdle when the pool drains. workers_ is written only
/// in the constructor and joined in the destructor, so it needs no guard.
/// The per-call ParallelFor completion state is a stack-owned Completion
/// whose pending count is guarded by its own per-call mutex — see the
/// struct in thread_pool.cc.

#include <cstddef>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "util/annotations.h"
#include "util/mutex.h"

namespace jigsaw {

class ThreadPool {
 public:
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for asynchronous execution.
  void Submit(std::function<void()> task) JIGSAW_EXCLUDES(mu_);

  /// Blocks until every submitted task has finished — pool-wide, across
  /// all clients. Prefer ParallelFor, whose wait is scoped to its own
  /// tasks, when the pool is shared.
  void WaitIdle() JIGSAW_EXCLUDES(mu_);

  /// Runs fn(i) for i in [0, count) and waits. Indices are handed out one
  /// at a time, in index order, to the calling thread and up to
  /// num_threads() workers, so uneven bodies balance (list the longest
  /// first) and the caller works instead of sitting idle. Completion is
  /// tracked per call: safe to invoke from several client threads on the
  /// same pool concurrently (each call returns as soon as its own indices
  /// finish). Must not be called from inside a pool task — a worker
  /// blocked here would deadlock the pool it is supposed to drain.
  void ParallelFor(std::size_t count,
                   const std::function<void(std::size_t)>& fn)
      JIGSAW_EXCLUDES(mu_);

  std::size_t num_threads() const { return workers_.size(); }

 private:
  void WorkerLoop() JIGSAW_EXCLUDES(mu_);

  /// Immutable after construction (ctor spawns, dtor joins): safe to read
  /// from any thread without mu_.
  std::vector<std::thread> workers_;

  Mutex mu_;
  std::queue<std::function<void()>> queue_ JIGSAW_GUARDED_BY(mu_);
  /// Tasks submitted but not yet finished (queued + executing).
  std::size_t in_flight_ JIGSAW_GUARDED_BY(mu_) = 0;
  bool stop_ JIGSAW_GUARDED_BY(mu_) = false;
  CondVar cv_task_;  ///< signalled on Submit and on stop
  CondVar cv_idle_;  ///< signalled when in_flight_ reaches 0
};

}  // namespace jigsaw
