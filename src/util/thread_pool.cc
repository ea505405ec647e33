#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>

#include "util/logging.h"

namespace jigsaw {

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mu_);
    stop_ = true;
  }
  cv_task_.NotifyAll();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(&mu_);
    JIGSAW_CHECK_MSG(!stop_, "submit on stopped pool");
    queue_.push(std::move(task));
    ++in_flight_;
  }
  cv_task_.NotifyOne();
}

void ThreadPool::WaitIdle() {
  MutexLock lock(&mu_);
  while (in_flight_ != 0) cv_idle_.Wait(&mu_);
}

namespace {

/// Per-ParallelFor-call completion state, owned by the caller's stack:
/// when the pool is shared by several client threads, a caller must wait
/// for exactly its own helpers — WaitIdle would block on every other
/// client's in-flight work too (and with another session continuously
/// submitting, might never return). The tasks reference this struct; the
/// wait in ParallelFor keeps it alive until the last helper has signalled.
/// `pending` is guarded by the per-call mutex so the analysis checks the
/// helper tasks' decrements the same way it checks pool-wide state.
struct Completion {
  Mutex mu;
  CondVar cv;
  std::size_t pending JIGSAW_GUARDED_BY(mu) = 0;
};

}  // namespace

void ThreadPool::ParallelFor(std::size_t count,
                             const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  auto drain = [&next, count, &fn] {
    for (std::size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
      fn(i);
    }
  };
  // The caller drains too, so count - 1 helpers already cover every index.
  const std::size_t helpers =
      count == 0 ? 0 : std::min(count - 1, num_threads());
  Completion done;
  {
    MutexLock lock(&done.mu);
    done.pending = helpers;
  }
  for (std::size_t h = 0; h < helpers; ++h) {
    Submit([&drain, &done] {
      drain();
      MutexLock lock(&done.mu);
      if (--done.pending == 0) done.cv.NotifyAll();
    });
  }
  drain();
  MutexLock lock(&done.mu);
  while (done.pending != 0) done.cv.Wait(&done.mu);
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(&mu_);
      while (!stop_ && queue_.empty()) cv_task_.Wait(&mu_);
      if (queue_.empty()) {
        if (stop_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
    {
      MutexLock lock(&mu_);
      --in_flight_;
      if (in_flight_ == 0) cv_idle_.NotifyAll();
    }
  }
}

}  // namespace jigsaw
