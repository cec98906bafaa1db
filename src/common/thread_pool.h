// A small fixed-size thread pool. The serving scatter runs on it (one work
// item per query and shard, hedged or barrier; see sharded_cloud_server.h),
// and so do batch search, batch encryption, parallel index builds and
// ground-truth computation.

#ifndef PPANNS_COMMON_THREAD_POOL_H_
#define PPANNS_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace ppanns {

/// Fixed-size worker pool with a blocking Wait() for all submitted tasks.
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Thread-safe.
  void Submit(std::function<void()> task);

  /// Enqueues a value-returning task and hands back its future — the
  /// building block of the async scatter-gather serving path, where the
  /// gather waits on per-(shard, replica) work items with a hedging
  /// deadline instead of a barrier. The callable runs exactly once on a
  /// worker; exceptions propagate through the future.
  template <typename F>
  auto Async(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    Submit([task]() { (*task)(); });
    return future;
  }

  /// Blocks until every submitted task has finished.
  void Wait();

  /// True when the calling thread is one of *this* pool's workers. Blocking
  /// waits (future.wait, ParallelFor) from inside a worker can deadlock once
  /// every worker is the one waiting; callers use this to fall back to
  /// inline execution (ParallelFor does so automatically).
  bool InWorker() const;

  /// Splits [0, n) into contiguous chunks and runs `fn(begin, end)` on the
  /// pool, blocking until all chunks complete. Hardened edge cases:
  ///  * n == 0 returns immediately without invoking `fn`;
  ///  * n < num_threads() produces exactly n single-element chunks (never an
  ///    empty chunk);
  ///  * completion is tracked per call, so concurrent ParallelFor calls from
  ///    different threads do not wait on each other's work;
  ///  * a call from inside a pool worker runs inline on the calling thread
  ///    (nested fan-out would otherwise deadlock with every worker blocked
  ///    in a wait).
  void ParallelFor(std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn);

  std::size_t num_threads() const { return workers_.size(); }

  /// A process-wide pool sized to the hardware concurrency.
  static ThreadPool& Global();

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable task_cv_;   // signals workers
  std::condition_variable done_cv_;   // signals Wait()
  std::size_t in_flight_ = 0;
  bool stop_ = false;
};

}  // namespace ppanns

#endif  // PPANNS_COMMON_THREAD_POOL_H_
