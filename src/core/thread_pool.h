// A small fixed-size worker pool for sharded simulation runs.
//
// The pool hands out task indices dynamically (an atomic cursor), so load
// imbalance between shards — e.g. the few traffic-consented homes costing
// far more than the rest — self-levels without any static assignment.
// Determinism is the caller's contract: tasks must not communicate except
// through their own outputs, so the schedule can never change results.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

namespace bismark {

/// Workers for a pool that runs `tasks` tasks given up to `workers`
/// threads: never more than there are tasks, at least one, and within int.
/// A pool sized by it starts no thread that could not get a task, however
/// large the requested count.
[[nodiscard]] constexpr int PoolWorkers(std::size_t workers, std::size_t tasks) {
  const std::size_t capped = std::min(
      {workers, tasks, static_cast<std::size_t>(std::numeric_limits<int>::max())});
  return static_cast<int>(std::max<std::size_t>(1, capped));
}

class ThreadPool {
 public:
  /// `workers` is clamped to >= 1. With one worker no threads are spawned
  /// and tasks run inline on the calling thread (zero-overhead serial path,
  /// handy under debuggers and sanitizers).
  explicit ThreadPool(int workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int workers() const { return workers_; }

  /// Run `count` tasks, calling `fn(task_index, worker_index)` for each.
  /// worker_index is in [0, workers()): use it to reuse per-worker state
  /// (e.g. one sim::Engine per worker, reset between shards). Blocks until
  /// every task finished; the calling thread participates as worker 0.
  /// The first exception thrown by a task is rethrown here after the round
  /// completes (remaining tasks are skipped, running ones finish).
  void parallel_for(std::size_t count, const std::function<void(std::size_t, int)>& fn);

  /// Per-worker utilization of the last parallel_for round. Dynamic task
  /// dealing makes these schedule-dependent, so they feed only the
  /// *volatile* section of run reports — never the deterministic metrics.
  struct WorkerStats {
    std::uint64_t tasks{0};
    double busy_s{0.0};  ///< wall time spent inside task bodies
  };
  [[nodiscard]] const std::vector<WorkerStats>& last_round_stats() const {
    return last_stats_;
  }

  /// std::thread::hardware_concurrency with a sane floor of 1.
  static int HardwareWorkers();

 private:
  struct Round;  // one parallel_for invocation's shared state

  int workers_;
  std::vector<std::thread> threads_;
  std::vector<WorkerStats> last_stats_;

  std::mutex mu_;
  std::condition_variable work_cv_;
  Round* round_{nullptr};  // non-null while a round is being executed
  std::uint64_t round_seq_{0};  // guards against re-joining a drained round
  bool shutdown_{false};

  void worker_loop(int worker_index);
  static void run_tasks(Round& round, int worker_index);
};

}  // namespace bismark
