// Deterministic parallel execution: a fixed-size thread pool and a
// statically-partitioned parallel_for.
//
// The hot loops this layer serves are *embarrassingly* parallel by
// construction — a Jacobi best-reply round replies against the frozen
// round-start loads (core/dynamics), and DES replications are fully
// independent runs on jump-separated RNG streams (simmodel/replication).
// What the callers need is therefore not throughput tricks but a
// *determinism contract*:
//
//   * work-stealing-free: iteration chunks are assigned to workers by a
//     static rule (chunk c runs on worker c mod W), so which worker —
//     and therefore which per-worker workspace — touches which index is
//     a pure function of (range, grain, pool size), never of timing;
//   * threads = 1 is byte-for-byte the serial path: no pool threads are
//     spawned, no mutex is taken, `parallel_for` degenerates to a plain
//     loop calling fn(i, 0) in index order;
//   * results must be reduced by the *caller* in index order (each
//     index writes its own slot; the pool never reorders a reduction),
//     which is what makes the callers bitwise independent of the
//     thread count.
//
// Thread-count resolution: an explicit `threads` request wins; 0 means
// "auto" — the NASHLB_THREADS environment variable if set, else
// std::thread::hardware_concurrency(). All concurrency in src/ goes
// through this pool: tools/nashlb_analyzer.py (`raw-concurrency` rule)
// rejects raw std::thread / std::async / OpenMP anywhere else, so every
// parallel code path inherits the contract above and is covered by the
// single TSan gate (tools/check_tsan.sh).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace nashlb::util {

/// Resolves a thread-count request to a concrete worker count >= 1:
/// `requested` itself when nonzero; otherwise the NASHLB_THREADS
/// environment variable when it parses to a positive integer; otherwise
/// std::thread::hardware_concurrency() (itself clamped to >= 1).
[[nodiscard]] std::size_t resolve_threads(std::size_t requested = 0) noexcept;

/// Fixed-size pool: `size()` workers total, of which `size() - 1` are
/// background threads and the calling thread is worker 0. A pool of
/// size 1 owns no threads at all. Construction is the only expensive
/// operation (~50 us per thread); create one pool per solve/batch, not
/// per round.
class ThreadPool {
 public:
  /// `threads` is resolved via resolve_threads (so 0 = auto).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total worker count (calling thread included).
  [[nodiscard]] std::size_t size() const noexcept { return workers_; }

  /// Runs fn(i, worker) for every i in [begin, end), where worker in
  /// [0, size()) identifies the executing worker (index per-worker
  /// scratch with it). The range is split into contiguous chunks of at
  /// least `grain` indices (grain 0 counts as 1) and chunk c is executed
  /// by worker c % size(), each worker walking its chunks in ascending
  /// order — fully deterministic assignment, no stealing. Blocks until
  /// every index ran. If any fn invocation throws, the exception from
  /// the lowest-numbered chunk is rethrown after the join (later chunks
  /// of the same worker are skipped; other workers run to completion).
  ///
  /// Not reentrant: fn must not call parallel_for on the same pool.
  void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                    const std::function<void(std::size_t, std::size_t)>& fn);

 private:
  struct Chunk {
    std::size_t begin;
    std::size_t end;
  };

  void worker_loop(std::size_t worker);
  void run_chunks(std::size_t worker);

  std::size_t workers_ = 1;
  std::vector<std::thread> threads_;

  // Job state, guarded by mutex_. A "job" is one parallel_for call:
  // generation_ bumps, workers wake, run their static chunk share, and
  // the last one to finish wakes the caller.
  std::mutex mutex_;
  std::condition_variable wake_workers_;
  std::condition_variable job_done_;
  std::uint64_t generation_ = 0;
  std::size_t pending_workers_ = 0;
  bool stopping_ = false;

  // Per-job data: written by the caller before the wake, read-only
  // while the job runs (chunk exception slots are disjoint per chunk).
  const std::function<void(std::size_t, std::size_t)>* job_fn_ = nullptr;
  std::vector<Chunk> chunks_;
  std::vector<std::exception_ptr> chunk_errors_;
};

}  // namespace nashlb::util
