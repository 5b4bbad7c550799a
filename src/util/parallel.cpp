#include "util/parallel.hpp"

#include <cstdlib>

namespace nashlb::util {

std::size_t resolve_threads(std::size_t requested) noexcept {
  if (requested != 0) return requested;
  if (const char* env = std::getenv("NASHLB_THREADS")) {
    char* end = nullptr;
    const unsigned long long parsed = std::strtoull(env, &end, 10);
    if (end != env && *end == '\0' && parsed >= 1) {
      return static_cast<std::size_t>(parsed);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

ThreadPool::ThreadPool(std::size_t threads)
    : workers_(resolve_threads(threads)) {
  threads_.reserve(workers_ - 1);
  for (std::size_t w = 1; w < workers_; ++w) {
    threads_.emplace_back([this, w] { worker_loop(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_workers_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::run_chunks(std::size_t worker) {
  // Static assignment: worker w owns chunks w, w + W, w + 2W, ... in
  // ascending order. No shared counters, so the (chunk -> worker)
  // mapping — and each worker's visit order — is a pure function of
  // the range.
  for (std::size_t c = worker; c < chunks_.size(); c += workers_) {
    try {
      for (std::size_t i = chunks_[c].begin; i < chunks_[c].end; ++i) {
        job_call_(job_body_, i, worker);
      }
    } catch (...) {
      chunk_errors_[c] = std::current_exception();
      return;  // skip this worker's remaining chunks
    }
  }
}

void ThreadPool::worker_loop(std::size_t worker) {
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    wake_workers_.wait(lock,
                       [&] { return stopping_ || generation_ != seen; });
    if (stopping_) return;
    seen = generation_;
    lock.unlock();
    run_chunks(worker);
    lock.lock();
    if (--pending_workers_ == 0) job_done_.notify_one();
  }
}

void ThreadPool::run_job(std::size_t begin, std::size_t end,
                         std::size_t grain, const void* body,
                         Trampoline call) {
  const std::size_t count = end - begin;
  // Chunking: small enough chunks that uneven per-index cost balances
  // across workers (4 per worker), but never below the caller's grain
  // and never more chunks than indices.
  std::size_t chunk_size = (count + workers_ * 4 - 1) / (workers_ * 4);
  if (chunk_size < grain) chunk_size = grain;
  const std::size_t num_chunks = (count + chunk_size - 1) / chunk_size;
  chunks_.clear();
  chunks_.reserve(num_chunks);
  for (std::size_t c = 0; c < num_chunks; ++c) {
    const std::size_t lo = begin + c * chunk_size;
    const std::size_t hi = lo + chunk_size < end ? lo + chunk_size : end;
    chunks_.push_back({lo, hi});
  }
  chunk_errors_.assign(num_chunks, nullptr);
  job_body_ = body;
  job_call_ = call;

  {
    const std::lock_guard<std::mutex> lock(mutex_);
    pending_workers_ = workers_ - 1;
    ++generation_;
  }
  wake_workers_.notify_all();
  run_chunks(0);  // the calling thread is worker 0
  {
    std::unique_lock<std::mutex> lock(mutex_);
    job_done_.wait(lock, [&] { return pending_workers_ == 0; });
  }
  job_body_ = nullptr;
  job_call_ = nullptr;

  // Deterministic error propagation: the lowest-numbered failing chunk
  // wins, regardless of which worker hit it first in wall time.
  for (const std::exception_ptr& err : chunk_errors_) {
    if (err) std::rethrow_exception(err);
  }
}

}  // namespace nashlb::util
