#include "common/thread_pool.hpp"

#include "common/check.hpp"
#include "common/types.hpp"

#include <atomic>
#include <algorithm>
#include <exception>

namespace feves {

ThreadPool::ThreadPool(unsigned num_threads) {
  const unsigned n = std::max(1u, num_threads);
  workers_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::future<void> ThreadPool::submit(std::function<void()> fn) {
  auto task = std::make_shared<std::packaged_task<void()>>(std::move(fn));
  std::future<void> fut = task->get_future();
  {
    std::lock_guard lock(mutex_);
    FEVES_CHECK_MSG(!stop_, "submit() on a stopped ThreadPool");
    tasks_.emplace([task] { (*task)(); });
  }
  cv_.notify_one();
  return fut;
}

void ThreadPool::parallel_for(int begin, int end,
                              const std::function<void(int)>& fn) {
  if (begin >= end) return;
  const int total = end - begin;
  const int parts = std::min<int>(total, static_cast<int>(size()) + 1);
  const int chunk = ceil_div(total, parts);

  std::atomic<int> next{begin};
  // Lowest chunk start that threw so far. Chunks are claimed in increasing
  // order, so a claim above it can never win and is dropped; a claim below
  // it must still run, because its own error would win.
  std::atomic<int> first_error_chunk{end};
  std::atomic<bool> abandoned{false};  // submit() failed: stop every drain
  std::exception_ptr first_error;
  std::mutex error_mutex;

  auto drain = [&] {
    for (;;) {
      const int lo = next.fetch_add(chunk);
      if (lo >= end || lo > first_error_chunk.load(std::memory_order_relaxed) ||
          abandoned.load(std::memory_order_relaxed)) {
        break;
      }
      const int hi = std::min(end, lo + chunk);
      try {
        for (int i = lo; i < hi; ++i) fn(i);
      } catch (...) {
        std::lock_guard lock(error_mutex);
        // Deterministic winner: the lowest-indexed chunk that threw,
        // not whichever worker reaches this lock first.
        if (lo < first_error_chunk.load(std::memory_order_relaxed)) {
          first_error_chunk.store(lo, std::memory_order_relaxed);
          first_error = std::current_exception();
        }
        break;
      }
    }
  };

  // Every helper that was submitted MUST be waited for before this frame
  // unwinds — the drains reference `next`/`fn`/`error_mutex` on this stack.
  // That includes the path where submit() itself throws partway through.
  std::vector<std::future<void>> futs;
  futs.reserve(parts - 1);
  std::exception_ptr submit_error;
  try {
    for (int p = 1; p < parts; ++p) futs.push_back(submit(drain));
  } catch (...) {
    submit_error = std::current_exception();
    abandoned.store(true, std::memory_order_relaxed);  // stop in-flight drains
  }
  if (!submit_error) drain();  // The caller participates instead of idling.
  for (auto& f : futs) f.wait();

  if (first_error) std::rethrow_exception(first_error);
  if (submit_error) std::rethrow_exception(submit_error);
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

}  // namespace feves
