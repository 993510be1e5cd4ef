#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>

#include "common/check.h"

namespace dot {

int ThreadPool::ResolveThreadCount(int requested) {
  if (requested <= 0) {
    requested = static_cast<int>(std::thread::hardware_concurrency());
  }
  return std::max(1, requested);
}

ThreadPool::ThreadPool(int num_threads) {
  num_threads_ = ResolveThreadCount(num_threads);
  workers_.reserve(static_cast<size_t>(num_threads_ - 1));
  for (int i = 0; i < num_threads_ - 1; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  wake_.notify_all();
  for (std::thread& w : workers_) w.join();
  // Workers drain the queue before exiting, but tasks submitted after
  // shutdown began (there are none in this library) would be dropped here.
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      wake_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown with nothing left to do
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

bool ThreadPool::RunPendingTask() {
  std::function<void()> task;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_.empty()) return false;
    task = std::move(queue_.front());
    queue_.pop();
  }
  task();
  return true;
}

void ThreadPool::ParallelFor(int64_t begin, int64_t end,
                             const std::function<void(int64_t)>& fn) {
  if (begin >= end) return;
  const int64_t count = end - begin;
  if (num_threads_ == 1 || count == 1) {
    for (int64_t i = begin; i < end; ++i) fn(i);
    return;
  }
  // Dynamic scheduling over a shared index; caller participates. The
  // iteration order is nondeterministic but every index runs exactly once —
  // callers needing determinism reduce via ParallelForShards instead.
  std::atomic<int64_t> next(begin);
  std::atomic<int> pending(0);
  std::exception_ptr first_error = nullptr;
  std::mutex error_mu;
  auto drain = [&] {
    for (;;) {
      const int64_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= end) return;
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (first_error == nullptr) first_error = std::current_exception();
      }
    }
  };
  const int helpers =
      static_cast<int>(std::min<int64_t>(num_threads_ - 1, count - 1));
  std::vector<std::future<void>> futures;
  futures.reserve(static_cast<size_t>(helpers));
  for (int t = 0; t < helpers; ++t) {
    pending.fetch_add(1);
    futures.push_back(Submit([&] {
      drain();
      pending.fetch_sub(1);
    }));
  }
  drain();
  // Helpers may still be mid-iteration; wait for them (helping with any
  // unrelated queued work so a reentrant ParallelFor cannot deadlock).
  for (auto& f : futures) {
    while (f.wait_for(std::chrono::seconds(0)) !=
           std::future_status::ready) {
      if (!RunPendingTask()) f.wait();
    }
    f.get();
  }
  DOT_CHECK(pending.load() == 0);
  if (first_error != nullptr) std::rethrow_exception(first_error);
}

void ThreadPool::ParallelForShards(
    int64_t begin, int64_t end, int num_shards,
    const std::function<void(int shard, int64_t shard_begin,
                             int64_t shard_end)>& fn) {
  if (begin >= end) return;
  const int64_t count = end - begin;
  num_shards = static_cast<int>(
      std::min<int64_t>(std::max(1, num_shards), count));
  const int64_t base = count / num_shards;
  const int64_t extra = count % num_shards;
  // Shard s covers base iterations plus one of the `extra` remainder slots —
  // a pure function of (begin, end, num_shards).
  std::vector<std::pair<int64_t, int64_t>> ranges;
  ranges.reserve(static_cast<size_t>(num_shards));
  int64_t at = begin;
  for (int s = 0; s < num_shards; ++s) {
    const int64_t len = base + (s < extra ? 1 : 0);
    ranges.emplace_back(at, at + len);
    at += len;
  }
  DOT_CHECK(at == end);
  ParallelFor(0, num_shards, [&](int64_t s) {
    const auto& r = ranges[static_cast<size_t>(s)];
    fn(static_cast<int>(s), r.first, r.second);
  });
}

}  // namespace dot
