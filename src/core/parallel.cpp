#include "core/parallel.hpp"

#include <algorithm>
#include <exception>
#include <functional>
#include <utility>

namespace catsched::core {

std::size_t hardware_threads() noexcept {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<std::size_t>(n);
}

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = hardware_threads();
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::post(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

namespace {

/// Shared state of one parallel_for. Owned by shared_ptr because helper
/// tasks may be dequeued after the loop already finished (they then see
/// next >= n and return without touching body).
struct ForLoopState {
  ForLoopState(std::size_t total, std::size_t chunk_size,
               const std::function<void(std::size_t)>& b,
               const RunBudget* rb)
      : n(total), chunk(chunk_size == 0 ? 1 : chunk_size), body(b),
        budget(rb) {}

  const std::size_t n;
  const std::size_t chunk;
  const std::function<void(std::size_t)>& body;  // outlives wait (see below)
  const RunBudget* budget;                       // may be null
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::atomic<bool> failed{false};  // fail-fast: first throw stops new chunks
  std::mutex mu;
  std::condition_variable cv;
  std::exception_ptr error;  // first failure, guarded by mu

  /// Claim and run chunks of iterations until the index space is
  /// exhausted. One atomic increment claims `chunk` consecutive indices;
  /// completion is tracked per chunk, not per iteration.
  ///
  /// Short-circuit: a chunk claimed after a previous body threw, or after
  /// the budget fired, is counted done *without* running its body. Claiming
  /// must continue so the done == n completion condition still trips —
  /// silently abandoning indices would deadlock the caller's wait.
  void drain() {
    for (;;) {
      const bool skip = failed.load(std::memory_order_acquire) ||
                        (budget != nullptr && budget->cancelled());
      const std::size_t begin = next.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= n) return;
      const std::size_t end = std::min(begin + chunk, n);
      if (!skip) {
        for (std::size_t i = begin; i < end; ++i) {
          try {
            body(i);
          } catch (...) {
            failed.store(true, std::memory_order_release);
            std::lock_guard<std::mutex> lock(mu);
            if (!error) error = std::current_exception();
          }
        }
      }
      const std::size_t count = end - begin;
      if (done.fetch_add(count, std::memory_order_acq_rel) + count == n) {
        std::lock_guard<std::mutex> lock(mu);
        cv.notify_all();
      }
    }
  }
};

}  // namespace

std::size_t ThreadPool::default_chunk(std::size_t n,
                                      std::size_t participants) noexcept {
  if (participants == 0) participants = 1;
  const std::size_t chunk = n / (8 * participants);
  return std::clamp<std::size_t>(chunk, 1, 64);
}

void ThreadPool::parallel_for(std::size_t n, std::size_t chunk,
                              const std::function<void(std::size_t)>& body,
                              const RunBudget* budget) {
  if (n == 0) return;
  if (n == 1 || workers_.empty()) {
    for (std::size_t i = 0; i < n; ++i) {
      if (budget != nullptr && budget->cancelled()) return;
      body(i);
    }
    return;
  }
  if (chunk == 0) chunk = default_chunk(n, workers_.size() + 1);
  // `body` is only dereferenced by drain() while an index < n is claimed;
  // once the caller observed done == n every claimable index is gone, so
  // stragglers dequeued later exit immediately and the reference to the
  // caller's (by then dead) body is never followed.
  auto state = std::make_shared<ForLoopState>(n, chunk, body, budget);
  // Only as many helpers as there are chunks beyond the caller's first.
  const std::size_t chunks = (n + chunk - 1) / chunk;
  const std::size_t helpers = std::min(workers_.size(), chunks - 1);
  for (std::size_t i = 0; i < helpers; ++i) {
    post([state] { state->drain(); });
  }
  state->drain();  // the caller participates: nesting can never deadlock
  {
    std::unique_lock<std::mutex> lock(state->mu);
    state->cv.wait(lock, [&] {
      return state->done.load(std::memory_order_acquire) == state->n;
    });
    if (state->error) std::rethrow_exception(state->error);
  }
}

void parallel_for(ThreadPool* pool, std::size_t n,
                  const std::function<void(std::size_t)>& body) {
  parallel_for(pool, n, 0, body);
}

void parallel_for(ThreadPool* pool, std::size_t n, std::size_t chunk,
                  const std::function<void(std::size_t)>& body,
                  const RunBudget* budget) {
  if (pool != nullptr && pool->size() > 1) {
    pool->parallel_for(n, chunk, body, budget);
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      if (budget != nullptr && budget->cancelled()) return;
      body(i);
    }
  }
}

}  // namespace catsched::core
