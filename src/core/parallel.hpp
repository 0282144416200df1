#pragma once
/// \file parallel.hpp
/// \brief Shared-memory parallel substrate for the design-space
///        exploration engine: a fixed thread pool with a nesting-safe
///        parallel_for, strong hashes for integer-vector schedule keys,
///        and a sharded concurrent memo map (compute-once semantics) used
///        by opt::EvalCache and core::Evaluator.
///
/// Determinism contract: the pool never decides *what* is computed, only
/// *where*. Batch users write results into index-addressed slots and reduce
/// serially, so parallel runs are bit-identical to serial ones.

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/run_budget.hpp"

namespace catsched::core {

/// Usable hardware concurrency (always >= 1).
std::size_t hardware_threads() noexcept;

/// Fixed-size worker pool. Tasks are run FIFO by `threads` workers.
///
/// parallel_for is safe to nest (a pool task may itself call parallel_for
/// on the same pool): the caller always participates in the loop through a
/// shared atomic index, so progress never depends on a free worker.
class ThreadPool {
public:
  /// \param threads worker count; 0 means hardware_threads().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return workers_.size(); }

  /// Run body(0..n-1), distributing iterations over the pool plus the
  /// calling thread. Blocks until every iteration finished or the loop
  /// short-circuited. The first exception thrown by any iteration is
  /// rethrown here, and the loop fails fast: once a worker has thrown, no
  /// further chunks run their bodies (in-flight chunks on other threads
  /// still finish). Iteration order across threads is unspecified; callers
  /// needing determinism must write to per-index slots.
  ///
  /// Scheduling is dynamic in chunks of \p chunk iterations (0 means
  /// default_chunk()): threads claim the next unclaimed chunk from a shared
  /// atomic index, so a few expensive iterations (e.g. candidates that
  /// survive the feasibility early-outs) cannot strand the rest of the
  /// index space on one worker. Larger chunks amortize the claim for very
  /// cheap bodies; chunk 1 balances best when per-iteration cost varies
  /// wildly.
  ///
  /// When \p budget is non-null it is consulted at every chunk claim: once
  /// the budget fires, remaining chunks are skipped (their bodies never
  /// run) and the call returns normally with the index space only partially
  /// executed. Cancellation here never throws — the caller decides what a
  /// partial batch means (the searches discard it; see run_budget.hpp).
  void parallel_for(std::size_t n, std::size_t chunk,
                    const std::function<void(std::size_t)>& body,
                    const RunBudget* budget = nullptr);

  /// The low-variance default chunk size: aim for ~8 chunks per
  /// participating thread (worst-case imbalance from one straggler chunk
  /// stays a small fraction of a thread's share even under high
  /// per-iteration cost variance), capped at 64 iterations so the tail
  /// chunk of a huge loop cannot serialize on one worker. Always >= 1.
  static std::size_t default_chunk(std::size_t n,
                                   std::size_t participants) noexcept;

private:
  /// Fire-and-forget task.
  void post(std::function<void()> task);
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// Serial fallback helper: iterate inline when \p pool is null or has a
/// single worker and nothing can actually run concurrently.
void parallel_for(ThreadPool* pool, std::size_t n,
                  const std::function<void(std::size_t)>& body);

/// Serial fallback helper with an explicit chunk size (0 = default) and an
/// optional budget (checked per chunk, exactly like the pooled path).
void parallel_for(ThreadPool* pool, std::size_t n, std::size_t chunk,
                  const std::function<void(std::size_t)>& body,
                  const RunBudget* budget = nullptr);

/// splitmix64 finalizer: the avalanche stage used by all key hashes here.
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Strong hash for integer vectors (schedule bursts, quantized timing
/// patterns). std::hash<std::vector<...>> does not exist; this one mixes
/// every element through splitmix64 so near-identical schedules spread.
struct VectorHash {
  template <typename T>
  std::size_t operator()(const std::vector<T>& v) const noexcept {
    std::uint64_t h = 0x517cc1b727220a95ull ^ v.size();
    for (const T& x : v) {
      h = mix64(h ^ static_cast<std::uint64_t>(x));
    }
    return static_cast<std::size_t>(h);
  }
};

/// Hash for (index, integer-vector) pairs — the Evaluator memo key.
struct IndexedVectorHash {
  template <typename T>
  std::size_t operator()(
      const std::pair<std::size_t, std::vector<T>>& key) const noexcept {
    return static_cast<std::size_t>(
        mix64(VectorHash{}(key.second) ^ (key.first * 0x9e3779b97f4a7c15ull)));
  }
};

/// Sharded concurrent memoization map with compute-once semantics: however
/// many threads race on the same key, the compute function runs exactly
/// once and everyone observes the finished value. References returned by
/// get_or_compute stay valid for the map's lifetime (entries are never
/// erased; unordered_map never invalidates references on rehash).
template <typename Key, typename Value, typename Hash = std::hash<Key>>
class ConcurrentMemoMap {
public:
  /// Look up \p key; on first request compute it via \p fn. Thread-safe.
  template <typename Fn>
  const Value& get_or_compute(const Key& key, Fn&& fn) {
    Shard& shard = shard_of(key);
    Entry* entry;
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      std::unique_ptr<Entry>& slot = shard.map[key];
      if (!slot) slot = std::make_unique<Entry>();
      entry = slot.get();
    }
    // Outside the shard lock: a slow compute must not serialize unrelated
    // keys in the same shard. The once protocol is hand-rolled rather than
    // std::call_once because a throwing compute must leave the entry
    // retryable, and TSan's interceptor wedges an exceptionally-exited
    // once_flag forever (every later call_once on it deadlocks — the
    // fault-injection suites hit exactly that under -fsanitize=thread).
    std::unique_lock<std::mutex> lock(entry->mu);
    for (;;) {
      if (entry->state == Entry::State::ready) return entry->value;
      if (entry->state == Entry::State::empty) break;
      entry->cv.wait(lock, [&] { return entry->state != Entry::State::running; });
    }
    entry->state = Entry::State::running;
    lock.unlock();
    try {
      Value computed = fn();
      lock.lock();
      entry->value = std::move(computed);
      entry->state = Entry::State::ready;
    } catch (...) {
      lock.lock();
      entry->state = Entry::State::empty;  // exceptional compute: retryable
      lock.unlock();
      entry->cv.notify_all();
      throw;
    }
    lock.unlock();
    entry->cv.notify_all();
    return entry->value;
  }

  /// Entries present (requested at least once). Thread-safe.
  std::size_t size() const {
    std::size_t n = 0;
    for (const Shard& s : shards_) {
      std::lock_guard<std::mutex> lock(s.mu);
      n += s.map.size();
    }
    return n;
  }

private:
  struct Entry {
    enum class State { empty, running, ready };
    std::mutex mu;
    std::condition_variable cv;
    State state = State::empty;
    Value value{};
  };
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<Key, std::unique_ptr<Entry>, Hash> map;
  };

  static constexpr std::size_t kShards = 16;

  Shard& shard_of(const Key& key) {
    return shards_[Hash{}(key) % kShards];
  }

  std::array<Shard, kShards> shards_;
};

}  // namespace catsched::core
