#pragma once
/// \file trace.hpp
/// \brief In-memory span recorder for the traced benchmark run.
///
/// A span is one call into a library layer, recorded by the benchmark
/// around the public function it calls: name, start, end (seconds on the
/// steady clock), the span that caused it and the query it belongs to.
/// Spans stay in memory while the run measures and are written out once,
/// when the benchmark ends. With no tracer installed a Span costs one
/// pointer test, so untraced code paths pay nothing.

#include <chrono>
#include <cstddef>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  const char* name = "";  ///< string literal "<layer>.<call>"
  int id = 0;
  int parent = -1;  ///< -1 = no parent (a query's outermost span)
  int query = 0;    ///< spans of one query share this identifier
  double start = 0.0;
  double end = 0.0;
  double seconds() const { return end - start; }
};

class Tracer {
public:
  /// The installed tracer, or nullptr when the run is untraced.
  static Tracer*& active() {
    static Tracer* tracer = nullptr;
    return tracer;
  }

  /// Start a new query: spans opened from now on carry its identifier.
  void begin_query() {
    std::lock_guard<std::mutex> lock(mu_);
    ++query_;
  }

  /// Number of spans recorded so far; pass it to spans_since() to get the
  /// spans of whatever runs afterwards.
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }
  std::vector<SpanRecord> spans_since(std::size_t from) const {
    std::lock_guard<std::mutex> lock(mu_);
    return {spans_.begin() + static_cast<std::ptrdiff_t>(from), spans_.end()};
  }

  /// Write every span as one JSON object per line. Returns false when the
  /// file cannot be written.
  bool write_jsonl(const std::string& path) const;

private:
  friend class Span;

  struct Opened {
    int id;
    int parent;
    int query;
  };

  /// \p thread_parent is the innermost open span of the opening thread
  /// (-1 if none). A span opened on a thread with no open span of its own
  /// — a pool worker running part of a query — takes the innermost open
  /// span of the query-issuing thread as its parent.
  Opened open(int thread_parent, bool issuing_thread) {
    std::lock_guard<std::mutex> lock(mu_);
    const Opened o{next_id_++,
                   thread_parent >= 0 ? thread_parent : issuing_span_, query_};
    if (issuing_thread) issuing_span_ = o.id;
    return o;
  }
  void close(const SpanRecord& rec, bool issuing_thread) {
    std::lock_guard<std::mutex> lock(mu_);
    if (issuing_thread) issuing_span_ = rec.parent;
    spans_.push_back(rec);
  }

  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  ///< guarded by mu_
  int next_id_ = 0;                ///< guarded by mu_
  int query_ = 0;                  ///< guarded by mu_
  int issuing_span_ = -1;          ///< guarded by mu_
};

/// RAII span: records [construction, destruction) under the installed
/// tracer; a no-op when none is installed.
class Span {
public:
  explicit Span(const char* name) : tracer_(Tracer::active()) {
    if (tracer_ == nullptr) return;
    const Tracer::Opened o = tracer_->open(current(), issuing_thread());
    rec_.name = name;
    rec_.id = o.id;
    rec_.parent = o.parent;
    rec_.query = o.query;
    saved_ = current();
    current() = o.id;
    rec_.start = wall_now();
  }
  ~Span() {
    if (tracer_ == nullptr) return;
    rec_.end = wall_now();
    current() = saved_;
    tracer_->close(rec_, issuing_thread());
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Mark the calling thread as the one that issues queries.
  static void mark_issuing_thread() { issuing_thread() = true; }

private:
  static int& current() {
    thread_local int span = -1;
    return span;
  }
  static bool& issuing_thread() {
    thread_local bool issuing = false;
    return issuing;
  }

  Tracer* tracer_;
  SpanRecord rec_{};
  int saved_ = -1;
};

}  // namespace perfbench
