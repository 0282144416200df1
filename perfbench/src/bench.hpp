#pragma once
/// \file bench.hpp
/// \brief Shared vocabulary of the end-to-end benchmark: measurement
///        helpers, the correctness tally, and the Workload interface the
///        three workloads implement.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "control/design.hpp"
#include "core/evaluator.hpp"
#include "core/parallel.hpp"
#include "trace.hpp"

namespace perfbench {

namespace cache = catsched::cache;
namespace control = catsched::control;
namespace core = catsched::core;
namespace opt = catsched::opt;
namespace sched = catsched::sched;

/// Process CPU time in seconds (all threads).
double cpu_now();
/// CPU time of the calling thread in seconds. Set-up runs on one thread
/// and is timed with this clock: on a shared virtual machine, wall time
/// also counts the time other tenants held the CPU (steal time), which
/// was measured at up to 44% of all CPU time.
double thread_cpu_now();
/// Peak resident set size of the process so far, in MiB.
double peak_rss_mb();
/// Quantile by linear interpolation between order statistics; 0.5 is the
/// median. \p v must be non-empty.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Bit-exact floating-point equality (the repo's determinism contract is
/// stated on bits, not on values).
bool same_bits(double a, double b);

/// Tally of the correctness checks a run makes; every failure is printed.
class Checks {
public:
  void require(bool ok, const std::string& what);
  /// \p attempted checks at once, \p failed of which failed.
  void tally(int attempted, int failed, const std::string& what);
  int attempted() const { return attempted_; }
  int failed() const { return failed_; }

private:
  int attempted_ = 0;
  int failed_ = 0;
};

using Metrics = std::vector<std::pair<std::string, double>>;

/// One measured repetition of a workload's queries.
struct Rep {
  std::vector<double> setup_s;  ///< every set-up timed during the rep
                                ///< (thread CPU time)
  double query_s = 0.0;         ///< wall time of the queries
  double cpu_s = 0.0;           ///< process CPU time over the same interval
  double unique_evals = 0.0;    ///< unique schedule evaluations (co-design)
  double best_pall_mean = 0.0;  ///< mean best Pall over the queries
  double analyses = 0.0;        ///< context analyses run (WCET tables)
  Metrics layers;               ///< per-layer metrics, traced reps only
};

/// A workload builds its inputs from the seed once, then runs
/// repetitions. Each repetition builds fresh evaluators, so it repeats the
/// same work instead of hitting memos filled by an earlier one.
class Workload {
public:
  virtual ~Workload() = default;
  /// True for co-design workloads (schedule evaluations, Pall); false for
  /// the cache-analysis workload (context analyses).
  virtual bool codesign() const = 0;
  /// Run one repetition on \p pool. With \p traced, spans are recorded
  /// under the installed tracer and Rep::layers is filled from them.
  virtual Rep run(core::ThreadPool& pool, bool traced, Checks& checks) = 0;
  /// Pay the first repetition's one-off cost (page faults, allocator and
  /// pool warm-up) before anything is measured; checks still count.
  virtual void warm_up(core::ThreadPool& pool, Checks& checks) {
    run(pool, false, checks);
  }
};

std::unique_ptr<Workload> make_date18_exhaustive(std::uint64_t seed);
std::unique_ptr<Workload> make_gen_search(std::uint64_t seed,
                                          const std::string& scratch_dir);
std::unique_ptr<Workload> make_gen_wcet_tables(std::uint64_t seed);

/// Workers in every workload's pool; the calling thread takes part in
/// each parallel_for too, so a run uses kPoolWorkers + 1 threads.
inline constexpr std::size_t kPoolWorkers = 3;

// ---- span analysis shared by the workloads ------------------------------

/// Spans named \p name.
std::size_t span_count(const std::vector<SpanRecord>& spans, const char* name);
/// Summed duration of the spans named \p name.
double span_seconds(const std::vector<SpanRecord>& spans, const char* name);
/// Summed self time of the spans named \p parent: each one's duration minus
/// the part of it covered by the union of its descendants named in
/// \p children (descendants may run concurrently on pool workers).
double span_self_seconds(const std::vector<SpanRecord>& spans,
                         const char* parent,
                         const std::vector<std::string>& children);

// ---- controller-design replay shared by the co-design workloads ---------

/// The evaluations one evaluator produced during a traced repetition.
struct DesignSource {
  const core::Evaluator* evaluator = nullptr;
  const control::DesignOptions* design = nullptr;  ///< the evaluator's
  std::vector<const core::ScheduleEvaluation*> evaluations;
};

/// The control.* layer metrics of a repetition: design count and memo hits
/// from the evaluators' counters, PSO evaluations summed over the distinct
/// (app, timing pattern) designs found in the evaluations, and design
/// times from serially replaying control::design_controller (no pool) on up
/// to \p replay_cap of each source's patterns, picked at an even stride.
/// Each replay must reproduce the pooled design's settling-time bits.
void add_control_metrics(Metrics& out, const std::vector<DesignSource>& sources,
                         std::size_t replay_cap, Checks& checks);

}  // namespace perfbench
