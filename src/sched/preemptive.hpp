#pragma once
/// \file preemptive.hpp
/// \brief Fixed-priority preemptive scheduling substrate: rate-monotonic
///        priority assignment and response-time analysis with CRPD-aware
///        preemption costs. The comparison point for the paper's
///        non-preemptive consecutive bursts: under preemption every task
///        samples at its own period (h_i = T_i, tau_i = R_i), but each
///        preemption reloads evicted useful cache lines.

#include <cstddef>
#include <vector>

#include "sched/timing.hpp"

namespace catsched::sched {

/// One task under fixed-priority preemptive scheduling.
struct PreemptiveTask {
  double period = 0.0;  ///< T_i (= implicit deadline), seconds
  double wcet = 0.0;    ///< C_i, seconds (cold-cache WCET: reuse across
                        ///< jobs is NOT guaranteed under preemption)
  double crpd = 0.0;    ///< gamma_i: CRPD this task *causes as preemptor*
                        ///< to any lower-priority task, seconds
};

/// Rate-monotonic priority order: indices sorted by ascending period
/// (ties by index). Position 0 = highest priority.
std::vector<std::size_t> rate_monotonic_order(
    const std::vector<PreemptiveTask>& tasks);

/// Response-time analysis outcome for one task.
struct ResponseTime {
  double value = 0.0;     ///< R_i (infinity if unschedulable)
  bool schedulable = false;  ///< R_i <= T_i and the iteration converged
  int iterations = 0;
};

/// Full system analysis.
struct RtaResult {
  std::vector<ResponseTime> response;  ///< indexed like `tasks`
  bool all_schedulable = false;
  double utilization = 0.0;  ///< sum C_i / T_i (without CRPD)
};

/// CRPD-aware response-time analysis, priorities per \p priority_order
/// (highest first):
///   R_i = C_i + sum_{j in hp(i)} ceil(R_i / T_j) (C_j + gamma_j)
/// iterated to a fixpoint. Each preemption by j charges j's WCET plus the
/// CRPD bound gamma_j it inflicts on the preempted task.
/// \throws std::invalid_argument on empty tasks, nonpositive periods/wcets,
///         or an order that is not a permutation.
RtaResult response_time_analysis(const std::vector<PreemptiveTask>& tasks,
                                 const std::vector<std::size_t>&
                                     priority_order);

/// Convenience: RM priorities.
RtaResult response_time_analysis_rm(const std::vector<PreemptiveTask>& tasks);

/// Control-timing view of a schedulable preemptive task set: every task
/// samples uniformly at its period with sensing-to-actuation delay equal
/// to its response time (one interval per app; uniform sampling).
/// \throws std::invalid_argument if the task set is not schedulable.
ScheduleTiming preemptive_timing(const std::vector<PreemptiveTask>& tasks,
                                 const RtaResult& rta);

}  // namespace catsched::sched
