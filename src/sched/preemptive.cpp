#include "sched/preemptive.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace catsched::sched {

std::vector<std::size_t> rate_monotonic_order(
    const std::vector<PreemptiveTask>& tasks) {
  std::vector<std::size_t> order(tasks.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return tasks[a].period < tasks[b].period;
                   });
  return order;
}

RtaResult response_time_analysis(const std::vector<PreemptiveTask>& tasks,
                                 const std::vector<std::size_t>&
                                     priority_order) {
  if (tasks.empty()) {
    throw std::invalid_argument("response_time_analysis: no tasks");
  }
  for (const auto& t : tasks) {
    if (t.period <= 0.0 || t.wcet <= 0.0 || t.crpd < 0.0) {
      throw std::invalid_argument(
          "response_time_analysis: periods/WCETs must be positive");
    }
  }
  // Validate permutation.
  std::vector<bool> seen(tasks.size(), false);
  if (priority_order.size() != tasks.size()) {
    throw std::invalid_argument("response_time_analysis: bad order size");
  }
  for (const std::size_t i : priority_order) {
    if (i >= tasks.size() || seen[i]) {
      throw std::invalid_argument(
          "response_time_analysis: order is not a permutation");
    }
    seen[i] = true;
  }

  RtaResult out;
  out.response.resize(tasks.size());
  out.all_schedulable = true;
  for (const auto& t : tasks) out.utilization += t.wcet / t.period;

  constexpr int kMaxIterations = 1000;
  for (std::size_t rank = 0; rank < priority_order.size(); ++rank) {
    const std::size_t i = priority_order[rank];
    const PreemptiveTask& ti = tasks[i];
    ResponseTime rt;
    double r = ti.wcet;
    for (int it = 0; it < kMaxIterations; ++it) {
      rt.iterations = it + 1;
      double next = ti.wcet;
      for (std::size_t hp = 0; hp < rank; ++hp) {
        const PreemptiveTask& tj = tasks[priority_order[hp]];
        next += std::ceil(r / tj.period) * (tj.wcet + tj.crpd);
      }
      if (next > ti.period) {
        // Deadline blown: unschedulable at this priority level.
        r = next;
        break;
      }
      if (std::abs(next - r) < 1e-15) {
        r = next;
        rt.schedulable = true;
        break;
      }
      r = next;
    }
    rt.value = rt.schedulable ? r : std::numeric_limits<double>::infinity();
    if (!rt.schedulable) out.all_schedulable = false;
    out.response[i] = rt;
  }
  return out;
}

RtaResult response_time_analysis_rm(const std::vector<PreemptiveTask>& tasks) {
  return response_time_analysis(tasks, rate_monotonic_order(tasks));
}

ScheduleTiming preemptive_timing(const std::vector<PreemptiveTask>& tasks,
                                 const RtaResult& rta) {
  if (rta.response.size() != tasks.size() || !rta.all_schedulable) {
    throw std::invalid_argument(
        "preemptive_timing: task set is not schedulable");
  }
  ScheduleTiming timing;
  timing.apps.resize(tasks.size());
  double hyper = 0.0;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    Interval iv;
    iv.h = tasks[i].period;
    iv.tau = rta.response[i].value;
    iv.warm = false;  // reuse across jobs is not guaranteed under preemption
    timing.apps[i].intervals = {iv};
    hyper = std::max(hyper, tasks[i].period);
  }
  timing.period = hyper;
  return timing;
}

}  // namespace catsched::sched
