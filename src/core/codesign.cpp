#include "core/codesign.hpp"

#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace catsched::core {

namespace {

/// The one-task edit turning periodic schedule \p base into \p moved when
/// they differ by +-1 in exactly one burst; nullopt for anything else
/// (different app count, several changed bursts, |step| > 1, no change).
/// Bursts are laid out in app order, so the task sits at the end of its
/// burst.
std::optional<sched::TaskMove> periodic_move(const sched::PeriodicSchedule& base,
                                             const sched::PeriodicSchedule& moved) {
  if (base.num_apps() != moved.num_apps()) return std::nullopt;
  std::size_t dim = base.num_apps();
  for (std::size_t i = 0; i < base.num_apps(); ++i) {
    const int d = moved.burst(i) - base.burst(i);
    if (d == 0) continue;
    if (dim != base.num_apps() || (d != 1 && d != -1)) return std::nullopt;
    dim = i;
  }
  if (dim == base.num_apps()) return std::nullopt;
  std::size_t burst_end = 0;
  for (std::size_t i = 0; i <= dim; ++i) {
    burst_end += static_cast<std::size_t>(base.burst(i));
  }
  sched::TaskMove move;
  move.app = dim;
  if (moved.burst(dim) > base.burst(dim)) {
    move.kind = sched::TaskMove::Kind::insert;
    move.pos = burst_end;
  } else {
    move.kind = sched::TaskMove::Kind::remove;
    move.pos = burst_end - 1;
  }
  return move;
}

}  // namespace

opt::DiscreteObjective make_objective(Evaluator& evaluator) {
  return [&evaluator](const std::vector<int>& m) {
    // Through the evaluator's schedule memo: the delta path anchors on the
    // base schedule's cached evaluation, so the plain objective must land
    // its results in the same place (also dedups across searches).
    const ScheduleEvaluation& ev = evaluator.evaluate_cached(
        sched::InterleavedSchedule::from_periodic(sched::PeriodicSchedule(m)));
    return opt::EvalOutcome{ev.pall, ev.feasible()};
  };
}

opt::NeighborObjective make_neighbor_objective(Evaluator& evaluator) {
  return [&evaluator](const std::vector<int>& base,
                      const std::vector<int>& point) {
    // Delta-aware: a +-1 move of one burst is evaluated against the base
    // schedule's cached evaluation and pattern; anything else takes the
    // plain memoized path. Bit-identical either way.
    const sched::PeriodicSchedule base_schedule(base);
    const sched::PeriodicSchedule moved(point);
    const auto moved_il = sched::InterleavedSchedule::from_periodic(moved);
    const std::string moved_key = moved_il.to_string();
    const std::optional<sched::TaskMove> move =
        periodic_move(base_schedule, moved);
    if (!move) {
      const ScheduleEvaluation& ev =
          evaluator.evaluate_cached(moved_il, moved_key);
      return opt::EvalOutcome{ev.pall, ev.feasible()};
    }
    const auto base_il = sched::InterleavedSchedule::from_periodic(base_schedule);
    const std::string base_key = base_il.to_string();
    const ScheduleEvaluation& base_eval =
        evaluator.evaluate_cached(base_il, base_key);
    const Anchor anchor{evaluator.timing_pattern(base_il, base_key), base_eval,
                        move, std::nullopt};
    const ScheduleEvaluation& ev =
        evaluator.evaluate_cached(moved_il, moved_key, &anchor);
    return opt::EvalOutcome{ev.pall, ev.feasible()};
  };
}

opt::CheapFeasible make_cheap_feasible(const Evaluator& evaluator) {
  return [&evaluator](const std::vector<int>& m) {
    return evaluator.idle_feasible(sched::PeriodicSchedule(m));
  };
}

CodesignResult find_optimal_schedule(
    Evaluator& evaluator, const std::vector<std::vector<int>>& starts,
    const opt::HybridOptions& opts, ThreadPool* pool) {
  if (starts.empty()) {
    throw std::invalid_argument("find_optimal_schedule: no start points");
  }
  CodesignResult res;
  res.search = opt::hybrid_search_multistart(
      make_objective(evaluator), make_cheap_feasible(evaluator), starts,
      opts, pool, make_neighbor_objective(evaluator));
  res.schedules_evaluated = res.search.unique_evaluations;
  if (res.search.combined.found_feasible) {
    res.found = true;
    res.best_schedule = sched::PeriodicSchedule(res.search.combined.best);
    // The winner was evaluated during the search: a memo hit, not a rerun.
    res.best_evaluation = evaluator.evaluate_cached(
        sched::InterleavedSchedule::from_periodic(res.best_schedule));
  }
  return res;
}

ExhaustiveCodesignResult exhaustive_codesign(Evaluator& evaluator,
                                             const opt::HybridOptions& opts,
                                             ThreadPool* pool) {
  ExhaustiveCodesignResult res;
  res.details = opt::exhaustive_search(make_objective(evaluator),
                                       make_cheap_feasible(evaluator),
                                       evaluator.model().num_apps(), opts,
                                       pool);
  if (res.details.found_feasible) {
    res.found = true;
    res.best_schedule = sched::PeriodicSchedule(res.details.best);
    res.best_evaluation = evaluator.evaluate(res.best_schedule);
  }
  return res;
}

}  // namespace catsched::core
