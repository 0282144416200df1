#include "core/interleaved_codesign.hpp"

#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "opt/portfolio.hpp"

namespace catsched::core {

namespace {

using sched::InterleavedSchedule;
using sched::Segment;
using sched::TaskMove;

/// Merge cyclically-adjacent same-app segments so the candidate satisfies
/// the InterleavedSchedule invariant after a removal.
std::vector<Segment> merge_adjacent(std::vector<Segment> segs) {
  bool changed = true;
  while (changed && segs.size() > 1) {
    changed = false;
    for (std::size_t i = 0; i < segs.size(); ++i) {
      const std::size_t j = (i + 1) % segs.size();
      if (i != j && segs[i].app == segs[j].app) {
        segs[i].count += segs[j].count;
        segs.erase(segs.begin() + static_cast<std::ptrdiff_t>(j));
        changed = true;
        break;
      }
    }
  }
  return segs;
}

/// Keep a candidate only when it satisfies the schedule invariants,
/// checked explicitly via is_valid — the move generators legitimately
/// produce invalid shapes (a shrink can orphan an app, a swap can create
/// mergeable neighbors), and pre-checking drops exactly those while any
/// *other* std::invalid_argument still propagates as the bug it would be.
/// When the candidate is kept and a descriptor is set, it describes the
/// candidate as a one-task edit (\p move) or a block rotation (\p rot) of
/// the base sequence.
void push_if_valid(std::vector<InterleavedNeighbor>& out,
                   std::vector<Segment> segs, std::size_t num_apps,
                   std::optional<TaskMove> move = std::nullopt,
                   std::optional<sched::BlockRotation> rot = std::nullopt) {
  if (!InterleavedSchedule::is_valid(segs, num_apps)) return;
  out.push_back(InterleavedNeighbor{InterleavedSchedule(std::move(segs),
                                                        num_apps),
                                    std::move(move), std::move(rot)});
}

TaskMove insert_move(std::size_t pos, std::size_t app) {
  TaskMove m;
  m.kind = TaskMove::Kind::insert;
  m.pos = pos;
  m.app = app;
  return m;
}

TaskMove remove_move(std::size_t pos, std::size_t app) {
  TaskMove m;
  m.kind = TaskMove::Kind::remove;
  m.pos = pos;
  m.app = app;
  return m;
}

}  // namespace

std::vector<InterleavedNeighbor> interleaved_neighbor_moves(
    const InterleavedSchedule& schedule, const InterleavedSearchOptions& opts) {
  const auto& segs = schedule.segments();
  const std::size_t n = schedule.num_apps();
  std::vector<InterleavedNeighbor> out;

  // Task index of each segment's first task (segments run back to back).
  std::vector<std::size_t> first_task(segs.size() + 1, 0);
  for (std::size_t s = 0; s < segs.size(); ++s) {
    first_task[s + 1] = first_task[s] + static_cast<std::size_t>(segs[s].count);
  }
  const std::vector<std::size_t> base_seq = schedule.task_sequence();

  for (std::size_t s = 0; s < segs.size(); ++s) {
    const std::size_t seg_end =
        first_task[s] + static_cast<std::size_t>(segs[s].count);
    // Grow a burst: one more task at the end of the segment (any position
    // inside the burst yields the same sequence; the end keeps the
    // successor's classification untouched).
    if (segs[s].count < opts.max_burst) {
      auto grown = segs;
      ++grown[s].count;
      push_if_valid(out, std::move(grown), n,
                    insert_move(seg_end, segs[s].app));
    }
    // Shrink a burst / remove a singleton segment.
    if (segs[s].count > 1) {
      auto shrunk = segs;
      --shrunk[s].count;
      push_if_valid(out, std::move(shrunk), n,
                    remove_move(seg_end - 1, segs[s].app));
    } else {
      auto removed = segs;
      removed.erase(removed.begin() + static_cast<std::ptrdiff_t>(s));
      // The merge can wrap around the period and rotate the canonical task
      // sequence away from "base minus one task"; the verification pass
      // below strips the descriptor from such neighbors.
      push_if_valid(out, merge_adjacent(std::move(removed)), n,
                    remove_move(first_task[s], segs[s].app));
    }
    // Swap with the cyclic successor: not a one-task edit, but a
    // non-wrapping swap IS a left rotation of the two segments' combined
    // task range by the first segment's count. The wrap-around swap (last
    // segment with first) rotates the canonical sequence itself and gets
    // no descriptor.
    if (segs.size() > 2) {
      auto swapped = segs;
      std::swap(swapped[s], swapped[(s + 1) % swapped.size()]);
      std::optional<sched::BlockRotation> rot;
      if (s + 1 < segs.size()) {
        rot = sched::BlockRotation{
            first_task[s],
            static_cast<std::size_t>(segs[s].count + segs[s + 1].count),
            static_cast<std::size_t>(segs[s].count)};
      }
      push_if_valid(out, std::move(swapped), n, std::nullopt, std::move(rot));
    }
  }

  // Insert a fresh count-1 segment of any app at any gap (gap g = before
  // segment g; gap segs.size() = end of the period).
  if (segs.size() < static_cast<std::size_t>(opts.max_segments)) {
    for (std::size_t app = 0; app < n; ++app) {
      for (std::size_t gap = 0; gap <= segs.size(); ++gap) {
        auto grown = segs;
        grown.insert(grown.begin() + static_cast<std::ptrdiff_t>(gap),
                     Segment{app, 1});
        push_if_valid(out, std::move(grown), n,
                      insert_move(first_task[gap], app));
      }
    }
  }

  // A descriptor is only kept when the candidate's canonical task sequence
  // really is the base sequence with the one edit / rotation applied
  // (segment merges can rotate it; see above).
  for (InterleavedNeighbor& nb : out) {
    if (nb.move && sched::apply_move(base_seq, *nb.move) !=
                       nb.schedule.task_sequence()) {
      nb.move.reset();
    }
    if (nb.rotation && sched::apply_rotation(base_seq, *nb.rotation) !=
                           nb.schedule.task_sequence()) {
      nb.rotation.reset();
    }
  }
  return out;
}

namespace {

/// A schedule as a race point: [app0, count0, app1, count1, ...]. The
/// segments are stored as given, so two schedules share a point exactly
/// when they share a canonical key (to_string()).
std::vector<int> encode(const InterleavedSchedule& s) {
  std::vector<int> p;
  p.reserve(2 * s.segments().size());
  for (const Segment& seg : s.segments()) {
    p.push_back(static_cast<int>(seg.app));
    p.push_back(seg.count);
  }
  return p;
}

InterleavedSchedule decode(const std::vector<int>& p, std::size_t num_apps) {
  std::vector<Segment> segs;
  segs.reserve(p.size() / 2);
  for (std::size_t i = 0; i + 1 < p.size(); i += 2) {
    segs.push_back(Segment{static_cast<std::size_t>(p[i]), p[i + 1]});
  }
  return InterleavedSchedule(std::move(segs), num_apps);
}

/// The plain objective: the schedule's memoized full evaluation.
opt::DiscreteObjective make_interleaved_objective(Evaluator& evaluator,
                                                  std::size_t num_apps) {
  return [&evaluator, num_apps](const std::vector<int>& p) {
    const InterleavedSchedule s = decode(p, num_apps);
    const ScheduleEvaluation& ev = evaluator.evaluate_cached(s, s.to_string());
    return opt::EvalOutcome{ev.pall, ev.feasible()};
  };
}

/// The anchored objective: evaluates \p point against \p base's cached
/// evaluation, whose per-app results are reused where the point's pattern
/// is unchanged.
opt::NeighborObjective make_interleaved_neighbor_objective(
    Evaluator& evaluator, std::size_t num_apps) {
  return [&evaluator, num_apps](const std::vector<int>& base,
                                const std::vector<int>& point) {
    const InterleavedSchedule base_schedule = decode(base, num_apps);
    const ScheduleEvaluation& base_eval =
        evaluator.evaluate_cached(base_schedule, base_schedule.to_string());
    const InterleavedSchedule s = decode(point, num_apps);
    const ScheduleEvaluation& ev =
        evaluator.evaluate_cached(s, s.to_string(), &base_eval);
    return opt::EvalOutcome{ev.pall, ev.feasible()};
  };
}

/// Steepest ascent over the segment space: round 0 proposes the start,
/// every later round the idle-feasible neighbors of the current schedule
/// in generation order, anchored at it. The first feasible neighbor with
/// the highest Pall is accepted while it loses at most `tolerance`; a
/// non-improving move ends the walk when the tolerance is 0. `best` only
/// ever sees accepted schedules, so it is the best point on the path.
class InterleavedDriver final : public opt::SearchDriver {
 public:
  InterleavedDriver(const Evaluator& evaluator, InterleavedSchedule start,
                    const InterleavedSearchOptions& opts)
      : SearchDriver("interleaved"),
        evaluator_(evaluator),
        opts_(opts),
        cur_(std::move(start)),
        cur_point_(encode(cur_)) {}

  const std::vector<int>* anchor() const override {
    return seeded_ ? &cur_point_ : nullptr;
  }

  void observe(const std::vector<std::vector<int>>& points,
               const std::vector<const opt::EvalOutcome*>& outcomes) override {
    if (!seeded_) {
      cur_out_ = *outcomes[0];
      note(cur_point_, cur_out_);
      path_.push_back(cur_.to_string());
      seeded_ = true;
      return;
    }
    std::size_t next = points.size();
    for (std::size_t k = 0; k < points.size(); ++k) {
      if (!outcomes[k]->feasible) continue;
      if (next == points.size() || outcomes[k]->value > outcomes[next]->value) {
        next = k;
      }
    }
    if (next == points.size()) {  // no feasible neighbor
      finish();
      return;
    }
    const double gain = outcomes[next]->value - cur_out_.value;
    if (gain <= 0.0 &&
        (-gain > opts_.tolerance || points[next] == cur_point_)) {
      finish();  // local optimum, or the best move leads back here
      return;
    }
    cur_ = decode(points[next], cur_.num_apps());
    cur_point_ = points[next];
    cur_out_ = *outcomes[next];
    note(cur_point_, cur_out_);
    path_.push_back(cur_.to_string());
    ++steps_;
    if (gain <= 0.0 && opts_.tolerance == 0.0) finish();
  }

  const std::vector<std::string>& path() const { return path_; }
  int steps() const { return steps_; }

 protected:
  std::vector<std::vector<int>> propose() override {
    if (!seeded_) return {cur_point_};
    if (steps_ >= opts_.max_steps) return {};
    std::vector<std::vector<int>> batch;
    for (const InterleavedNeighbor& nb :
         interleaved_neighbor_moves(cur_, opts_)) {
      if (evaluator_.idle_feasible(nb.schedule)) {
        batch.push_back(encode(nb.schedule));
      }
    }
    return batch;  // empty = no idle-feasible neighbor: converged
  }

 private:
  const Evaluator& evaluator_;
  InterleavedSearchOptions opts_;
  InterleavedSchedule cur_;
  std::vector<int> cur_point_;
  opt::EvalOutcome cur_out_;
  bool seeded_ = false;
  int steps_ = 0;
  std::vector<std::string> path_;
};

}  // namespace

InterleavedSearchResult interleaved_search(
    Evaluator& evaluator, const InterleavedSchedule& start,
    const InterleavedSearchOptions& opts, ThreadPool* pool) {
  if (!evaluator.idle_feasible(start)) {
    throw std::invalid_argument(
        "interleaved_search: start violates the idle-time constraint");
  }
  const std::size_t num_apps = start.num_apps();
  std::vector<std::unique_ptr<opt::SearchDriver>> lane;
  lane.push_back(std::make_unique<InterleavedDriver>(evaluator, start, opts));
  // Round 0 evaluates the start, round k the neighborhood of step k.
  const opt::PortfolioResult race_res = opt::race_owned(
      lane, make_interleaved_objective(evaluator, num_apps),
      make_interleaved_neighbor_objective(evaluator, num_apps),
      opts.max_steps + 1, 0, opts.anytime, pool);
  const auto& driver = static_cast<const InterleavedDriver&>(*lane.front());
  InterleavedSearchResult res;
  if (driver.found_feasible()) {
    res.found = true;
    res.best = decode(driver.best(), num_apps);
    // A memo hit unless a resume served the best point from the journal.
    res.best_evaluation = evaluator.evaluate_cached(res.best);
  }
  res.steps = driver.steps();
  res.path = driver.path();
  res.unique_evaluations = race_res.unique_evaluations;
  res.telemetry = race_res.telemetry;
  return res;
}

}  // namespace catsched::core
