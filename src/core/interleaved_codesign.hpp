#pragma once
/// \file interleaved_codesign.hpp
/// \brief Search over general interleaved schedules (the paper's Sec. VI
///        future work): local moves on the segment sequence -- grow/shrink
///        a burst, move a task into a new segment, swap segments -- driven
///        by the same expensive evaluation as the periodic search, with a
///        hill climb + tolerance acceptance rule.
///
/// The search is one driver raced alone by opt::race (opt/portfolio.hpp)
/// on an EvalCache it owns, exactly like a lone hybrid walk: a schedule is
/// the integer point [app0, count0, app1, count1, ...], each round's
/// idle-feasible neighbors are evaluated in one pooled fan-out anchored at
/// the current schedule, and the step decision is serial. The accepted
/// path, best schedule and distinct-evaluation count are therefore
/// bit-identical at every thread count (enforced by
/// test_interleaved_search). The pool is opt-in; the default (nullptr)
/// evaluates serially, exactly like core/codesign.

#include <optional>
#include <string>
#include <vector>

#include "core/anytime.hpp"
#include "core/evaluator.hpp"

namespace catsched::core {

/// Knobs of the interleaved local search.
struct InterleavedSearchOptions {
  double tolerance = 0.0;      ///< accept moves losing at most this much
  int max_steps = 60;          ///< accepted moves cap
  int max_segments = 8;        ///< segment-count cap (schedule complexity)
  int max_burst = 16;          ///< per-segment count cap

  /// Shared anytime/checkpoint knobs (see core/anytime.hpp): the budget
  /// counts every evaluation the race charges, the start's included; the
  /// checkpoint path arms the cache's evaluation-table journal and resumes
  /// from an existing file by replay (see tests/test_anytime.cpp).
  AnytimeOptions anytime;
};

/// Outcome of the interleaved search.
struct InterleavedSearchResult {
  sched::InterleavedSchedule best;
  ScheduleEvaluation best_evaluation;
  bool found = false;
  int steps = 0;
  /// Distinct schedules in the search's cache at return, resumed entries
  /// included (see the evaluation-count naming scheme in
  /// opt/discrete_search.hpp).
  int unique_evaluations = 0;
  std::vector<std::string> path;  ///< accepted schedules, start first
  /// Anytime/checkpoint observability (defaults = nothing fired).
  RunTelemetry telemetry;
};

/// One neighbor candidate plus the edit that produces it from the base
/// (at most one is set, each verified against the candidate):
///  * `move` iff the neighbor's task sequence is exactly the base sequence
///    with one task inserted/removed (grow/shrink/insert/remove moves; a
///    removal whose segment merge wraps around the period rotates the
///    sequence and gets no descriptor);
///  * `rotation` iff it is the base sequence with one contiguous block
///    left-rotated (non-wrapping segment swaps).
/// The search itself evaluates a neighbor from its schedule alone (against
/// the current schedule's evaluation); the descriptors feed
/// Evaluator::derive_neighbor_timing's descriptor overloads.
struct InterleavedNeighbor {
  sched::InterleavedSchedule schedule;
  std::optional<sched::TaskMove> move;
  std::optional<sched::BlockRotation> rotation;
};

/// All valid one-move neighbors of an interleaved schedule, each with its
/// edit descriptor when it has one:
///  * increment / decrement one segment's count,
///  * remove a count-1 segment (merging newly adjacent same-app segments),
///  * insert a new count-1 segment of any app at any gap,
///  * swap two cyclically adjacent segments.
/// Only schedules passing InterleavedSchedule's own invariants are
/// returned; the segment/burst caps prune the move set.
std::vector<InterleavedNeighbor> interleaved_neighbor_moves(
    const sched::InterleavedSchedule& schedule,
    const InterleavedSearchOptions& opts = {});

/// Steepest-ascent local search from \p start over interleaved schedules,
/// evaluating through \p evaluator (idle-infeasible neighbors are skipped
/// before any controller design runs). Round 0 evaluates the start, round
/// k the neighborhood of step k; the first feasible neighbor with the
/// highest Pall is accepted while it loses at most `tolerance`. With a
/// \p pool, each round's neighbors are evaluated concurrently —
/// bit-identical results to the serial run (see the file header). A budget
/// cut in mid-round discards the round; its finished evaluations stay in
/// the cache and in `unique_evaluations`.
/// \throws std::invalid_argument if start is idle-infeasible.
InterleavedSearchResult interleaved_search(
    Evaluator& evaluator, const sched::InterleavedSchedule& start,
    const InterleavedSearchOptions& opts = {}, ThreadPool* pool = nullptr);

}  // namespace catsched::core
