#include "sched/timing.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace catsched::sched {

namespace {

void validate_wcets(const std::vector<AppWcet>& wcets, std::size_t num_apps) {
  if (wcets.size() != num_apps) {
    throw std::invalid_argument("derive_timing: wcets/app count mismatch");
  }
  for (const AppWcet& w : wcets) {
    if (w.cold_seconds <= 0.0 || w.warm_seconds <= 0.0 ||
        w.warm_seconds > w.cold_seconds) {
      throw std::invalid_argument(
          "derive_timing: need 0 < warm <= cold for every app");
    }
  }
}

/// Steady-state cache classification of every task: a task is warm iff the
/// cyclically-previous task is the same application. (With one app and one
/// segment, every task is warm in steady state.)
void classify_sequence(const std::vector<AppWcet>& wcets,
                       const std::vector<std::size_t>& seq,
                       std::vector<unsigned char>& warm,
                       std::vector<double>& exec) {
  const std::size_t t_count = seq.size();
  warm.resize(t_count);
  exec.resize(t_count);
  for (std::size_t k = 0; k < t_count; ++k) {
    const std::size_t prev = (k + t_count - 1) % t_count;
    warm[k] = seq[prev] == seq[k] ? 1 : 0;
    exec[k] = warm[k] ? wcets[seq[k]].warm_seconds : wcets[seq[k]].cold_seconds;
  }
}

/// Start time of each task within the period (tasks run back-to-back).
/// The accumulation order here is THE definition of the timing bits.
double accumulate_starts(const std::vector<double>& exec,
                         std::vector<double>& start) {
  start.resize(exec.size());
  double period = 0.0;
  for (std::size_t k = 0; k < exec.size(); ++k) {
    start[k] = period;
    period += exec[k];
  }
  return period;
}

/// Collect each app's task indices and build the interval lists; sampling
/// period = distance to the app's next task start (cyclic).
ScheduleTiming build_intervals(std::size_t num_apps,
                               const std::vector<std::size_t>& seq,
                               const std::vector<unsigned char>& warm,
                               const std::vector<double>& exec,
                               const std::vector<double>& start,
                               double period) {
  ScheduleTiming out;
  out.period = period;
  out.apps.resize(num_apps);
  std::vector<std::vector<std::size_t>> own(num_apps);
  for (std::size_t k = 0; k < seq.size(); ++k) own[seq[k]].push_back(k);
  for (std::size_t app = 0; app < num_apps; ++app) {
    AppTiming& at = out.apps[app];
    const std::vector<std::size_t>& mine = own[app];
    at.intervals.reserve(mine.size());
    for (std::size_t j = 0; j < mine.size(); ++j) {
      const std::size_t k = mine[j];
      Interval iv;
      iv.tau = exec[k];
      iv.warm = warm[k] != 0;
      if (j + 1 < mine.size()) {
        iv.h = start[mine[j + 1]] - start[k];
      } else {
        iv.h = period - start[k] + start[mine[0]];
      }
      at.intervals.push_back(iv);
    }
  }
  return out;
}

/// Context-sensitive classification: warm tasks keep the warm bound,
/// burst-opening tasks get their bound from the lookup, validated into
/// [warm, cold] so an out-of-contract lookup cannot smuggle an unsound
/// (or ordering-breaking) execution time into the schedule.
void classify_sequence_contexts(const std::vector<AppWcet>& wcets,
                                const ContextWcetLookup& contexts,
                                const std::vector<std::size_t>& seq,
                                std::size_t num_apps,
                                std::vector<unsigned char>& warm,
                                std::vector<double>& exec) {
  const std::vector<std::uint64_t> masks = compute_context_masks(seq, num_apps);
  const std::size_t t_count = seq.size();
  warm.resize(t_count);
  exec.resize(t_count);
  for (std::size_t k = 0; k < t_count; ++k) {
    const AppWcet& w = wcets[seq[k]];
    warm[k] = masks[k] == 0 ? 1 : 0;
    if (warm[k]) {
      exec[k] = w.warm_seconds;
      continue;
    }
    const double e = contexts.context_wcet_seconds(seq[k], masks[k]);
    if (!(e >= w.warm_seconds && e <= w.cold_seconds)) {
      throw std::invalid_argument(
          "derive_timing: context WCET outside [warm, cold]");
    }
    exec[k] = e;
  }
}

void validate_sequence(const std::vector<std::size_t>& seq,
                       std::size_t num_apps) {
  if (seq.empty() || num_apps == 0) {
    throw std::invalid_argument("derive_timing: empty task sequence");
  }
  std::vector<bool> used(num_apps, false);
  for (const std::size_t app : seq) {
    if (app >= num_apps) {
      throw std::invalid_argument("derive_timing: app index out of range");
    }
    used[app] = true;
  }
  for (std::size_t a = 0; a < num_apps; ++a) {
    if (!used[a]) {
      throw std::invalid_argument(
          "derive_timing: every app needs at least one task");
    }
  }
}

}  // namespace

double ContextWcetTable::context_wcet_seconds(std::size_t app,
                                              std::uint64_t mask) const {
  if (app >= base.size()) {
    throw std::invalid_argument("ContextWcetTable: app out of range");
  }
  if (mask == 0) return base[app].warm_seconds;
  if (app < contexts.size()) {
    const auto it = contexts[app].find(mask);
    if (it != contexts[app].end()) return it->second;
  }
  // Unknown context: the cold bound is sound for any interference.
  return base[app].cold_seconds;
}

std::vector<std::uint64_t> compute_context_masks(
    const std::vector<std::size_t>& seq, std::size_t num_apps) {
  validate_sequence(seq, num_apps);
  if (num_apps > 64) {
    throw std::invalid_argument(
        "compute_context_masks: more than 64 apps cannot be mask-encoded");
  }
  const std::size_t t_count = seq.size();
  std::vector<std::uint64_t> masks(t_count, 0);
  // acc[a] accumulates the apps seen since app a's most recent task. Two
  // cyclic passes: the first initializes the wrap-around state (what ran
  // after a's last task of the previous period), the second records.
  std::vector<std::uint64_t> acc(num_apps, 0);
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t k = 0; k < t_count; ++k) {
      const std::size_t app = seq[k];
      if (pass == 1) masks[k] = acc[app];
      const std::uint64_t bit = std::uint64_t{1} << app;
      for (std::size_t a = 0; a < num_apps; ++a) {
        if (a != app) acc[a] |= bit;
      }
      acc[app] = 0;
    }
  }
  return masks;
}

double AppTiming::h_max() const {
  double best = 0.0;
  for (const Interval& iv : intervals) best = std::max(best, iv.h);
  return best;
}

std::size_t longest_interval(const std::vector<Interval>& intervals) {
  std::size_t best = 0;
  for (std::size_t j = 1; j < intervals.size(); ++j) {
    if (intervals[j].h > intervals[best].h) best = j;
  }
  return best;
}

std::size_t AppTiming::longest_interval() const {
  return sched::longest_interval(intervals);
}

double AppTiming::period() const {
  double p = 0.0;
  for (const Interval& iv : intervals) p += iv.h;
  return p;
}

double AppTiming::idle_total() const {
  double busy = 0.0;
  for (const Interval& iv : intervals) busy += iv.tau;
  return period() - busy;
}

ScheduleTiming derive_timing(const std::vector<AppWcet>& wcets,
                             const PeriodicSchedule& schedule) {
  return derive_timing(wcets, InterleavedSchedule::from_periodic(schedule));
}

ScheduleTiming derive_timing(const std::vector<AppWcet>& wcets,
                             const InterleavedSchedule& schedule) {
  return derive_timing(wcets, schedule.task_sequence(), schedule.num_apps());
}

ScheduleTiming derive_timing(const std::vector<AppWcet>& wcets,
                             const std::vector<std::size_t>& seq,
                             std::size_t num_apps) {
  validate_wcets(wcets, num_apps);
  validate_sequence(seq, num_apps);
  std::vector<unsigned char> warm;
  std::vector<double> exec;
  std::vector<double> start;
  classify_sequence(wcets, seq, warm, exec);
  const double period = accumulate_starts(exec, start);
  return build_intervals(num_apps, seq, warm, exec, start, period);
}

ScheduleTiming derive_timing(const std::vector<AppWcet>& wcets,
                             const ContextWcetLookup& contexts,
                             const InterleavedSchedule& schedule) {
  return derive_timing(wcets, contexts, schedule.task_sequence(),
                       schedule.num_apps());
}

ScheduleTiming derive_timing(const std::vector<AppWcet>& wcets,
                             const ContextWcetLookup& contexts,
                             const std::vector<std::size_t>& seq,
                             std::size_t num_apps) {
  validate_wcets(wcets, num_apps);
  std::vector<unsigned char> warm;
  std::vector<double> exec;
  std::vector<double> start;
  classify_sequence_contexts(wcets, contexts, seq, num_apps, warm, exec);
  const double period = accumulate_starts(exec, start);
  return build_intervals(num_apps, seq, warm, exec, start, period);
}

std::vector<std::size_t> apply_move(const std::vector<std::size_t>& seq,
                                    const TaskMove& move) {
  std::vector<std::size_t> out;
  if (move.kind == TaskMove::Kind::insert) {
    if (move.pos > seq.size()) {
      throw std::invalid_argument("apply_move: insert position out of range");
    }
    out.reserve(seq.size() + 1);
    out.insert(out.end(), seq.begin(),
               seq.begin() + static_cast<std::ptrdiff_t>(move.pos));
    out.push_back(move.app);
    out.insert(out.end(), seq.begin() + static_cast<std::ptrdiff_t>(move.pos),
               seq.end());
  } else {
    if (move.pos >= seq.size()) {
      throw std::invalid_argument("apply_move: remove position out of range");
    }
    out.reserve(seq.size() - 1);
    out.insert(out.end(), seq.begin(),
               seq.begin() + static_cast<std::ptrdiff_t>(move.pos));
    out.insert(out.end(),
               seq.begin() + static_cast<std::ptrdiff_t>(move.pos) + 1,
               seq.end());
  }
  return out;
}

std::vector<std::size_t> apply_rotation(const std::vector<std::size_t>& seq,
                                        const BlockRotation& rot) {
  if (rot.len < 2 || rot.pos + rot.len > seq.size() ||
      rot.shift == 0 || rot.shift >= rot.len) {
    throw std::invalid_argument(
        "block rotation: need pos + len <= size, 2 <= len, 0 < shift < len");
  }
  std::vector<std::size_t> out = seq;
  std::rotate(out.begin() + static_cast<std::ptrdiff_t>(rot.pos),
              out.begin() + static_cast<std::ptrdiff_t>(rot.pos + rot.shift),
              out.begin() + static_cast<std::ptrdiff_t>(rot.pos + rot.len));
  return out;
}

bool idle_feasible(const ScheduleTiming& timing,
                   const std::vector<double>& tidle) {
  if (tidle.size() != timing.apps.size()) {
    throw std::invalid_argument("idle_feasible: tidle size mismatch");
  }
  for (std::size_t i = 0; i < timing.apps.size(); ++i) {
    if (timing.apps[i].h_max() > tidle[i]) return false;
  }
  return true;
}

}  // namespace catsched::sched
