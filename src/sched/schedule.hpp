#pragma once
/// \file schedule.hpp
/// \brief Periodic schedules (m1, m2, ..., mn) as defined in paper Sec. II,
///        plus the more general interleaved schedules the paper lists as
///        future work (segments of consecutive tasks, apps may repeat).

#include <cstddef>
#include <string>
#include <vector>

namespace catsched::sched {

/// A periodic schedule: application i runs m[i] consecutive tasks per
/// schedule period, i.e. the task sequence is
///   C1 x m[0], C2 x m[1], ..., Cn x m[n-1], repeated forever.
class PeriodicSchedule {
public:
  PeriodicSchedule() = default;

  /// \throws std::invalid_argument if empty or any mi < 1.
  explicit PeriodicSchedule(std::vector<int> m);

  std::size_t num_apps() const noexcept { return m_.size(); }
  int burst(std::size_t app) const { return m_.at(app); }
  const std::vector<int>& bursts() const noexcept { return m_; }

  /// Total tasks per schedule period.
  std::size_t tasks_per_period() const noexcept;

  /// "(m1, m2, ..., mn)" for logs and tables.
  std::string to_string() const;

  /// Task sequence of one period as app indices.
  std::vector<std::size_t> task_sequence() const;

  bool operator==(const PeriodicSchedule&) const = default;
  /// Lexicographic, for ordered containers.
  bool operator<(const PeriodicSchedule& rhs) const { return m_ < rhs.m_; }

private:
  std::vector<int> m_;
};

/// One segment of an interleaved schedule: `count` consecutive tasks of
/// application `app`.
struct Segment {
  std::size_t app = 0;
  int count = 1;
  bool operator==(const Segment&) const = default;
};

/// An interleaved schedule (paper Sec. VI future work): an arbitrary cyclic
/// sequence of segments, e.g. (m1(1), m2, m1(2), m3). An application may
/// appear in several segments per period.
class InterleavedSchedule {
public:
  InterleavedSchedule() = default;

  /// \throws std::invalid_argument if empty, any count < 1, any app unused
  ///         in [0, num_apps), or two cyclically-adjacent segments share an
  ///         app (they should be merged).
  InterleavedSchedule(std::vector<Segment> segments, std::size_t num_apps);

  /// True iff the constructor would accept (\p segments, \p num_apps).
  /// Candidate generators (the interleaved neighbor moves) pre-check with
  /// this instead of catching the constructor's std::invalid_argument, so
  /// genuine argument bugs elsewhere are never silently swallowed.
  static bool is_valid(const std::vector<Segment>& segments,
                       std::size_t num_apps) noexcept;

  /// Lift a periodic schedule into segment form.
  static InterleavedSchedule from_periodic(const PeriodicSchedule& p);

  std::size_t num_apps() const noexcept { return num_apps_; }
  const std::vector<Segment>& segments() const noexcept { return segments_; }

  /// Task sequence of one period as app indices.
  std::vector<std::size_t> task_sequence() const;

  /// Tasks of app i per period (sum over its segments).
  int tasks_of(std::size_t app) const;

  std::string to_string() const;

  bool operator==(const InterleavedSchedule&) const = default;

private:
  std::vector<Segment> segments_;
  std::size_t num_apps_ = 0;
};

}  // namespace catsched::sched
