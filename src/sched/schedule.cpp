#include "sched/schedule.hpp"

#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace catsched::sched {

PeriodicSchedule::PeriodicSchedule(std::vector<int> m) : m_(std::move(m)) {
  if (m_.empty()) {
    throw std::invalid_argument("PeriodicSchedule: no applications");
  }
  for (int v : m_) {
    if (v < 1) {
      throw std::invalid_argument("PeriodicSchedule: every mi must be >= 1");
    }
  }
}

std::size_t PeriodicSchedule::tasks_per_period() const noexcept {
  std::size_t n = 0;
  for (int v : m_) n += static_cast<std::size_t>(v);
  return n;
}

std::string PeriodicSchedule::to_string() const {
  std::ostringstream os;
  os << "(";
  for (std::size_t i = 0; i < m_.size(); ++i) {
    os << (i ? ", " : "") << m_[i];
  }
  os << ")";
  return os.str();
}

std::vector<std::size_t> PeriodicSchedule::task_sequence() const {
  std::vector<std::size_t> seq;
  seq.reserve(tasks_per_period());
  for (std::size_t i = 0; i < m_.size(); ++i) {
    for (int j = 0; j < m_[i]; ++j) seq.push_back(i);
  }
  return seq;
}

namespace {

/// One shared rule set for the constructor and is_valid: returns the
/// violated invariant's message, or nullptr when the pair is acceptable.
const char* validate_error(const std::vector<Segment>& segments,
                           std::size_t num_apps) noexcept {
  if (segments.empty() || num_apps == 0) {
    return "InterleavedSchedule: empty schedule";
  }
  for (const Segment& s : segments) {
    if (s.count < 1) {
      return "InterleavedSchedule: segment count < 1";
    }
    if (s.app >= num_apps) {
      return "InterleavedSchedule: app out of range";
    }
  }
  for (std::size_t i = 0; i < segments.size(); ++i) {
    const std::size_t next = (i + 1) % segments.size();
    if (segments.size() > 1 && segments[i].app == segments[next].app) {
      return "InterleavedSchedule: adjacent segments of the same app must be "
             "merged";
    }
  }
  std::vector<bool> used(num_apps, false);
  for (const Segment& s : segments) used[s.app] = true;
  for (std::size_t a = 0; a < num_apps; ++a) {
    if (!used[a]) {
      return "InterleavedSchedule: every app must appear at least once";
    }
  }
  return nullptr;
}

}  // namespace

InterleavedSchedule::InterleavedSchedule(std::vector<Segment> segments,
                                         std::size_t num_apps)
    : segments_(std::move(segments)), num_apps_(num_apps) {
  if (const char* error = validate_error(segments_, num_apps_)) {
    throw std::invalid_argument(error);
  }
}

bool InterleavedSchedule::is_valid(const std::vector<Segment>& segments,
                                   std::size_t num_apps) noexcept {
  return validate_error(segments, num_apps) == nullptr;
}

InterleavedSchedule InterleavedSchedule::from_periodic(
    const PeriodicSchedule& p) {
  std::vector<Segment> segs;
  segs.reserve(p.num_apps());
  for (std::size_t i = 0; i < p.num_apps(); ++i) {
    segs.push_back(Segment{i, p.burst(i)});
  }
  return InterleavedSchedule(std::move(segs), p.num_apps());
}

std::vector<std::size_t> InterleavedSchedule::task_sequence() const {
  std::vector<std::size_t> seq;
  for (const Segment& s : segments_) {
    for (int j = 0; j < s.count; ++j) seq.push_back(s.app);
  }
  return seq;
}

int InterleavedSchedule::tasks_of(std::size_t app) const {
  int n = 0;
  for (const Segment& s : segments_) {
    if (s.app == app) n += s.count;
  }
  return n;
}

std::string InterleavedSchedule::to_string() const {
  std::ostringstream os;
  os << "(";
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    os << (i ? ", " : "") << "C" << segments_[i].app + 1 << "x"
       << segments_[i].count;
  }
  os << ")";
  return os.str();
}

}  // namespace catsched::sched
