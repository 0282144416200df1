#include "core/jitter.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <stdexcept>
#include <vector>

#include "control/lti.hpp"
#include "control/switched.hpp"

namespace catsched::core {

namespace {

/// One task instance slot in the repeating sequence: which app, and its
/// WCET for that slot (cold for burst leaders, warm for followers).
struct Slot {
  std::size_t app = 0;
  std::size_t burst_pos = 0;
  double wcet = 0.0;
};

std::vector<Slot> build_slots(const std::vector<sched::AppWcet>& wcets,
                              const sched::PeriodicSchedule& schedule) {
  std::vector<Slot> slots;
  const bool single_app = schedule.num_apps() == 1;
  for (std::size_t app = 0; app < schedule.num_apps(); ++app) {
    for (int j = 0; j < schedule.burst(app); ++j) {
      Slot s;
      s.app = app;
      s.burst_pos = static_cast<std::size_t>(j);
      // Burst leaders run cold (another app evicted the cache), followers
      // warm; with a single application every steady-state task is warm.
      const bool warm = single_app || j > 0;
      s.wcet = warm ? wcets[app].warm_seconds : wcets[app].cold_seconds;
      slots.push_back(s);
    }
  }
  return slots;
}

/// Simulate the studied app's sampled closed loop over a concrete duration
/// sequence; returns its settling time (relative to its first sample).
control::SettlingInfo replay(const control::DesignSpec& spec,
                             const control::PhaseGains& gains,
                             const std::vector<Slot>& slots,
                             const std::vector<double>& durations,
                             std::size_t app, std::size_t periods,
                             double band) {
  // Sampling instants and delays of the studied app along the timeline.
  std::vector<double> starts;
  std::vector<double> taus;
  double t = 0.0;
  for (std::size_t p = 0; p < periods; ++p) {
    for (std::size_t s = 0; s < slots.size(); ++s) {
      const double dur = durations[p * slots.size() + s];
      if (slots[s].app == app) {
        starts.push_back(t);
        taus.push_back(dur);
      }
      t += dur;
    }
  }
  if (starts.size() < 2) {
    throw std::invalid_argument("jitter replay: app never runs twice");
  }

  const control::Equilibrium eq =
      control::equilibrium_at(spec.plant, spec.y0);
  linalg::Matrix x = eq.x;
  double u_prev = eq.u;

  control::SettlingTracker settle(spec.r, band);
  const std::size_t m = gains.phases();
  for (std::size_t k = 0; k + 1 < starts.size(); ++k) {
    const double h = starts[k + 1] - starts[k];
    const double tau = std::min(taus[k], h);
    settle.observe(starts[k], (spec.plant.c * x)(0, 0));

    const double u =
        (gains.k[k % m] * x)(0, 0) + gains.f[k % m] * spec.r;
    const auto ph = control::discretize_interval(spec.plant, h, tau);
    x = ph.ad * x + ph.b1 * u_prev + ph.b2 * u;
    u_prev = u;
  }
  return settle.info();
}

}  // namespace

JitterReport jitter_study(const std::vector<sched::AppWcet>& wcets,
                          const sched::PeriodicSchedule& schedule,
                          std::size_t app, const control::DesignSpec& spec,
                          const control::PhaseGains& gains,
                          const JitterOptions& opts) {
  if (wcets.size() != schedule.num_apps() || app >= schedule.num_apps()) {
    throw std::invalid_argument("jitter_study: size mismatch");
  }
  if (opts.bcet_fraction <= 0.0 || opts.bcet_fraction > 1.0) {
    throw std::invalid_argument(
        "jitter_study: bcet_fraction must lie in (0, 1]");
  }
  if (gains.phases() != static_cast<std::size_t>(schedule.burst(app))) {
    throw std::invalid_argument(
        "jitter_study: gain count must equal the app's burst length");
  }

  const auto slots = build_slots(wcets, schedule);

  // Nominal: every instance takes exactly its WCET.
  std::vector<double> nominal(slots.size() * opts.periods);
  for (std::size_t p = 0; p < opts.periods; ++p) {
    for (std::size_t s = 0; s < slots.size(); ++s) {
      nominal[p * slots.size() + s] = slots[s].wcet;
    }
  }
  const auto nominal_settle =
      replay(spec, gains, slots, nominal, app, opts.periods, opts.band);

  JitterReport report;
  report.nominal_settling = nominal_settle.time;
  report.trials = opts.trials;
  report.best_settling = std::numeric_limits<double>::infinity();

  std::mt19937 rng(opts.seed);
  std::uniform_real_distribution<double> frac(opts.bcet_fraction, 1.0);
  double sum = 0.0;
  double shift_sum = 0.0;
  for (int trial = 0; trial < opts.trials; ++trial) {
    std::vector<double> durations(slots.size() * opts.periods);
    for (std::size_t p = 0; p < opts.periods; ++p) {
      for (std::size_t s = 0; s < slots.size(); ++s) {
        durations[p * slots.size() + s] = frac(rng) * slots[s].wcet;
      }
    }
    const auto settle =
        replay(spec, gains, slots, durations, app, opts.periods, opts.band);
    if (settle.settled) {
      ++report.settled;
      sum += settle.time;
      shift_sum += std::abs(settle.time - report.nominal_settling);
      report.worst_settling = std::max(report.worst_settling, settle.time);
      report.best_settling = std::min(report.best_settling, settle.time);
    }
  }
  if (report.settled > 0) {
    report.mean_settling = sum / report.settled;
    report.mean_abs_shift = shift_sum / report.settled;
  }
  return report;
}

}  // namespace catsched::core
