#pragma once
/// \file switched.hpp
/// \brief The periodically-switched closed loop of paper Sec. III: one
///        feedback gain K_j and feedforward F_j per task position, exact
///        lifted dynamics, stability (monodromy), steady-state feedforward
///        design, and dense-output simulation with settling-time
///        measurement.

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <optional>
#include <vector>

#include "control/c2d.hpp"
#include "control/lti.hpp"

namespace catsched::control {

/// Per-phase controller: u_j = K_j x + F_j r (paper eq. (13)).
struct PhaseGains {
  std::vector<Matrix> k;  ///< one 1 x l row per phase
  std::vector<double> f;  ///< one scalar per phase

  std::size_t phases() const noexcept { return k.size(); }
};

/// Closed-loop one-period transition matrix ("monodromy") of the augmented
/// state xi = [x; u_prev]. The switched system is stable iff all its
/// eigenvalues lie strictly inside the unit circle. This is the exact
/// counterpart of the paper's lifted matrix Ahol (eq. (16)): the non-zero
/// spectrum coincides.
/// \throws std::invalid_argument if gain count != phase count.
Matrix closed_loop_monodromy(const std::vector<PhaseDynamics>& phases,
                             const std::vector<Matrix>& k);

/// The paper's lifted closed-loop matrix Ahol over one schedule period
/// (eq. (16) generalized to m phases): the one-period map of the stacked
/// state z = [x_0; x_1; ...; x_{m-1}] under the per-phase feedback.
/// Provided for fidelity/tests; stability via closed_loop_monodromy is
/// equivalent and cheaper.
Matrix lifted_closed_loop(const std::vector<PhaseDynamics>& phases,
                          const std::vector<Matrix>& k);

/// Exact periodic feedforward: choose F_0..F_{m-1} so that the closed
/// loop's periodic steady state satisfies C x_j = r at *every* sampling
/// instant (per unit reference; scale-invariant). Returns std::nullopt when
/// the steady-state system is singular (e.g. a pole at +1).
std::optional<std::vector<double>> exact_feedforward(
    const std::vector<PhaseDynamics>& phases, const Matrix& c,
    const std::vector<Matrix>& k);

/// Paper eq. (17): per-interval feedforward
///   F_j = 1 / (C (I - A_j - B_j K_j)^{-1} B_j),  B_j = B1_j + B2_j.
/// Exact for uniform sampling; leaves a small DC ripple under switching
/// (see DESIGN.md substitution table; compared in the ablation bench).
std::optional<std::vector<double>> per_interval_feedforward(
    const std::vector<PhaseDynamics>& phases, const Matrix& c,
    const std::vector<Matrix>& k);

/// Options for closed-loop simulation.
struct SimOptions {
  double r = 1.0;                 ///< reference after the step
  double horizon = 1.0;           ///< simulated time in seconds
  std::size_t start_phase = 0;    ///< interval in which the step occurs
  bool hold_first_interval = true;  ///< paper's worst case: the in-flight
                                    ///< task still targets the old
                                    ///< reference, so the input is held at
                                    ///< u_prev0 for the whole first interval
  double settle_band = 0.02;      ///< settling band as a fraction of |r|
  bool settle_on_samples = true;  ///< paper Sec. II-A measures settling on
                                  ///< the sampled output y[k]; false uses
                                  ///< the dense trajectory (stricter)
  double divergence_bound = 1e9;  ///< |y| beyond this aborts as diverged
  std::optional<double> clamp_u;  ///< optional actuator saturation level
};

/// Dense simulation trace and derived metrics.
struct SimResult {
  std::vector<double> t;  ///< dense time stamps (starting at 0)
  std::vector<double> y;  ///< dense outputs
  std::vector<double> u;  ///< applied input after each actuation
  std::vector<double> ts; ///< sensing instants t_k
  std::vector<double> ys; ///< sampled outputs y[k]
  double settling_time = 0.0;  ///< first time after which |y-r| stays within
                               ///< the band; infinity if never
  bool settled = false;
  double u_max_abs = 0.0;  ///< max |u| over all actuated inputs
  bool diverged = false;
  double tail_error = 0.0;  ///< mean |y-r|/|r| over the last 20% of horizon
  double iae = 0.0;  ///< integral of |y-r|/|r| over the dense trajectory
  bool stopped = false;  ///< summarize() ended the run early on its stop
                         ///< test; the metrics cover only the run so far
};

/// The metrics of a run so far, at a sensing instant (after that instant's
/// sample and input): what a stop test may read. Every field only grows
/// along the run, so each bounds its final value from below.
struct SimProgress {
  double t = 0.0;          ///< current time
  double settle_lb = 0.0;  ///< lower bound on the final settling time
                           ///< (SettlingTracker::lower_bound)
  double iae = 0.0;        ///< IAE so far
  double u_max_abs = 0.0;  ///< max |u| so far, this instant's input included
};

/// Early-stop test for summarize(): return true to end the run.
using StopTest = std::function<bool(const SimProgress&)>;

/// Simulator for one application's switched closed loop. Discretizes the
/// dense-output substeps once (they depend only on plant and timing), so a
/// design search can evaluate thousands of gain candidates cheaply.
class SwitchedSimulator {
public:
  /// \throws std::invalid_argument on inconsistent plant/intervals.
  SwitchedSimulator(const ContinuousLTI& plant,
                    std::vector<sched::Interval> intervals,
                    double dense_dt = 1.0e-4);

  const std::vector<PhaseDynamics>& phases() const noexcept { return phases_; }
  const ContinuousLTI& plant() const noexcept { return plant_; }
  std::size_t num_phases() const noexcept { return phases_.size(); }

  /// Simulate a reference step from the equilibrium (x0, u_prev0) under
  /// per-phase gains. The step occurs at the start of opts.start_phase.
  /// \throws std::invalid_argument on gain dimension mismatch.
  SimResult simulate(const PhaseGains& gains, const Matrix& x0,
                     double u_prev0, const SimOptions& opts) const;

  /// Same run as simulate() without recording the traces: every metric of
  /// the result is bit-identical, the t/y/u/ts/ys vectors stay empty. This
  /// is the per-candidate objective path of the design search. A non-empty
  /// \p stop is asked at every sensing instant; once it returns true the
  /// run ends there with SimResult::stopped set and partial metrics.
  /// simulate() never stops early.
  SimResult summarize(const PhaseGains& gains, const Matrix& x0,
                      double u_prev0, const SimOptions& opts,
                      const StopTest& stop = {}) const;

private:
  struct Segment {
    Matrix e;    // substep state transition
    Matrix pb;   // substep input effect Phi(dt) * B
    std::size_t steps;
    double dt;
  };
  struct PhaseDense {
    Segment before;  // [0, tau): previous input active
    Segment after;   // [tau, h): fresh input active
  };

  ContinuousLTI plant_;
  std::vector<sched::Interval> intervals_;
  std::vector<PhaseDynamics> phases_;
  std::vector<PhaseDense> dense_;

  /// The one step loop behind simulate() and summarize(): a single forward
  /// pass that derives every SimResult metric as it goes, recording the
  /// traces only when kTrace is set.
  template <bool kTrace>
  SimResult run(const PhaseGains& gains, const Matrix& x0, double u_prev0,
                const SimOptions& opts, const StopTest& stop) const;
};

/// Settling time of a sampled trajectory: the earliest time t_s such that
/// |y(t) - r| <= band * |r| for every sample with t >= t_s. Returns
/// infinity (settled=false) when the last sample still violates the band.
struct SettlingInfo {
  double time = 0.0;
  bool settled = false;
};

/// Forward settling-time tracker: feed the samples in time order. The
/// settling time is the time of the sample right after the last band
/// violation (the first sample's time when nothing violates), infinity when
/// the latest sample violates.
class SettlingTracker {
public:
  SettlingTracker(double r, double band)
      : r_(r), tol_(band * std::max(std::abs(r), 1e-12)) {}

  void observe(double t, double y) noexcept {
    if (violated_ || !seen_) time_ = t;
    seen_ = true;
    violated_ = !(std::abs(y - r_) <= tol_);  // a NaN sample violates
  }

  SettlingInfo info() const noexcept {
    if (violated_) return {std::numeric_limits<double>::infinity(), false};
    return {time_, true};
  }

  /// Lower bound on the settling time of any continuation, given the time
  /// \p now of the latest observed sample. A band-abiding latest sample
  /// keeps time_ unless a later violation moves it later; a violating one
  /// leaves the run unsettled or settling at a later sample's time.
  double lower_bound(double now) const noexcept {
    return violated_ ? now : time_;
  }

private:
  double r_;
  double tol_;
  double time_ = 0.0;
  bool seen_ = false;
  bool violated_ = false;
};

SettlingInfo settling_time(const std::vector<double>& t,
                           const std::vector<double>& y, double r,
                           double band);

}  // namespace catsched::control
