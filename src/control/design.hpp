#pragma once
/// \file design.hpp
/// \brief Holistic controller design for a given schedule (paper Sec. III):
///        all per-phase gains are designed together against the full
///        non-uniform timing pattern, maximizing control performance
///        (minimizing worst-case settling time) subject to stability and
///        input saturation.
///
/// The paper searches pole locations with PSO and recovers gains with an
/// extended Ackermann formula (details omitted there). Placing the lifted
/// matrix's poles under the block-diagonal gain structure is a structured
/// inverse eigenvalue problem, so this implementation runs the PSO over the
/// gain entries directly -- an equivalent parameterization with the same
/// objective and constraints (see DESIGN.md substitution table). Classic
/// Ackermann solutions on the average-rate system seed the swarm.

#include "control/switched.hpp"
#include "opt/pso.hpp"

namespace catsched::core {
class ThreadPool;  // core/parallel.hpp; control only holds a pointer
}

namespace catsched::control {

/// Control-side requirements of one application (paper Sec. II-A).
struct DesignSpec {
  ContinuousLTI plant;
  double umax = 1.0;        ///< input saturation bound |u| <= umax
  double r = 1.0;           ///< reference level after the step
  double y0 = 0.0;          ///< pre-step equilibrium output
  double smax = 1.0;        ///< settling deadline [s] (also normalization s0)
  double settle_band = 0.02;  ///< +-2% settling band (paper Sec. II-A)
};

/// A closed loop counts as stable when its monodromy's spectral radius is
/// below 1 - kStabilityMargin.
inline constexpr double kStabilityMargin = 1e-9;

/// Knobs of the design search.
struct DesignOptions {
  opt::PsoOptions pso{};
  double dense_dt = 1.0e-4;      ///< dense simulation resolution
  double horizon_factor = 1.6;   ///< sim horizon = factor * smax
  bool exact_feedforward = true; ///< false = paper eq. (17) per-interval FF
  bool settle_on_samples = true; ///< measure settling on y[k] (Sec. II-A)
  /// Pole-pattern grid for the Ackermann seeding stage (average-rate
  /// system): every (radius, angle) pair becomes a candidate pole set.
  std::vector<double> seed_pole_radii = {0.05, 0.15, 0.3, 0.45, 0.6,
                                         0.7,  0.8,  0.88, 0.94};
  std::vector<double> seed_pole_angles = {0.0, 0.2, 0.45, 0.8};
  int pso_restarts = 2;          ///< independent swarm restarts (best kept)
  /// Grow the swarm with the number of gain dimensions (m*l); disable for
  /// fast unit tests that provide an explicit small budget.
  bool scale_budget_with_dims = true;
};

/// The objective design_controller minimizes over one schedule's timing:
/// stability barrier, then the worst-case step response (reference step
/// at the start of the longest interval, the paper's conservative phase)
/// scored by settling time with a graded input-saturation penalty. Lower
/// is better. A point theta is the gains flattened phase-major
/// (theta[j * l + q] = K_j(0, q)).
class DesignObjective {
public:
  /// \throws std::invalid_argument on bad plant/intervals.
  DesignObjective(const DesignSpec& spec,
                  const std::vector<sched::Interval>& intervals,
                  const DesignOptions& opts);

  /// Cost of theta under \p bound, per the opt::Objective contract: the
  /// exact cost when it is below the bound; otherwise the switched
  /// simulation may stop early and return its lower bound, which is then
  /// >= bound. An infinite bound always gets the exact cost.
  /// \throws std::runtime_error when the stability test's eigenvalue
  ///         iteration does not converge (a degenerate closed loop).
  double operator()(const std::vector<double>& theta, double bound) const;

  /// Cost of a finished simulation of the worst-case step response.
  double run_cost(const SimResult& sr) const;
  /// Lower bound on run_cost of every continuation of a run, from its
  /// metrics so far (the early-stop test of operator()).
  double lower_bound(const SimProgress& p) const;

  /// Per-phase gains of theta.
  std::vector<Matrix> gains(const std::vector<double>& theta) const;
  /// Feedforward for gains k (exact or per-interval, per the options);
  /// std::nullopt when singular.
  std::optional<std::vector<double>> feedforward(
      const std::vector<Matrix>& k) const;

  const DesignSpec& spec() const noexcept { return spec_; }
  const SwitchedSimulator& simulator() const noexcept { return sim_; }
  const Equilibrium& equilibrium() const noexcept { return eq_; }
  const SimOptions& sim_options() const noexcept { return sim_opts_; }

private:
  DesignSpec spec_;
  SwitchedSimulator sim_;
  Equilibrium eq_;
  SimOptions sim_opts_;
  bool exact_feedforward_;
};

/// Outcome of one holistic design.
struct DesignResult {
  PhaseGains gains;
  double settling_time = 0.0;  ///< worst-case settling (step at idle gap)
  bool settled = false;
  double u_max_abs = 0.0;
  double spectral_radius = 0.0;  ///< of the closed-loop monodromy
  bool feasible = false;  ///< settled within smax, |u| within umax, stable
  int pso_evaluations = 0;
};

/// Design per-phase gains for the application over the given schedule
/// timing intervals and report the worst-case settling time (reference step
/// at the start of the longest interval, the paper's conservative phase).
///
/// With a non-null \p pool, the two candidate-evaluation batches inside the
/// search — the Ackermann seed grid and every PSO generation — are fanned
/// across the pool's workers into index-addressed cost slots and reduced
/// serially, so the result is bit-identical to the serial run at every
/// thread count (the determinism contract of core/parallel.hpp, enforced
/// by tests/test_design_batch.cpp).
/// \throws std::invalid_argument on bad spec/intervals.
DesignResult design_controller(const DesignSpec& spec,
                               const std::vector<sched::Interval>& intervals,
                               const DesignOptions& opts = {},
                               core::ThreadPool* pool = nullptr);

/// Evaluate a fixed set of gains against a spec/timing (used by ablation
/// benches, the robustness study and tests): same metrics as
/// design_controller, no search. Gains whose closed loop defeats the
/// eigenvalue iteration are reported infeasible with an infinite spectral
/// radius, as the design search penalizes them.
/// \throws std::invalid_argument on bad plant/intervals or gain shapes.
DesignResult evaluate_gains(const DesignSpec& spec,
                            const std::vector<sched::Interval>& intervals,
                            const PhaseGains& gains,
                            const DesignOptions& opts = {});

}  // namespace catsched::control
