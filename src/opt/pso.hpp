#pragma once
/// \file pso.hpp
/// \brief Deterministic particle swarm optimization (paper Sec. III uses
///        PSO for pole placement [14]). Generic box-constrained minimizer;
///        the control design wraps it with a settling-time objective.

#include <cstdint>
#include <functional>
#include <vector>

namespace catsched::opt {

/// PSO knobs. The swarm coefficients are fixed to the canonical constricted
/// swarm (Clerc–Kennedy); see pso.cpp.
struct PsoOptions {
  int particles = 40;
  int iterations = 80;
  std::uint64_t seed = 1;      ///< deterministic runs
  /// Stop early when the global best has not improved by more than 1e-9
  /// for stall_iterations consecutive iterations (0 = off).
  int stall_iterations = 25;
  /// Optional batched objective: fill costs[i] with the objective at
  /// positions[i] under bounds[i] (see Objective for the bound contract;
  /// costs is pre-sized to positions.size()). When set, every swarm
  /// generation is evaluated through this hook instead of calling the
  /// scalar objective particle-by-particle — the controller design uses it
  /// to fan particles across a thread pool. The swarm update itself never
  /// changes: costs feed the exact same serial pbest/gbest reduction, so a
  /// batch evaluator that returns f(positions[i], bounds[i]) (e.g. the same
  /// pure objective run on worker threads) leaves results bit-identical.
  std::function<void(const std::vector<std::vector<double>>& positions,
                     const std::vector<double>& bounds,
                     std::vector<double>& costs)>
      batch_eval;
};

/// Result of one swarm run.
struct PsoResult {
  std::vector<double> x;    ///< best position found
  double cost = 0.0;        ///< objective at x
  int evaluations = 0;      ///< objective evaluations performed
  int iterations_run = 0;
};

/// Objective: R^d -> R, minimized, evaluated under a bound. The caller
/// decides only by `f(x, bound) < bound`, so once the exact value is known
/// not to be below the bound, the objective may stop early and return any
/// value >= bound; below the bound it must return the exact value. An
/// infinite bound asks for the exact value. pso_minimize passes each
/// particle's best cost so far (never below the global best, so the bound
/// also covers the global-best test); pattern_search passes its incumbent.
using Objective =
    std::function<double(const std::vector<double>& x, double bound)>;

/// Minimize \p f over the box [lo, hi]^d. Seed positions (clamped to the
/// box) are injected as the first particles; remaining particles are drawn
/// uniformly. Fully deterministic for a fixed options.seed.
/// \throws std::invalid_argument on empty/mismatched bounds or lo > hi.
PsoResult pso_minimize(const Objective& f, const std::vector<double>& lo,
                       const std::vector<double>& hi, const PsoOptions& opts,
                       const std::vector<std::vector<double>>& seeds = {});

}  // namespace catsched::opt
