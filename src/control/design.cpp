#include "control/design.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "control/pole_place.hpp"
#include "core/parallel.hpp"
#include "opt/pattern_search.hpp"
#include "sched/timing.hpp"
#include "linalg/eig.hpp"

namespace catsched::control {

namespace {

/// Half-width of the PSO gain box per dimension, relative to the magnitude
/// of the box center's entry.
constexpr double kGainBoxFactor = 3.0;

// The cost rule of a simulated candidate, in three terms that both the
// final cost and its running lower bound are written from.

/// A settled run: settling time plus a small integral-absolute-error term.
/// Settling time is piecewise constant in the gains; the IAE term breaks
/// plateau ties toward robust centers.
double settled_cost(double settling_time, double iae) {
  return settling_time + 0.05 * iae;
}

/// Every run that does not settle costs at least this much.
double unsettled_floor(double horizon) { return 2.0 * horizon; }

/// Graded input-saturation penalty, added when |u| exceeds umax.
double saturation_penalty(double horizon, double u_max_abs, double umax) {
  return 50.0 * horizon * (u_max_abs / umax - 1.0);
}

/// The stop test of a bounded evaluation: stop once the cost provably
/// cannot get below the bound, remembering the lower bound reached. A stop
/// needs a finite lower bound: an infinite one (an overflowed input) could
/// still end in a NaN cost, so an infinite bound always runs to the end.
struct BoundStop {
  const DesignObjective& objective;
  double bound;
  double lb = 0.0;

  bool operator()(const SimProgress& p) {
    lb = objective.lower_bound(p);
    return lb >= bound && lb < std::numeric_limits<double>::infinity();
  }
};

}  // namespace

DesignObjective::DesignObjective(const DesignSpec& spec,
                                 const std::vector<sched::Interval>& intervals,
                                 const DesignOptions& opts)
    : spec_(spec),
      sim_(spec.plant, intervals, opts.dense_dt),
      eq_(equilibrium_at(spec.plant, spec.y0)),
      exact_feedforward_(opts.exact_feedforward) {
  sim_opts_.r = spec.r;
  sim_opts_.horizon = opts.horizon_factor * spec.smax;
  sim_opts_.start_phase = sched::longest_interval(intervals);
  sim_opts_.hold_first_interval = true;
  sim_opts_.settle_band = spec.settle_band;
  sim_opts_.settle_on_samples = opts.settle_on_samples;
}

std::vector<Matrix> DesignObjective::gains(
    const std::vector<double>& theta) const {
  const std::size_t m = sim_.num_phases();
  const std::size_t l = spec_.plant.order();
  std::vector<Matrix> k(m, Matrix(1, l));
  for (std::size_t j = 0; j < m; ++j) {
    for (std::size_t q = 0; q < l; ++q) k[j](0, q) = theta[j * l + q];
  }
  return k;
}

std::optional<std::vector<double>> DesignObjective::feedforward(
    const std::vector<Matrix>& k) const {
  return exact_feedforward_
             ? exact_feedforward(sim_.phases(), spec_.plant.c, k)
             : per_interval_feedforward(sim_.phases(), spec_.plant.c, k);
}

double DesignObjective::run_cost(const SimResult& sr) const {
  const double horizon = sim_opts_.horizon;
  double cost;
  if (sr.diverged) {
    cost = 5.0e2 * horizon;
  } else if (!sr.settled) {
    cost = unsettled_floor(horizon) + std::min(sr.tail_error, 1.0e3) * horizon;
  } else {
    cost = settled_cost(sr.settling_time, sr.iae);
  }
  if (sr.u_max_abs > spec_.umax) {
    cost += saturation_penalty(horizon, sr.u_max_abs, spec_.umax);
  }
  return cost;
}

// Proof that lower_bound never exceeds the final run_cost:
// - every input only grows along the run: t, the settling lower bound
//   (SettlingTracker::lower_bound), the IAE (a sum of terms >= 0) and
//   max |u|; a final settling time, if any, is >= the settling bound;
// - IEEE rounding is monotone, so settled_cost, min, saturation_penalty
//   and + are non-decreasing in each argument when evaluated in floating
//   point exactly as run_cost evaluates them;
// - hence min(settled_cost(settle_lb, iae), floor) is <= the cost of a run
//   that settles, and <= the floor, which an unsettled run's cost (floor
//   plus a tail term >= 0) and a diverged run's 500 * horizon both reach;
// - a penalty counted so far is <= the final penalty, and with no penalty
//   so far the final one is > 0 or absent;
// - a NaN output counts as a band violation (SettlingTracker), so the
//   settling bound stays a time; it makes the IAE NaN, a NaN input makes
//   the bound NaN, and NaN >= bound is false, so a NaN never triggers a
//   stop.
double DesignObjective::lower_bound(const SimProgress& p) const {
  const double horizon = sim_opts_.horizon;
  double lb =
      std::min(settled_cost(p.settle_lb, p.iae), unsettled_floor(horizon));
  if (p.u_max_abs > spec_.umax) {
    lb += saturation_penalty(horizon, p.u_max_abs, spec_.umax);
  }
  return lb;
}

double DesignObjective::operator()(const std::vector<double>& theta,
                                   double bound) const {
  const std::vector<Matrix> k = gains(theta);
  const double rho =
      linalg::spectral_radius(closed_loop_monodromy(sim_.phases(), k));
  const double horizon = sim_opts_.horizon;
  if (rho >= 1.0 - kStabilityMargin) {
    return 1.0e3 * horizon * (1.0 + rho);  // graded push toward stability
  }
  const auto f = feedforward(k);
  if (!f) {
    return 1.0e3 * horizon * (1.0 + rho);
  }
  BoundStop stop{*this, bound};
  const SimResult sr = sim_.summarize(PhaseGains{k, *f}, eq_.x, eq_.u,
                                      sim_opts_, std::ref(stop));
  return sr.stopped ? stop.lb : run_cost(sr);
}

namespace {

/// The metrics of the design with gains \p k. A numerically degenerate closed
/// loop (QR non-convergence in the stability test, a runtime_error) is
/// reported infeasible with an infinite spectral radius, as the design
/// search penalizes it; logic_errors propagate.
DesignResult report_for(const DesignObjective& objective,
                        const std::vector<Matrix>& k, int pso_evaluations) {
  DesignResult res;
  res.pso_evaluations = pso_evaluations;
  try {
    res.spectral_radius = linalg::spectral_radius(
        closed_loop_monodromy(objective.simulator().phases(), k));
  } catch (const std::runtime_error&) {
    res.spectral_radius = std::numeric_limits<double>::infinity();
  }
  const auto f = res.spectral_radius < 1.0 - kStabilityMargin
                     ? objective.feedforward(k)
                     : std::nullopt;
  if (!f) {
    res.settled = false;
    res.feasible = false;
    res.settling_time = std::numeric_limits<double>::infinity();
    res.gains = PhaseGains{k, std::vector<double>(k.size(), 0.0)};
    return res;
  }
  res.gains = PhaseGains{k, *f};
  const Equilibrium& eq = objective.equilibrium();
  const SimResult sr = objective.simulator().summarize(
      res.gains, eq.x, eq.u, objective.sim_options());
  const DesignSpec& spec = objective.spec();
  res.settling_time =
      sr.settled ? sr.settling_time : std::numeric_limits<double>::infinity();
  res.settled = sr.settled;
  res.u_max_abs = sr.u_max_abs;
  res.feasible = sr.settled && !sr.diverged && sr.settling_time <= spec.smax &&
                 sr.u_max_abs <= spec.umax * (1.0 + 1e-9);
  return res;
}

}  // namespace

DesignResult design_controller(const DesignSpec& spec,
                               const std::vector<sched::Interval>& intervals,
                               const DesignOptions& opts,
                               core::ThreadPool* pool) {
  spec.plant.validate();
  if (spec.smax <= 0.0 || spec.umax <= 0.0) {
    throw std::invalid_argument("design_controller: smax/umax must be > 0");
  }
  const std::size_t l = spec.plant.order();
  const std::size_t m = intervals.size();
  if (m == 0) {
    throw std::invalid_argument("design_controller: no intervals");
  }

  const DesignObjective objective(spec, intervals, opts);
  const SwitchedSimulator& sim = objective.simulator();

  // Stage A (paper's PSO-over-poles spirit): scan a grid of closed-loop
  // pole patterns on the average-rate surrogate, recover gains with
  // Ackermann, and rank them by the true switched-system cost.
  double h_bar = 0.0;
  double tau_bar = 0.0;
  for (const auto& iv : intervals) {
    h_bar += iv.h;
    tau_bar += iv.tau;
  }
  h_bar /= static_cast<double>(m);
  tau_bar = std::min(tau_bar / static_cast<double>(m), h_bar);
  const PhaseDynamics avg = discretize_interval(spec.plant, h_bar, tau_bar);

  // Candidate generation is serial and deterministic; the expensive part —
  // the cost, a full switched simulation per candidate (exact: the grid
  // is ranked by value, so no bound) — is batched below into
  // index-addressed slots (parallel when a pool is given) and ranked in
  // generation order, identical to evaluating inline.
  std::vector<std::vector<double>> grid;
  for (double radius : opts.seed_pole_radii) {
    for (double angle : opts.seed_pole_angles) {
      std::vector<std::complex<double>> poles;
      if (l == 1) {
        poles.emplace_back(radius, 0.0);
      } else {
        poles.emplace_back(radius * std::cos(angle), radius * std::sin(angle));
        poles.emplace_back(radius * std::cos(angle),
                           -radius * std::sin(angle));
        for (std::size_t q = 2; q < l; ++q) {
          poles.emplace_back(radius * std::pow(0.7, q - 1), 0.0);
        }
      }
      // Candidate 1: the average-rate Ackermann gain replicated per phase.
      try {
        const Matrix k0 = place_poles(avg.ad, avg.btot, poles);
        std::vector<double> seed(m * l);
        for (std::size_t j = 0; j < m; ++j) {
          for (std::size_t q = 0; q < l; ++q) seed[j * l + q] = k0(0, q);
        }
        grid.push_back(std::move(seed));
      } catch (const std::exception&) {
        // uncontrollable surrogate at this rate: skip this candidate
      }
      // Candidate 2: per-phase Ackermann gains -- each phase places the
      // same pole pattern against its own (h, tau), which is where the
      // holistic design's advantage over replication comes from.
      if (m > 1) {
        std::vector<double> seed(m * l);
        bool ok = true;
        for (std::size_t j = 0; j < m && ok; ++j) {
          try {
            const Matrix kj = place_poles(sim.phases()[j].ad,
                                          sim.phases()[j].btot, poles);
            for (std::size_t q = 0; q < l; ++q) seed[j * l + q] = kj(0, q);
          } catch (const std::exception&) {
            ok = false;
          }
        }
        if (ok) grid.push_back(std::move(seed));
      }
      // Candidate 3: equalized continuous-time rate -- phase j places the
      // pattern at radius^(h_j / h_bar), so every interval contracts at the
      // same continuous rate despite the non-uniform sampling.
      if (m > 1 && radius > 0.0) {
        std::vector<double> seed(m * l);
        bool ok = true;
        for (std::size_t j = 0; j < m && ok; ++j) {
          const double rj = std::pow(radius, sim.phases()[j].h / h_bar);
          std::vector<std::complex<double>> pj;
          if (l == 1) {
            pj.emplace_back(rj, 0.0);
          } else {
            const double aj = angle * sim.phases()[j].h / h_bar;
            pj.emplace_back(rj * std::cos(aj), rj * std::sin(aj));
            pj.emplace_back(rj * std::cos(aj), -rj * std::sin(aj));
            for (std::size_t q = 2; q < l; ++q) {
              pj.emplace_back(rj * std::pow(0.7, q - 1), 0.0);
            }
          }
          try {
            const Matrix kj = place_poles(sim.phases()[j].ad,
                                          sim.phases()[j].btot, pj);
            for (std::size_t q = 0; q < l; ++q) seed[j * l + q] = kj(0, q);
          } catch (const std::exception&) {
            ok = false;
          }
        }
        if (ok) grid.push_back(std::move(seed));
      }
    }
  }
  // Batch-evaluate the grid: index-addressed cost slots, serial ranking.
  // A candidate whose evaluation fails numerically (QR non-convergence on
  // a degenerate closed loop — a runtime_error) is dropped, like an
  // uncontrollable seed above: one bad grid point must not abort the whole
  // design. logic_errors (dimension mismatches) still propagate — those
  // are bugs and must surface, per the Matrix contract.
  std::vector<double> grid_cost(grid.size());
  std::vector<char> grid_failed(grid.size(), 0);
  core::parallel_for(pool, grid.size(), [&](std::size_t i) {
    try {
      grid_cost[i] =
          objective(grid[i], std::numeric_limits<double>::infinity());
    } catch (const std::runtime_error&) {
      grid_failed[i] = 1;
    }
  });
  int grid_evals = 0;
  std::vector<std::pair<double, std::vector<double>>> ranked;
  ranked.reserve(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (grid_failed[i]) continue;
    ranked.emplace_back(grid_cost[i], std::move(grid[i]));
    ++grid_evals;
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  // Stage B: PSO over the gain entries in a box around the best grid
  // candidate (falling back to a unit box if the grid produced nothing).
  std::vector<std::vector<double>> seeds;
  for (std::size_t i = 0; i < ranked.size() && i < 6; ++i) {
    seeds.push_back(ranked[i].second);
  }
  std::vector<double> center(m * l, 0.0);
  double scale = 1.0;
  if (!seeds.empty()) {
    center = seeds.front();
    scale = 0.0;
    for (double v : center) scale = std::max(scale, std::abs(v));
    if (scale <= 0.0) scale = 1.0;
  }
  std::vector<double> lo(m * l);
  std::vector<double> hi(m * l);
  for (std::size_t d = 0; d < m * l; ++d) {
    const double half = kGainBoxFactor *
                        std::max(std::abs(center[d]), 0.1 * scale);
    lo[d] = center[d] - half;
    hi[d] = center[d] + half;
  }

  const auto penalized = [&](const std::vector<double>& theta, double bound) {
    // Same policy as the seed grid: a numerically degenerate candidate
    // (QR non-convergence in the stability barrier) is penalized out of
    // contention, never fatal, while logic_errors propagate. The PSO
    // batch hook below routes through this exact callable so serial and
    // pooled runs stay bit-identical.
    try {
      return objective(theta, bound);
    } catch (const std::runtime_error&) {
      return std::numeric_limits<double>::infinity();
    }
  };
  // Scale the swarm with problem dimension and restart with fresh draws;
  // the evaluation cost is tiny next to the paper's MATLAB runtimes.
  opt::PsoOptions pso = opts.pso;
  const int dims = static_cast<int>(m * l);
  if (opts.scale_budget_with_dims) {
    pso.particles = std::max(pso.particles, 12 * dims + 24);
    pso.iterations = std::max(pso.iterations, 20 * dims + 80);
    pso.stall_iterations = std::max(pso.stall_iterations, 40);
  }
  if (pool != nullptr) {
    // Fan each swarm generation across the pool; the swarm's serial
    // reduction keeps results bit-identical to the particle-by-particle
    // loop (the objective is pure, including its exception policy).
    pso.batch_eval = [&penalized,
                      pool](const std::vector<std::vector<double>>& xs,
                            const std::vector<double>& bounds,
                            std::vector<double>& costs) {
      core::parallel_for(pool, xs.size(), [&](std::size_t i) {
        costs[i] = penalized(xs[i], bounds[i]);
      });
    };
  }

  std::vector<double> best;
  double best_cost = std::numeric_limits<double>::infinity();
  int evals = grid_evals;
  if (!seeds.empty()) {
    best = seeds.front();
    best_cost = ranked.front().first;
  }
  for (int restart = 0; restart < std::max(1, opts.pso_restarts); ++restart) {
    pso.seed = opts.pso.seed + 7919 * static_cast<std::uint64_t>(restart);
    const opt::PsoResult pr = opt::pso_minimize(penalized, lo, hi, pso,
                                                restart == 0 ? seeds
                                                             : std::vector<std::vector<double>>{best});
    evals += pr.evaluations;
    if (pr.cost < best_cost) {
      best_cost = pr.cost;
      best = pr.x;
    }
  }
  if (best.empty()) best.assign(m * l, 0.0);
  // Deterministic polish: compass search removes the swarm's run-to-run
  // variance so schedule comparisons see design quality, not PSO noise.
  opt::PatternSearchOptions ps;
  ps.initial_step = 0.2;
  ps.max_evaluations = 3000;
  const opt::PatternSearchResult pol = opt::pattern_search(penalized, best, ps);
  evals += pol.evaluations;
  if (pol.cost < best_cost) best = pol.x;
  return report_for(objective, objective.gains(best), evals);
}

DesignResult evaluate_gains(const DesignSpec& spec,
                            const std::vector<sched::Interval>& intervals,
                            const PhaseGains& gains,
                            const DesignOptions& opts) {
  spec.plant.validate();
  if (gains.k.size() != intervals.size()) {
    throw std::invalid_argument("evaluate_gains: gain/interval mismatch");
  }
  return report_for(DesignObjective(spec, intervals, opts), gains.k, 0);
}

}  // namespace catsched::control
