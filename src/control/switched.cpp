#include "control/switched.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "linalg/expm.hpp"
#include "linalg/lu.hpp"

namespace catsched::control {

namespace {

void check_gain_dims(const std::vector<PhaseDynamics>& phases,
                     const std::vector<Matrix>& k) {
  if (phases.empty()) {
    throw std::invalid_argument("switched: no phases");
  }
  if (k.size() != phases.size()) {
    throw std::invalid_argument("switched: gain count != phase count");
  }
  const std::size_t l = phases.front().ad.rows();
  for (const Matrix& kj : k) {
    if (kj.rows() != 1 || kj.cols() != l) {
      throw std::invalid_argument("switched: each K_j must be 1 x l");
    }
  }
}

}  // namespace

Matrix closed_loop_monodromy(const std::vector<PhaseDynamics>& phases,
                             const std::vector<Matrix>& k) {
  check_gain_dims(phases, k);
  const std::size_t l = phases.front().ad.rows();
  // Augmented state xi = [x; u_prev]:
  //   x+      = (A_j + B2_j K_j) x + B1_j u_prev
  //   u_prev+ = K_j x
  Matrix phi = Matrix::identity(l + 1);
  // Workspaces hoisted out of the phase loop: only the blocks below are
  // rewritten each phase (entry (l,l) stays 0 throughout), so one zeroed
  // matrix serves all phases without reallocation.
  Matrix m(l + 1, l + 1);
  Matrix tmp;
  for (std::size_t j = 0; j < phases.size(); ++j) {
    m.set_block(0, 0, phases[j].ad + phases[j].b2 * k[j]);
    m.set_block(0, l, phases[j].b1);
    m.set_block(l, 0, k[j]);
    multiply_into(tmp, m, phi);
    std::swap(phi, tmp);
  }
  return phi;
}

Matrix lifted_closed_loop(const std::vector<PhaseDynamics>& phases,
                          const std::vector<Matrix>& k) {
  check_gain_dims(phases, k);
  const std::size_t m = phases.size();
  if (m < 2) {
    throw std::invalid_argument(
        "lifted_closed_loop: needs >= 2 phases (use closed_loop_monodromy "
        "for single-phase schedules, whose delay coupling exceeds one "
        "period)");
  }
  const std::size_t l = phases.front().ad.rows();
  auto selector = [&](std::size_t j) {
    Matrix s(l, m * l);
    s.set_block(0, j * l, Matrix::identity(l));
    return s;
  };
  // Propagate coefficient matrices over z_k = [x_0^k; ...; x_{m-1}^k].
  // The first new-period state is produced by phase m-1 acting on x_{m-1}^k
  // with held input u_{m-2}^k = K_{m-2} x_{m-2}^k.
  Matrix cur = selector(m - 1);
  Matrix u_prev = k[m - 2] * selector(m - 2);
  Matrix ahol(m * l, m * l);
  for (std::size_t step = 0; step < m; ++step) {
    const std::size_t j = (m - 1 + step) % m;  // phase applied at this step
    Matrix next = (phases[j].ad + phases[j].b2 * k[j]) * cur +
                  phases[j].b1 * u_prev;
    u_prev = k[j] * cur;
    cur = next;
    ahol.set_block(step * l, 0, cur);  // x_step^{k+1}
  }
  return ahol;
}

std::optional<std::vector<double>> exact_feedforward(
    const std::vector<PhaseDynamics>& phases, const Matrix& c,
    const std::vector<Matrix>& k) {
  check_gain_dims(phases, k);
  const std::size_t m = phases.size();
  const std::size_t l = phases.front().ad.rows();
  if (c.rows() != 1 || c.cols() != l) {
    throw std::invalid_argument("exact_feedforward: C must be 1 x l");
  }
  // Unknowns: [x_0 .. x_{m-1}, F_0 .. F_{m-1}] for unit reference.
  const std::size_t n = m * l + m;
  Matrix sys(n, n);
  Matrix rhs(n, 1);
  auto xcol = [&](std::size_t j) { return j * l; };
  auto fcol = [&](std::size_t j) { return m * l + j; };
  // Dynamics rows: x_{j+1} = (A_j + B2_j K_j) x_j + B1_j K_{j-1} x_{j-1}
  //                + B2_j F_j + B1_j F_{j-1}   (indices cyclic).
  for (std::size_t j = 0; j < m; ++j) {
    const std::size_t jn = (j + 1) % m;
    const std::size_t jp = (j + m - 1) % m;
    const std::size_t row = j * l;
    // x_{j+1} coefficient: identity.
    for (std::size_t i = 0; i < l; ++i) sys(row + i, xcol(jn) + i) += 1.0;
    const Matrix axx = phases[j].ad + phases[j].b2 * k[j];
    const Matrix axp = phases[j].b1 * k[jp];
    for (std::size_t i = 0; i < l; ++i) {
      for (std::size_t q = 0; q < l; ++q) {
        sys(row + i, xcol(j) + q) -= axx(i, q);
        sys(row + i, xcol(jp) + q) -= axp(i, q);
      }
      sys(row + i, fcol(j)) -= phases[j].b2(i, 0);
      sys(row + i, fcol(jp)) -= phases[j].b1(i, 0);
    }
  }
  // Output rows: C x_j = 1.
  for (std::size_t j = 0; j < m; ++j) {
    const std::size_t row = m * l + j;
    for (std::size_t q = 0; q < l; ++q) sys(row, xcol(j) + q) = c(0, q);
    rhs(row, 0) = 1.0;
  }
  linalg::LU lu(sys);
  if (lu.singular()) return std::nullopt;
  const Matrix sol = lu.solve(rhs);
  std::vector<double> f(m);
  for (std::size_t j = 0; j < m; ++j) f[j] = sol(fcol(j), 0);
  return f;
}

std::optional<std::vector<double>> per_interval_feedforward(
    const std::vector<PhaseDynamics>& phases, const Matrix& c,
    const std::vector<Matrix>& k) {
  check_gain_dims(phases, k);
  const std::size_t l = phases.front().ad.rows();
  std::vector<double> f;
  f.reserve(phases.size());
  for (std::size_t j = 0; j < phases.size(); ++j) {
    Matrix m = Matrix::identity(l) - phases[j].ad - phases[j].btot * k[j];
    linalg::LU lu(m);
    if (lu.singular()) return std::nullopt;
    const Matrix dc = c * lu.solve(phases[j].btot);
    if (std::abs(dc(0, 0)) < 1e-14) return std::nullopt;
    f.push_back(1.0 / dc(0, 0));
  }
  return f;
}

SwitchedSimulator::SwitchedSimulator(const ContinuousLTI& plant,
                                     std::vector<sched::Interval> intervals,
                                     double dense_dt)
    : plant_(plant), intervals_(std::move(intervals)) {
  plant_.validate();
  if (intervals_.empty()) {
    throw std::invalid_argument("SwitchedSimulator: no intervals");
  }
  if (dense_dt <= 0.0) {
    throw std::invalid_argument("SwitchedSimulator: dense_dt must be > 0");
  }
  phases_ = discretize_phases(plant_, intervals_);
  dense_.reserve(phases_.size());
  auto make_segment = [&](double span) {
    Segment seg;
    if (span <= 1e-15) {
      seg.steps = 0;
      seg.dt = 0.0;
      return seg;
    }
    seg.steps = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::llround(std::ceil(span / dense_dt))));
    seg.dt = span / static_cast<double>(seg.steps);
    const auto pair = linalg::expm_with_integral(plant_.a, seg.dt);
    seg.e = pair.ad;
    seg.pb = pair.phi * plant_.b;
    return seg;
  };
  for (const PhaseDynamics& pd : phases_) {
    PhaseDense d;
    d.before = make_segment(pd.tau);
    d.after = make_segment(pd.h - pd.tau);
    dense_.push_back(d);
  }
}

template <bool kTrace>
SimResult SwitchedSimulator::run(const PhaseGains& gains, const Matrix& x0,
                                 double u_prev0, const SimOptions& opts,
                                 const StopTest& stop) const {
  check_gain_dims(phases_, gains.k);
  if (gains.f.size() != phases_.size()) {
    throw std::invalid_argument("simulate: F count != phase count");
  }
  const std::size_t l = plant_.order();
  if (x0.rows() != l || x0.cols() != 1) {
    throw std::invalid_argument("simulate: x0 must be l x 1");
  }
  if (opts.start_phase >= phases_.size()) {
    throw std::invalid_argument("simulate: start_phase out of range");
  }

  SimResult res;
  if constexpr (kTrace) {
    // Size the traces from the segments' exact step counts over the
    // intervals the horizon spans, plus one interval of slack for the
    // rounding of the accumulated clock. The break test mirrors the loop's
    // `t < horizon`, so the walk ends whenever the simulation does.
    std::size_t acts = 0;
    std::size_t samples = 1;
    double span = 0.0;
    for (std::size_t p = opts.start_phase;; p = (p + 1) % phases_.size()) {
      ++acts;
      samples += dense_[p].before.steps + dense_[p].after.steps;
      if (!(span < opts.horizon)) break;
      span += phases_[p].h;
    }
    res.t.reserve(samples);
    res.y.reserve(samples);
    res.ts.reserve(acts);
    res.ys.reserve(acts);
    res.u.reserve(acts);
  }

  // Raw state on this frame (Matrix is small-buffer-optimized, so these
  // workspaces do not allocate); the step swaps the two pointers.
  Matrix xa = x0;
  Matrix xb(l, 1);
  double* x = xa.data();
  double* xn = xb.data();
  // Row-times-column with the exact skip-zero/accumulation order of
  // operator*; the dense step below keeps multiply_into + axpy_into's order
  // (row sum from 0.0, then + u * (Phi B)_i), so results stay bit-identical.
  const auto row_dot = [l](const double* row, const double* col) {
    double s = 0.0;
    for (std::size_t q = 0; q < l; ++q) {
      const double rq = row[q];
      if (rq == 0.0) continue;
      s += rq * col[q];
    }
    return s;
  };
  const double* c = plant_.c.data();
  const double r = opts.r;
  const double rref = std::max(std::abs(r), 1e-12);
  // Tail error: mean relative error over the trailing 20% of the horizon
  // (smooth measure the design search ranks non-settling candidates by).
  const double t_tail = 0.8 * opts.horizon;
  double tail_sum = 0.0;
  std::size_t tail_cnt = 0;
  SettlingTracker settle(r, opts.settle_band);

  double u_prev = u_prev0;
  double t = 0.0;
  double y = row_dot(c, x);
  std::size_t phase = opts.start_phase;
  bool first = true;

  // Every dense sample, the initial one included, feeds the trackers.
  const auto dense_sample = [&] {
    if constexpr (kTrace) {
      res.t.push_back(t);
      res.y.push_back(y);
    }
    if (!opts.settle_on_samples) settle.observe(t, y);
    if (t >= t_tail) {
      tail_sum += std::abs(y - r) / rref;
      ++tail_cnt;
    }
  };
  dense_sample();

  const auto run_segment = [&](const Segment& seg, double u) {
    const double* e = seg.e.data();
    const double* pb = seg.pb.data();
    for (std::size_t s = 0; s < seg.steps; ++s) {
      for (std::size_t i = 0; i < l; ++i) {
        xn[i] = row_dot(e + i * l, x) + u * pb[i];  // x+ = E x + u (Phi B)
      }
      std::swap(x, xn);
      const double t_prev = t;
      t += seg.dt;
      y = row_dot(c, x);
      dense_sample();
      res.iae += std::abs(y - r) / rref * (t - t_prev);
      if (std::abs(y) > opts.divergence_bound) {
        res.diverged = true;
        return false;
      }
    }
    return true;
  };

  while (t < opts.horizon && !res.diverged) {
    // Sensing instant of this interval's task; y is the current output.
    if constexpr (kTrace) {
      res.ts.push_back(t);
      res.ys.push_back(y);
    }
    if (opts.settle_on_samples) settle.observe(t, y);
    double u_new;
    if (first && opts.hold_first_interval) {
      // The task in flight when the reference steps still targets the old
      // reference: at the old equilibrium its output equals u_prev0.
      u_new = u_prev;
    } else {
      u_new = row_dot(gains.k[phase].data(), x) + gains.f[phase] * r;
    }
    if (opts.clamp_u) {
      u_new = std::clamp(u_new, -*opts.clamp_u, *opts.clamp_u);
    }
    if constexpr (kTrace) res.u.push_back(u_new);
    res.u_max_abs = std::max(res.u_max_abs, std::abs(u_new));
    if constexpr (!kTrace) {
      if (stop && stop({t, settle.lower_bound(t), res.iae, res.u_max_abs})) {
        res.stopped = true;
        break;
      }
    }
    if (!run_segment(dense_[phase].before, u_prev)) break;
    if (!run_segment(dense_[phase].after, u_new)) break;
    u_prev = u_new;
    phase = (phase + 1) % phases_.size();
    first = false;
  }

  const SettlingInfo si = settle.info();
  res.settling_time = si.time;
  res.settled = si.settled && !res.diverged;
  res.tail_error = tail_cnt > 0 ? tail_sum / static_cast<double>(tail_cnt)
                                : std::numeric_limits<double>::infinity();
  return res;
}

SimResult SwitchedSimulator::simulate(const PhaseGains& gains,
                                      const Matrix& x0, double u_prev0,
                                      const SimOptions& opts) const {
  return run<true>(gains, x0, u_prev0, opts, {});
}

SimResult SwitchedSimulator::summarize(const PhaseGains& gains,
                                       const Matrix& x0, double u_prev0,
                                       const SimOptions& opts,
                                       const StopTest& stop) const {
  return run<false>(gains, x0, u_prev0, opts, stop);
}

SettlingInfo settling_time(const std::vector<double>& t,
                           const std::vector<double>& y, double r,
                           double band) {
  if (t.size() != y.size() || t.empty()) {
    throw std::invalid_argument("settling_time: bad trace");
  }
  SettlingTracker tracker(r, band);
  for (std::size_t i = 0; i < t.size(); ++i) tracker.observe(t[i], y[i]);
  return tracker.info();
}

}  // namespace catsched::control
