// Structured-vs-full-information ablation: the paper's controller is the
// structured static feedback u = K x + F r (the held input u[k-1] is NOT
// fed back). The periodic LQR over the augmented state [x; u_prev] is the
// unconstrained full-information alternative. This bench compares both on
// every application of the case study under the round-robin and the
// cache-aware schedules: settling time, peak input, and the quadratic
// regulation cost the LQR optimizes.
//
// Expected shape: LQR settles comparably or faster (more information, but
// it optimizes quadratic cost, not settling time -- the paper's point that
// settling time is the harder objective), while the structured design wins
// on the metric it was designed for whenever saturation binds.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "control/design.hpp"
#include "control/lqr.hpp"
#include "control/lti.hpp"
#include "control/switched.hpp"
#include "core/case_study.hpp"
#include "core/evaluator.hpp"

using namespace catsched;
using control::Matrix;

namespace {

struct LqrOutcome {
  double settling = 0.0;
  bool settled = false;
  double u_max = 0.0;
  double cost = 0.0;
};

/// Simulate the augmented-state periodic LQR tracking a reference step.
LqrOutcome run_lqr(const control::ContinuousLTI& plant,
                   const std::vector<sched::Interval>& intervals, double r,
                   double horizon, double band) {
  const auto raw = control::discretize_phases(plant, intervals);
  const auto phases = control::augment_phases(raw);
  const std::size_t nz = phases[0].a.rows();
  const std::size_t l = plant.order();

  // Output-weighted state cost plus a small input weight.
  Matrix q = Matrix::zero(nz, nz);
  const Matrix ctc = plant.c.transposed() * plant.c;
  q.set_block(0, 0, ctc);
  const Matrix rw{{1e-6}};
  const auto lqr = control::periodic_lqr(phases, q, rw);

  // Steady-state target from the continuous equilibrium: A x + B u = 0
  // makes it an exact equilibrium of every ZOH discretization, whatever
  // (h, tau), so one target serves every phase.
  const auto eq = control::equilibrium_at(plant, r);
  Matrix z_ss(nz, 1);
  z_ss.set_block(0, 0, eq.x);
  z_ss(l, 0) = eq.u;

  LqrOutcome out;
  Matrix z = Matrix::zero(nz, 1);
  control::SettlingTracker settle(r, band);
  double time = 0.0;
  std::size_t j = 0;
  while (time <= horizon) {
    double y = 0.0;
    for (std::size_t i = 0; i < l; ++i) y += plant.c(0, i) * z(i, 0);
    settle.observe(time, y);

    const Matrix u = Matrix{{eq.u}} - lqr.k[j] * (z - z_ss);
    out.u_max = std::max(out.u_max, std::abs(u(0, 0)));
    z = phases[j].a * z + phases[j].b * u;
    time += raw[j].h;
    j = (j + 1) % phases.size();
  }
  const auto s = settle.info();
  out.settling = s.time;
  out.settled = s.settled;
  out.cost = control::periodic_regulation_cost(
      phases, lqr.k, q, rw, -z_ss);  // step from rest = error -z_ss
  return out;
}

}  // namespace

int main() {
  core::SystemModel sys = core::date18_case_study();
  core::Evaluator ev(sys, core::date18_design_options());
  const auto wcets = ev.wcets();

  std::printf("structured u=Kx+Fr (paper Sec. III) vs augmented periodic "
              "LQR, per application\n");
  for (const std::vector<int>& m : {std::vector<int>{1, 1, 1},
                                   std::vector<int>{2, 6, 2},
                                   std::vector<int>{3, 2, 3}}) {
    const sched::PeriodicSchedule schedule(m);
    const auto timing = sched::derive_timing(wcets, schedule);
    std::printf("\nschedule %s\n", schedule.to_string().c_str());
    std::printf("  %-18s | %13s %9s | %13s %9s %12s\n", "app",
                "structured[ms]", "|u|max", "LQR [ms]", "|u|max",
                "LQR cost");
    for (std::size_t i = 0; i < sys.num_apps(); ++i) {
      const auto& app = sys.apps[i];
      control::DesignSpec spec;
      spec.plant = app.plant;
      spec.umax = app.umax;
      spec.r = app.r;
      spec.y0 = app.y0;
      spec.smax = app.smax;
      control::DesignOptions dopts = core::date18_design_options();
      dopts.pso.particles = 20;
      dopts.pso.iterations = 35;
      dopts.pso_restarts = 1;
      dopts.scale_budget_with_dims = false;
      const auto structured = control::design_controller(
          spec, timing.apps[i].intervals, dopts);

      const auto lqr = run_lqr(app.plant, timing.apps[i].intervals, app.r,
                               1.6 * app.smax, 0.02);
      std::printf("  %-18s | %10.2f %s %9.1f | %10.2f %s %9.1f %12.3e\n",
                  app.name.c_str(), structured.settling_time * 1e3,
                  structured.settled ? " " : "!", structured.u_max_abs,
                  lqr.settling * 1e3, lqr.settled ? " " : "!", lqr.u_max,
                  lqr.cost);
    }
  }
  std::printf("\n('!' marks a response that never entered the 2%% band; "
              "LQR ignores the saturation limit |u| <= Umax, the\n"
              " structured design enforces it -- compare the |u|max "
              "columns.)\n");
  return 0;
}
