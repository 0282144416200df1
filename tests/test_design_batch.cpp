/// \file test_design_batch.cpp
/// \brief Determinism contract of the pooled controller-design path:
///        design_controller with a thread pool and Evaluator::evaluate
///        with pooled per-app designs must both be bit-identical to their
///        serial counterparts at every thread count — the pool decides
///        where candidates are evaluated, never what. Also pins the PSO
///        batch_eval hook's serial reduction.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "control/design.hpp"
#include "core/case_study.hpp"
#include "core/evaluator.hpp"
#include "core/parallel.hpp"
#include "opt/pso.hpp"
#include "sched/timing.hpp"

namespace {

using catsched::control::DesignOptions;
using catsched::control::DesignResult;
using catsched::control::DesignSpec;
using catsched::core::Evaluator;
using catsched::core::SystemModel;
using catsched::core::ThreadPool;
namespace control = catsched::control;
namespace core = catsched::core;
namespace opt = catsched::opt;
namespace sched = catsched::sched;

/// Small fixed design budget: determinism must hold at any budget, so the
/// tests use one that keeps a full design in the tens of milliseconds.
DesignOptions tiny_options() {
  DesignOptions o = core::date18_design_options();
  o.pso.particles = 6;
  o.pso.iterations = 8;
  o.pso.stall_iterations = 4;
  o.pso_restarts = 1;
  o.scale_budget_with_dims = false;
  return o;
}

::testing::AssertionResult same_result(const DesignResult& a,
                                       const DesignResult& b) {
  if (a.gains.k != b.gains.k) {
    return ::testing::AssertionFailure() << "gain matrices differ";
  }
  if (a.gains.f != b.gains.f) {
    return ::testing::AssertionFailure() << "feedforward differs";
  }
  // Exact comparison throughout (infinity == infinity is true, which is
  // what an infeasible-design match should be).
  if (a.settling_time != b.settling_time || a.settled != b.settled ||
      a.u_max_abs != b.u_max_abs || a.spectral_radius != b.spectral_radius ||
      a.feasible != b.feasible || a.pso_evaluations != b.pso_evaluations) {
    return ::testing::AssertionFailure() << "metrics differ";
  }
  return ::testing::AssertionSuccess();
}

struct CaseStudy {
  SystemModel sys = core::date18_case_study();
  sched::ScheduleTiming timing =
      sched::derive_timing(sys.analyze_wcets(),
                           sched::PeriodicSchedule({3, 2, 3}));
  DesignSpec spec_of(std::size_t i) const {
    const auto& a = sys.apps[i];
    DesignSpec spec;
    spec.plant = a.plant;
    spec.umax = a.umax;
    spec.r = a.r;
    spec.y0 = a.y0;
    spec.smax = a.smax;
    return spec;
  }
};

TEST(DesignBatch, PooledDesignControllerIsBitIdenticalToSerial) {
  const CaseStudy cs;
  const DesignOptions opts = tiny_options();
  const DesignResult serial = control::design_controller(
      cs.spec_of(0), cs.timing.apps[0].intervals, opts);
  for (const std::size_t threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    const DesignResult pooled = control::design_controller(
        cs.spec_of(0), cs.timing.apps[0].intervals, opts, &pool);
    EXPECT_TRUE(same_result(serial, pooled)) << threads << " threads";
  }
}

TEST(DesignBatch, PooledEvaluatorIsBitIdenticalToSerial) {
  const CaseStudy cs;
  const DesignOptions opts = tiny_options();
  const sched::PeriodicSchedule schedule({3, 2, 3});

  Evaluator serial_ev(cs.sys, opts);
  const auto serial = serial_ev.evaluate(schedule);

  for (const std::size_t threads : {2u, 4u}) {
    ThreadPool pool(threads);
    // Fresh evaluator per run: a shared memo would mask design divergence.
    Evaluator ev(cs.sys, opts, &pool);
    EXPECT_EQ(ev.pool(), &pool);
    const auto pooled = ev.evaluate(schedule);
    EXPECT_EQ(serial.pall, pooled.pall) << threads << " threads";
    EXPECT_EQ(serial.idle_feasible, pooled.idle_feasible);
    EXPECT_EQ(serial.control_feasible, pooled.control_feasible);
    ASSERT_EQ(serial.apps.size(), pooled.apps.size());
    for (std::size_t i = 0; i < serial.apps.size(); ++i) {
      EXPECT_EQ(serial.apps[i].settling_time, pooled.apps[i].settling_time);
      EXPECT_EQ(serial.apps[i].performance, pooled.apps[i].performance);
      EXPECT_EQ(serial.apps[i].feasible, pooled.apps[i].feasible);
      EXPECT_TRUE(same_result(serial.apps[i].design, pooled.apps[i].design));
    }
    // The per-app memo stays in the path when batching: one design per app.
    EXPECT_EQ(ev.designs_run(), serial_ev.designs_run());
    EXPECT_EQ(ev.design_requests(), serial_ev.design_requests());
  }
}

// The swarm update consumes costs through a serial index-ordered reduction,
// so any batch evaluator returning f(positions[i]) exactly — regardless of
// the order it fills the slots — leaves the optimum bit-identical.
TEST(DesignBatch, PsoBatchHookIsOrderInvariant) {
  const auto rosenbrock = [](const std::vector<double>& x, double /*bound*/) {
    double s = 0.0;
    for (std::size_t i = 0; i + 1 < x.size(); ++i) {
      const double a = x[i + 1] - x[i] * x[i];
      const double b = 1.0 - x[i];
      s += 100.0 * a * a + b * b;
    }
    return s;
  };
  const std::vector<double> lo(4, -2.0);
  const std::vector<double> hi(4, 2.0);
  opt::PsoOptions base;
  base.particles = 12;
  base.iterations = 40;
  base.seed = 1234;

  const auto plain = opt::pso_minimize(rosenbrock, lo, hi, base);

  // Reverse-order fill: same values, opposite completion order.
  opt::PsoOptions batched = base;
  batched.batch_eval = [&](const std::vector<std::vector<double>>& xs,
                           const std::vector<double>& bounds,
                           std::vector<double>& costs) {
    for (std::size_t i = xs.size(); i-- > 0;) {
      costs[i] = rosenbrock(xs[i], bounds[i]);
    }
  };
  const auto rev = opt::pso_minimize(rosenbrock, lo, hi, batched);
  EXPECT_EQ(plain.x, rev.x);
  EXPECT_EQ(plain.cost, rev.cost);
  EXPECT_EQ(plain.evaluations, rev.evaluations);

  // Pool-backed fill through parallel_for, at several widths.
  for (const std::size_t threads : {2u, 4u}) {
    ThreadPool pool(threads);
    opt::PsoOptions pooled = base;
    pooled.batch_eval = [&](const std::vector<std::vector<double>>& xs,
                            const std::vector<double>& bounds,
                            std::vector<double>& costs) {
      pool.parallel_for(xs.size(), 0, [&](std::size_t i) {
        costs[i] = rosenbrock(xs[i], bounds[i]);
      });
    };
    const auto par = opt::pso_minimize(rosenbrock, lo, hi, pooled);
    EXPECT_EQ(plain.x, par.x);
    EXPECT_EQ(plain.cost, par.cost);
    EXPECT_EQ(plain.evaluations, par.evaluations);
  }
}

// Pooled generations under the bound contract: an objective that answers
// exactly the bound (or +inf) whenever its exact value is not below it must
// leave the swarm's output bit-identical to the exact objective's at every
// pool width, on a sphere and on Rosenbrock.
TEST(DesignBatch, PooledPsoOutputsIndependentOfCutValues) {
  const auto sphere = [](const std::vector<double>& x) {
    double s = 0.0;
    for (double v : x) s += (v - 0.7) * (v - 0.7);
    return s;
  };
  const auto rosenbrock = [](const std::vector<double>& x) {
    double s = 0.0;
    for (std::size_t i = 0; i + 1 < x.size(); ++i) {
      const double a = x[i + 1] - x[i] * x[i];
      const double b = 1.0 - x[i];
      s += 100.0 * a * a + b * b;
    }
    return s;
  };
  const std::vector<double> lo(4, -2.0);
  const std::vector<double> hi(4, 2.0);
  opt::PsoOptions base;
  base.particles = 12;
  base.iterations = 40;
  base.seed = 99;
  const double inf = std::numeric_limits<double>::infinity();
  using Fn = double (*)(const std::vector<double>&);
  for (const Fn f : {Fn(sphere), Fn(rosenbrock)}) {
    const auto exact = opt::pso_minimize(
        [&](const std::vector<double>& x, double) { return f(x); }, lo, hi,
        base);
    for (const bool at_bound : {true, false}) {
      const auto cut = [&](const std::vector<double>& x, double bound) {
        const double v = f(x);
        return v < bound ? v : (at_bound ? bound : inf);
      };
      for (const std::size_t threads : {1u, 2u, 4u}) {
        ThreadPool pool(threads);
        opt::PsoOptions pooled = base;
        pooled.batch_eval = [&](const std::vector<std::vector<double>>& xs,
                                const std::vector<double>& bounds,
                                std::vector<double>& costs) {
          pool.parallel_for(xs.size(), 0, [&](std::size_t i) {
            costs[i] = cut(xs[i], bounds[i]);
          });
        };
        const auto got = opt::pso_minimize(cut, lo, hi, pooled);
        EXPECT_EQ(exact.x, got.x);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(exact.cost),
                  std::bit_cast<std::uint64_t>(got.cost));
        EXPECT_EQ(exact.evaluations, got.evaluations);
        EXPECT_EQ(exact.iterations_run, got.iterations_run);
      }
    }
  }
}

}  // namespace
