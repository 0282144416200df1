/// \file test_design_golden.cpp
/// \brief Golden bit patterns of the controller-design pipeline. Every
///        number design_controller produces — per-phase gains K_j,
///        feedforward F_j, settling time, peak input, spectral radius,
///        feasibility and the PSO evaluation count — and the schedule's
///        Pall are compared as raw IEEE-754 bits against values recorded
///        from the reference implementation. No tolerances: a refactor or
///        optimization of the design kernel (switched simulation, PSO
///        objective) must leave every bit in place.
///
/// Coverage: the DATE'18 case study on schedules (3,2,3) and (1,1,1) at a
/// reduced PSO budget (dense-trajectory settling), and eight generated
/// systems on their round-robin schedule under fuzz_design_options()
/// (sampled settling).
///
/// Each record is checked serially and with the designs fanned across a
/// pool of 1 and of 4 workers (the PSO generations and seed grids then
/// run on the workers, each particle under its own bound).
///
/// On a mismatch the test prints the observed values; re-recording them is
/// only legitimate for a change that is meant to alter designs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "control/design.hpp"
#include "core/case_study.hpp"
#include "core/evaluator.hpp"
#include "core/parallel.hpp"
#include "sched/schedule.hpp"
#include "testgen/generator.hpp"
#include "testgen/invariants.hpp"

namespace {

namespace control = catsched::control;
namespace core = catsched::core;
namespace sched = catsched::sched;
namespace testgen = catsched::testgen;

std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

/// FNV-1a over 64-bit words.
class Digest {
public:
  void add(std::uint64_t w) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (w >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void add(double v) { add(bits_of(v)); }
  std::uint64_t value() const { return h_; }

private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Digest of every output field of one design.
void add_design(Digest& d, const control::DesignResult& r) {
  d.add(static_cast<std::uint64_t>(r.gains.k.size()));
  for (const auto& kj : r.gains.k) {
    for (std::size_t q = 0; q < kj.cols(); ++q) d.add(kj(0, q));
  }
  for (double fj : r.gains.f) d.add(fj);
  d.add(r.settling_time);
  d.add(static_cast<std::uint64_t>(r.settled));
  d.add(r.u_max_abs);
  d.add(r.spectral_radius);
  d.add(static_cast<std::uint64_t>(r.feasible));
  d.add(static_cast<std::uint64_t>(r.pso_evaluations));
}

struct Observed {
  std::uint64_t pall_bits = 0;
  std::uint64_t designs = 0;  ///< digest over all per-app designs
  long pso_evaluations = 0;   ///< summed over the apps
};

Observed observe(core::Evaluator& ev, const sched::PeriodicSchedule& s) {
  const core::ScheduleEvaluation e = ev.evaluate(s);
  Observed o;
  o.pall_bits = bits_of(e.pall);
  Digest d;
  for (const core::AppEvaluation& a : e.apps) {
    add_design(d, a.design);
    o.pso_evaluations += a.design.pso_evaluations;
  }
  o.designs = d.value();
  return o;
}

struct Golden {
  const char* label;
  std::uint64_t pall_bits;
  std::uint64_t designs;
  long pso_evaluations;
};

void expect_golden(const Golden& g, const Observed& o) {
  SCOPED_TRACE(g.label);
  EXPECT_EQ(o.pall_bits, g.pall_bits);
  EXPECT_EQ(o.designs, g.designs);
  EXPECT_EQ(o.pso_evaluations, g.pso_evaluations);
  if (o.pall_bits != g.pall_bits || o.designs != g.designs ||
      o.pso_evaluations != g.pso_evaluations) {
    std::printf("    {\"%s\", 0x%016llxull, 0x%016llxull, %ld},\n", g.label,
                static_cast<unsigned long long>(o.pall_bits),
                static_cast<unsigned long long>(o.designs),
                o.pso_evaluations);
  }
}

/// Serial (0: no pool), then pools of 1 and 4 workers.
constexpr std::size_t kThreadCounts[] = {0, 1, 4};

std::unique_ptr<core::ThreadPool> make_pool(std::size_t threads) {
  if (threads == 0) return nullptr;
  return std::make_unique<core::ThreadPool>(threads);
}

/// The reduced case-study budget of the end-to-end benchmark: seconds per
/// exhaustive query instead of tens of seconds.
control::DesignOptions reduced_case_study_options() {
  control::DesignOptions o = core::date18_design_options();
  o.pso.particles = 10;
  o.pso.iterations = 15;
  o.pso.stall_iterations = 6;
  o.pso_restarts = 1;
  o.scale_budget_with_dims = false;
  return o;
}

TEST(DesignGolden, CaseStudyDenseSettlingBitsArePinned) {
  const Golden golden[] = {
      {"(3,2,3)", 0x3fe129d8fdb5bf20ull, 0xaff7e8a0d67b8d53ull, 4251},
      {"(1,1,1)", 0x3fde8088b1db8c15ull, 0xffa3ceb8a0600318ull, 1125},
  };
  const std::vector<int> schedules[] = {{3, 2, 3}, {1, 1, 1}};
  const control::DesignOptions opts = reduced_case_study_options();
  ASSERT_FALSE(opts.settle_on_samples);
  for (const std::size_t threads : kThreadCounts) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    std::unique_ptr<core::ThreadPool> pool = make_pool(threads);
    core::Evaluator ev(core::date18_case_study(), opts, pool.get());
    for (std::size_t i = 0; i < 2; ++i) {
      expect_golden(golden[i],
                    observe(ev, sched::PeriodicSchedule(schedules[i])));
    }
  }
}

TEST(DesignGolden, GeneratedSystemsSampledSettlingBitsArePinned) {
  const Golden golden[] = {
      {"seed 1", 0x3fed8e0fc4091950ull, 0x63f99a8c7b695da9ull, 571},
      {"seed 2", 0x3fee59eee3c17791ull, 0x922ef0ff242dd5bbull, 396},
      {"seed 3", 0x3fee7fb7c23071d1ull, 0x3189e1d02c67ec9bull, 425},
      {"seed 4", 0x3fef345e43ebcb38ull, 0xb1ff9dbc2dafff42ull, 1456},
      {"seed 5", 0x3fee047f8cece63full, 0x68636eac79ea9f2bull, 297},
      {"seed 6", 0x3feef8a2c8950064ull, 0x6a2b403abbd4588aull, 1746},
      {"seed 7", 0x3fee27e9d9c3f870ull, 0x96289dff80ede47cull, 453},
      {"seed 8", 0x3fef27534a41ff0eull, 0x612f9f3bbbb55a14ull, 1265},
  };
  const testgen::GeneratorConfig config;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const testgen::GeneratedSystem sys = testgen::generate_system(config, seed);
    // Same per-system resolution cap as the invariant harness.
    control::DesignOptions opts = testgen::fuzz_design_options();
    ASSERT_TRUE(opts.settle_on_samples);
    double max_smax = 0.0;
    for (const core::Application& a : sys.model.apps) {
      max_smax = std::max(max_smax, a.smax);
    }
    opts.dense_dt = std::max(
        opts.dense_dt,
        opts.horizon_factor * max_smax /
            static_cast<double>(testgen::InvariantOptions{}.dense_steps));
    for (const std::size_t threads : kThreadCounts) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      std::unique_ptr<core::ThreadPool> pool = make_pool(threads);
      core::Evaluator ev(sys.model, opts, pool.get());
      expect_golden(golden[seed - 1],
                    observe(ev, sched::PeriodicSchedule(std::vector<int>(
                                    sys.model.apps.size(), 1))));
    }
  }
}

}  // namespace
