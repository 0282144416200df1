// date18_exhaustive: the paper's Sec. V case study through
// core::exhaustive_codesign. Controller design is nearly all of the time
// and every design is independent, so this workload measures the design
// kernel and the pool fan-out; cache analysis costs microseconds and
// there is no search logic.

#include <memory>
#include <vector>

#include "bench.hpp"
#include "core/case_study.hpp"
#include "core/codesign.hpp"

namespace perfbench {
namespace {

/// The paper's schedule region: 77 idle-feasible points (Sec. V).
constexpr int kCaseStudyRegion = 77;
/// Queries per repetition, with PSO seeds seed, seed + 1, ...: the PSO's
/// early stop makes the work differ by a few percent from seed to seed,
/// and three seeds per repetition average that out.
constexpr std::uint64_t kSeedsPerRep = 3;
/// Evaluator constructions per query; setup_s is their median.
constexpr int kSetups = 5;
/// Distinct designs per query replayed serially for the control.* timings.
constexpr std::size_t kReplayCap = 8;

/// Reduced PSO budget (the --fast options of bench_parallel_scaling): a
/// query takes seconds instead of the full budget's tens of seconds.
control::DesignOptions reduced_budget(std::uint64_t seed) {
  control::DesignOptions o = core::date18_design_options();
  o.pso.particles = 10;
  o.pso.iterations = 15;
  o.pso.stall_iterations = 6;
  o.pso_restarts = 1;
  o.scale_budget_with_dims = false;
  o.pso.seed = seed;
  return o;
}

class Date18Exhaustive final : public Workload {
public:
  explicit Date18Exhaustive(std::uint64_t seed)
      : model_(core::date18_case_study()) {
    for (std::uint64_t k = 0; k < kSeedsPerRep; ++k) {
      designs_.push_back(reduced_budget(seed + k));
    }
    hopts_.tolerance = 0.005;
  }

  bool codesign() const override { return true; }

  Rep run(core::ThreadPool& pool, bool traced, Checks& checks) override {
    return run_queries(pool, traced, checks, designs_.size());
  }

  void warm_up(core::ThreadPool& pool, Checks& checks) override {
    run_queries(pool, false, checks, 1);
  }

private:
  Rep run_queries(core::ThreadPool& pool, bool traced, Checks& checks,
                  std::size_t count) {
    Rep rep;
    std::vector<std::unique_ptr<core::Evaluator>> evaluators;
    std::vector<DesignSource> sources;
    for (std::size_t q = 0; q < count; ++q) {
      const control::DesignOptions& design = designs_[q];
      std::unique_ptr<core::Evaluator> ev;
      for (int i = 0; i < kSetups; ++i) {
        ev.reset();
        Span span("core.evaluator_setup");
        const double t0 = thread_cpu_now();
        ev = std::make_unique<core::Evaluator>(model_, design, &pool);
        rep.setup_s.push_back(thread_cpu_now() - t0);
      }

      if (traced) Tracer::active()->begin_query();
      const double c0 = cpu_now();
      const double t0 = wall_now();
      core::ExhaustiveCodesignResult res;
      {
        Span span("core.exhaustive_codesign");
        res = core::exhaustive_codesign(*ev, hopts_, &pool);
      }
      rep.query_s += wall_now() - t0;
      rep.cpu_s += cpu_now() - c0;
      rep.unique_evals += res.details.unique_evaluations;
      rep.best_pall_mean += res.details.best_value / static_cast<double>(count);

      checks.require(res.details.enumerated == kCaseStudyRegion,
                     "date18: exhaustive search enumerates the 77-point region");
      checks.require(res.found, "date18: a feasible schedule exists");
      if (res.found) {
        core::Evaluator serial(model_, design);
        const core::ScheduleEvaluation again =
            serial.evaluate(res.best_schedule);
        checks.require(same_bits(again.pall, res.details.best_value) &&
                           again.feasible(),
                       "date18: best schedule re-evaluated serially "
                       "reproduces its Pall bits");
      }
      if (!traced) continue;
      DesignSource src{ev.get(), &design, {}};
      for (const auto& [point, outcome] : res.details.all) {
        src.evaluations.push_back(&ev->evaluate_cached(
            sched::InterleavedSchedule::from_periodic(
                sched::PeriodicSchedule(point))));
      }
      sources.push_back(std::move(src));
      evaluators.push_back(std::move(ev));
    }

    if (traced) {
      add_control_metrics(rep.layers, sources, kReplayCap, checks);
      const double a0 = wall_now();
      {
        Span span("cache.analyze_wcets");
        (void)model_.analyze_wcets();
      }
      rep.layers.emplace_back("cache.analyze_wcets_s", wall_now() - a0);
      double memo = 0.0, neighbor = 0.0, reused = 0.0;
      for (const auto& ev : evaluators) {
        memo += ev->schedule_evaluations();
        neighbor += ev->neighbor_evaluations();
        reused += ev->apps_reused();
      }
      rep.layers.emplace_back("core.schedule_memo_size", memo);
      rep.layers.emplace_back("core.neighbor_evaluations", neighbor);
      rep.layers.emplace_back("core.apps_reused", reused);
    }
    return rep;
  }

  core::SystemModel model_;
  std::vector<control::DesignOptions> designs_;  ///< one per PSO seed
  opt::HybridOptions hopts_;
};

}  // namespace

std::unique_ptr<Workload> make_date18_exhaustive(std::uint64_t seed) {
  return std::make_unique<Date18Exhaustive>(seed);
}

}  // namespace perfbench
