// gen_search: a fixed-size population of generated systems, each running
// one Stage-2 query on one context-WCET Evaluator — multi-start hybrid
// search, the racing portfolio from the same starts (checkpoint journal
// armed), then the interleaved search seeded at the periodic best. This is
// the search-heavy workload: design-memo reuse across the three steps,
// lazy context WCETs served from their memo, delta and rotation timing,
// racing elimination and journal writes all sit on its blocking path.

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <unistd.h>

#include "bench.hpp"
#include "cache/schedule_wcet.hpp"
#include "core/codesign.hpp"
#include "core/interleaved_codesign.hpp"
#include "opt/portfolio.hpp"
#include "testgen/generator.hpp"
#include "testgen/invariants.hpp"
#include "testgen/rng.hpp"

namespace perfbench {
namespace {

namespace testgen = catsched::testgen;

constexpr std::size_t kSystems = 3;
constexpr int kMaxValue = 3;  ///< per-dimension box of the periodic searches
/// Evaluator constructions per system; setup_s is their median.
constexpr int kSetups = 11;
/// Distinct designs per system replayed serially for the control.* timings.
constexpr std::size_t kReplayCap = 8;
/// Dense closed-loop simulation capped at about this many steps per design,
/// as the invariant harness does, so a long generated settling deadline
/// cannot make one design cost tens of thousands of steps.
constexpr double kDenseSteps = 400.0;
/// Generator seed of the fixed population (see GenSearch).
constexpr std::uint64_t kPopulationSeed = 20180319;

struct System {
  std::uint64_t seed = 0;  ///< generator seed, also the portfolio seed
  core::SystemModel model;
  control::DesignOptions design;
};

/// What one system's query leaves behind for the checks and the layers.
struct QueryOutcome {
  std::vector<std::vector<int>> starts;
  opt::MultiStartResult ms;
  opt::PortfolioResult pf;
  sched::InterleavedSchedule il_start;
  core::InterleavedSearchResult il;
};

namespace fs = std::filesystem;

void remove_checkpoint(const std::string& path) {
  std::error_code ec;
  for (const char* suffix : {"", ".prev", ".tmp"}) {
    fs::remove(path + suffix, ec);
  }
}

/// The evaluator's search adapters, plain and wrapped in spans. The wrapped
/// objectives keep the evaluated points so the design replay can find
/// their timing patterns.
struct TracedObjectives {
  explicit TracedObjectives(core::Evaluator& ev)
      : objective(core::make_objective(ev)),
        neighbor(core::make_neighbor_objective(ev)),
        cheap(core::make_cheap_feasible(ev)) {}

  opt::DiscreteObjective traced_objective() {
    return [this](const std::vector<int>& p) {
      record(p);
      Span span("core.evaluate");
      return objective(p);
    };
  }
  opt::NeighborObjective traced_neighbor() {
    return [this](const std::vector<int>& base, const std::vector<int>& p) {
      record(p);
      Span span("core.evaluate_neighbor");
      return neighbor(base, p);
    };
  }
  opt::CheapFeasible traced_cheap() {
    return [this](const std::vector<int>& p) {
      Span span("sched.cheap_feasible");
      return cheap(p);
    };
  }
  void record(const std::vector<int>& p) {
    std::lock_guard<std::mutex> lock(mu);
    points.insert(p);
  }

  opt::DiscreteObjective objective;
  opt::NeighborObjective neighbor;
  opt::CheapFeasible cheap;
  std::mutex mu;
  std::set<std::vector<int>> points;  ///< guarded by mu
};

/// Unique evaluations at the first round whose incumbent reached the
/// race's final best.
int evals_to_final_best(const opt::PortfolioResult& pf) {
  for (const opt::PortfolioRound& r : pf.history) {
    if (r.incumbent_found && r.incumbent_value >= pf.best_value) {
      return r.unique_evaluations;
    }
  }
  return pf.unique_evaluations;
}

/// The population and every seed inside it are fixed: with system seeds
/// (or PSO and portfolio seeds) drawn from the run's seed, the searches
/// take different paths and query_s moved by 20-40% from seed to seed,
/// wider than any bound a regression check could use. The run's seed sets
/// the order in which the systems are queried.
class GenSearch final : public Workload {
public:
  GenSearch(std::uint64_t seed, std::string scratch_dir)
      : scratch_dir_(std::move(scratch_dir)) {
    testgen::GeneratorConfig gcfg;
    gcfg.branchy_chance = 0.5;
    gcfg.min_apps = 3;
    gcfg.max_apps = 4;
    testgen::SplitMix64 rng(kPopulationSeed);
    for (std::size_t k = 0; k < kSystems; ++k) {
      System s;
      s.seed = rng.next();
      s.model = testgen::generate_system(gcfg, s.seed).model;
      s.design = testgen::fuzz_design_options();
      double max_smax = 0.0;
      for (const core::Application& a : s.model.apps) {
        max_smax = std::max(max_smax, a.smax);
      }
      s.design.dense_dt = std::max(
          s.design.dense_dt, s.design.horizon_factor * max_smax / kDenseSteps);
      systems_.push_back(std::move(s));
    }
    std::rotate(systems_.begin(),
                systems_.begin() + static_cast<std::ptrdiff_t>(seed % kSystems),
                systems_.end());
    ctx_.context_wcets = true;
    hopts_.tolerance = 0.005;
    hopts_.max_value = kMaxValue;
    iopts_.max_steps = 4;
    iopts_.max_segments = 6;
    iopts_.max_burst = 4;
  }

  bool codesign() const override { return true; }

  Rep run(core::ThreadPool& pool, bool traced, Checks& checks) override {
    return run_systems(pool, traced, checks, systems_.size());
  }

  /// The first repetition's extra cost is per process, not per system: one
  /// system's query is enough to pay it.
  void warm_up(core::ThreadPool& pool, Checks& checks) override {
    run_systems(pool, false, checks, 1);
  }

private:
  Rep run_systems(core::ThreadPool& pool, bool traced, Checks& checks,
                  std::size_t count) {
    Rep rep;
    double pall_sum = 0.0;
    std::map<std::string, double> sum;  // traced reps: per-system totals
    std::vector<std::unique_ptr<core::Evaluator>> keep;  // for the replay
    std::vector<DesignSource> sources;
    const std::size_t first_span = traced ? Tracer::active()->size() : 0;

    for (std::size_t k = 0; k < count; ++k) {
      const System& sys = systems_[k];
      std::unique_ptr<core::Evaluator> ev;
      for (int i = 0; i < kSetups; ++i) {
        ev.reset();
        Span span("core.evaluator_setup");
        const double t0 = thread_cpu_now();
        ev = std::make_unique<core::Evaluator>(sys.model, sys.design, &pool,
                                               ctx_);
        rep.setup_s.push_back(thread_cpu_now() - t0);
      }
      TracedObjectives objectives(*ev);
      QueryOutcome q;
      q.starts = starts_for(objectives.cheap, sys.model.num_apps());
      const std::string ckpt = checkpoint_path();
      remove_checkpoint(ckpt);

      if (traced) Tracer::active()->begin_query();
      const double c0 = cpu_now();
      const double t0 = wall_now();
      query(*ev, pool, traced, objectives, sys, ckpt, q);
      rep.query_s += wall_now() - t0;
      rep.cpu_s += cpu_now() - c0;

      std::error_code ec;
      const std::uintmax_t ckpt_bytes = fs::file_size(ckpt, ec);
      remove_checkpoint(ckpt);

      rep.unique_evals += ev->schedule_evaluations();
      pall_sum += q.il.found ? q.il.best_evaluation.pall : 0.0;
      check(sys, *ev, q, checks);
      if (!traced) continue;

      const cache::ScheduleWcetAnalyzer::Stats st =
          ev->context_analyzer()->stats();
      sum["context_requests"] += static_cast<double>(st.context_requests);
      sum["cache.context_analyses"] += static_cast<double>(st.context_analyses);
      sum["core.schedule_memo_size"] += ev->schedule_evaluations();
      sum["core.neighbor_evaluations"] += ev->neighbor_evaluations();
      sum["core.apps_reused"] += ev->apps_reused();
      for (const opt::StrategyReport& s : q.pf.strategies) {
        sum["opt.proposals"] += s.proposals;
      }
      sum["new_evaluations"] += q.pf.new_evaluations;
      sum["opt.rounds"] += q.pf.rounds;
      sum["opt.evals_to_final_best"] += evals_to_final_best(q.pf);
      sum["opt.interleaved_steps"] += q.il.steps;
      sum["snapshot.checkpoints_written"] += q.pf.telemetry.checkpoints_written;
      sum["snapshot.bytes"] += ec ? 0.0 : static_cast<double>(ckpt_bytes);
      double a0 = wall_now();
      {
        Span span("cache.analyze_wcets");
        (void)sys.model.analyze_wcets();
      }
      sum["cache.analyze_wcets_s"] += wall_now() - a0;
      a0 = wall_now();
      {
        Span span("cache.make_context_analyzer");
        (void)sys.model.make_context_analyzer();
      }
      sum["cache.context_build_s"] += wall_now() - a0;

      // Design replay over the periodic points and the interleaved path.
      DesignSource src{ev.get(), &sys.design, {}};
      for (const std::vector<int>& p : objectives.points) {
        src.evaluations.push_back(&ev->evaluate_cached(
            sched::InterleavedSchedule::from_periodic(
                sched::PeriodicSchedule(p))));
      }
      replay_interleaved_path(*ev, q, checks, &src.evaluations, sum);
      sources.push_back(std::move(src));
      keep.push_back(std::move(ev));
    }
    rep.best_pall_mean = pall_sum / static_cast<double>(count);
    if (!traced) return rep;

    const std::vector<SpanRecord> spans =
        Tracer::active()->spans_since(first_span);
    auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
    sum["cache.context_hit_ratio"] =
        1.0 - ratio(sum["cache.context_analyses"], sum["context_requests"]);
    sum["core.evaluate_calls"] =
        static_cast<double>(span_count(spans, "core.evaluate") +
                            span_count(spans, "core.evaluate_neighbor"));
    sum["core.evaluate_s"] = span_seconds(spans, "core.evaluate") +
                             span_seconds(spans, "core.evaluate_neighbor");
    sum["opt.search_self_s"] = span_self_seconds(
        spans, "opt.search",
        {"core.evaluate", "core.evaluate_neighbor", "sched.cheap_feasible"});
    sum["opt.useful_ratio"] =
        ratio(sum["new_evaluations"], sum["opt.proposals"]);
    sum["sched.cheap_feasible_calls"] =
        static_cast<double>(span_count(spans, "sched.cheap_feasible"));
    sum["sched.cheap_feasible_s"] = span_seconds(spans, "sched.cheap_feasible");
    sum["sched.neighbor_timing_us"] =
        1e6 * ratio(sum["neighbor_timing_s"], sum["neighbor_timings"]);
    rep.layers.assign(sum.begin(), sum.end());
    add_control_metrics(rep.layers, sources, kReplayCap, checks);
    return rep;
  }

  /// Diverse starts filtered through the idle constraint: all-ones (always
  /// idle-feasible by the generator's tidle floor), the high corner, and an
  /// alternating point.
  static std::vector<std::vector<int>> starts_for(const opt::CheapFeasible& cheap,
                                                  std::size_t n) {
    std::vector<std::vector<int>> starts{std::vector<int>(n, 1)};
    std::vector<int> high(n, kMaxValue);
    std::vector<int> alt(n, 1);
    for (std::size_t i = 1; i < n; i += 2) alt[i] = kMaxValue;
    for (const std::vector<int>* cand : {&high, &alt}) {
      if (cheap(*cand)) starts.push_back(*cand);
    }
    return starts;
  }

  std::string checkpoint_path() {
    return scratch_dir_ + "/portfolio-" + std::to_string(::getpid()) + "-" +
           std::to_string(queries_++) + ".ckpt";
  }

  void query(core::Evaluator& ev, core::ThreadPool& pool, bool traced,
             TracedObjectives& objectives, const System& sys,
             const std::string& ckpt, QueryOutcome& q) {
    const opt::DiscreteObjective objective =
        traced ? objectives.traced_objective() : objectives.objective;
    const opt::NeighborObjective neighbor =
        traced ? objectives.traced_neighbor() : objectives.neighbor;
    const opt::CheapFeasible cheap =
        traced ? objectives.traced_cheap() : objectives.cheap;
    {
      Span span("opt.search");
      q.ms = opt::hybrid_search_multistart(objective, cheap, q.starts, hopts_,
                                           &pool, neighbor);
    }
    opt::PortfolioOptions popts;
    popts.min_value = hopts_.min_value;
    popts.max_value = hopts_.max_value;
    popts.elimination_rounds = 2;
    popts.seed = sys.seed;
    popts.anneal.iterations = 32;
    popts.anneal.batch = 4;
    popts.genetic.population = 6;
    popts.genetic.generations = 4;
    popts.pattern.initial_step = 2;
    popts.anytime.checkpoint_path = ckpt;
    {
      Span span("opt.search");
      q.pf = opt::portfolio_search(objective, cheap, q.starts, popts, &pool,
                                   neighbor);
    }
    // Seed the interleaved search at the better periodic best.
    std::vector<int> best(sys.model.num_apps(), 1);
    if (q.pf.found_feasible &&
        (!q.ms.combined.found_feasible ||
         q.pf.best_value > q.ms.combined.best_value)) {
      best = q.pf.best;
    } else if (q.ms.combined.found_feasible) {
      best = q.ms.combined.best;
    }
    q.il_start = sched::InterleavedSchedule::from_periodic(
        sched::PeriodicSchedule(best));
    {
      Span span("core.interleaved_search");
      q.il = core::interleaved_search(ev, q.il_start, iopts_, &pool);
    }
  }

  void check(const System& sys, core::Evaluator& ev, const QueryOutcome& q,
             Checks& checks) {
    core::Evaluator serial(sys.model, sys.design, nullptr, ctx_);
    auto reproduces = [&](const std::vector<int>& point, double value) {
      const core::ScheduleEvaluation e =
          serial.evaluate(sched::PeriodicSchedule(point));
      return same_bits(e.pall, value) && e.feasible();
    };
    const std::string tag = "gen_search system " + std::to_string(sys.seed);
    if (q.ms.combined.found_feasible) {
      checks.require(reproduces(q.ms.combined.best, q.ms.combined.best_value),
                     tag + ": multistart best reproduces serially");
    }
    if (q.pf.found_feasible) {
      checks.require(reproduces(q.pf.best, q.pf.best_value),
                     tag + ": portfolio best reproduces serially");
    }
    checks.require(q.il.found, tag + ": interleaved search found a schedule");
    if (q.il.found) {
      const core::ScheduleEvaluation e = serial.evaluate(q.il.best);
      checks.require(same_bits(e.pall, q.il.best_evaluation.pall) &&
                         e.feasible() == q.il.best_evaluation.feasible(),
                     tag + ": interleaved best reproduces serially");
      const core::ScheduleEvaluation& start = ev.evaluate_cached(q.il_start);
      checks.require(q.il.best_evaluation.pall >= start.pall,
                     tag + ": interleaved best no worse than its start");
    }
  }

  /// Walk the accepted interleaved path again: at every step, derive the
  /// timing of each delta-representable neighbor from the step's pattern
  /// (the work the search's pre-filter does), and collect the path's
  /// evaluations for the design replay.
  void replay_interleaved_path(
      core::Evaluator& ev, const QueryOutcome& q, Checks& checks,
      std::vector<const core::ScheduleEvaluation*>* evaluations,
      std::map<std::string, double>& sum) {
    sched::InterleavedSchedule cur = q.il_start;
    for (std::size_t k = 0; k < q.il.path.size(); ++k) {
      const std::string key = cur.to_string();
      if (key != q.il.path[k]) {
        checks.require(false, "interleaved path replays through its moves");
        return;
      }
      evaluations->push_back(&ev.evaluate_cached(cur, key));
      if (k + 1 == q.il.path.size()) break;
      const sched::TimingPattern& pattern = ev.timing_pattern(cur, key);
      const std::vector<core::InterleavedNeighbor> nbs =
          core::interleaved_neighbor_moves(cur, iopts_);
      std::vector<bool> unchanged;
      const double t0 = wall_now();
      for (const core::InterleavedNeighbor& nb : nbs) {
        if (nb.move) {
          (void)ev.derive_neighbor_timing(pattern, *nb.move, &unchanged);
        } else if (nb.rotation) {
          (void)ev.derive_neighbor_timing(pattern, *nb.rotation, &unchanged);
        } else {
          continue;
        }
        sum["neighbor_timings"] += 1.0;
      }
      sum["neighbor_timing_s"] += wall_now() - t0;
      const auto next = std::find_if(
          nbs.begin(), nbs.end(), [&](const core::InterleavedNeighbor& nb) {
            return nb.schedule.to_string() == q.il.path[k + 1];
          });
      if (next == nbs.end()) {
        checks.require(false, "interleaved path replays through its moves");
        return;
      }
      cur = next->schedule;
    }
  }

  std::string scratch_dir_;
  std::vector<System> systems_;
  core::EvaluatorOptions ctx_;
  opt::HybridOptions hopts_;
  core::InterleavedSearchOptions iopts_;
  int queries_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_gen_search(std::uint64_t seed,
                                          const std::string& scratch_dir) {
  return std::make_unique<GenSearch>(seed, scratch_dir);
}

}  // namespace perfbench
