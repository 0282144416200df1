// gen_wcet_tables: large branchy generated systems whose full
// schedule-dependent WCET tables are materialized, once with first-miss
// (persistence) classification on — the pipeline default — and once
// through an analyzer built with it off. The cache layer is under 2% of
// both co-design workloads, so this is the workload where an
// abstract-interpretation change shows: it is all of the work here, and
// no controller design runs.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "cache/schedule_wcet.hpp"
#include "testgen/generator.hpp"
#include "testgen/rng.hpp"

namespace perfbench {
namespace {

namespace testgen = catsched::testgen;

constexpr int kSystems = 8;
constexpr std::size_t kApps = 8;
/// Generator seed of the fixed population (see GenWcetTables).
constexpr std::uint64_t kPopulationSeed = 20180319;

/// The FirstMiss::off analyzer over the same programs the system model
/// hands make_context_analyzer().
std::unique_ptr<cache::ScheduleWcetAnalyzer> fm_off_analyzer(
    const core::SystemModel& model) {
  std::vector<cache::StructuredProgram> programs;
  for (const core::Application& a : model.apps) {
    programs.push_back(a.has_structured()
                           ? a.structured
                           : cache::StructuredProgram{
                                 a.program.name,
                                 cache::Stmt::block(a.program.trace)});
  }
  return std::make_unique<cache::ScheduleWcetAnalyzer>(
      std::move(programs), model.cache_config, cache::FirstMiss::off);
}

/// The population is fixed: with system seeds drawn from the run's seed,
/// query_s moved by about 17% (quartile spread) from seed to seed. The
/// run's seed sets the order in which each app's masks are requested, as
/// a search would request them; the memo makes the total work the same.
class GenWcetTables final : public Workload {
public:
  explicit GenWcetTables(std::uint64_t seed) {
    testgen::GeneratorConfig gcfg;
    gcfg.min_apps = kApps;
    gcfg.max_apps = kApps;
    gcfg.set_choices = {128, 256};
    gcfg.way_choices = {2, 4, 8};
    gcfg.branchy_chance = 1.0;
    gcfg.min_branchy_loop_bound = 4;
    gcfg.max_branchy_loop_bound = 10;
    testgen::SplitMix64 rng(kPopulationSeed);
    for (int k = 0; k < kSystems; ++k) {
      models_.push_back(testgen::generate_system(gcfg, rng.next()).model);
    }
    testgen::SplitMix64 order(seed);
    for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << kApps); ++mask) {
      masks_.push_back(mask);
    }
    order.shuffle(masks_);
  }

  bool codesign() const override { return false; }

  Rep run(core::ThreadPool& pool, bool traced, Checks& checks) override {
    Rep rep;
    const std::size_t first_span = traced ? Tracer::active()->size() : 0;
    double analyze_s = 0.0;
    double build_s = 0.0;
    double requests = 0.0;
    // One system at a time keeps two analyzers alive, not the population's.
    for (std::size_t k = 0; k < models_.size(); ++k) {
      const core::SystemModel& model = models_[k];
      const double s0 = thread_cpu_now();
      {
        Span span("cache.analyze_wcets");
        (void)model.analyze_wcets();
      }
      const double s1 = thread_cpu_now();
      std::unique_ptr<cache::ScheduleWcetAnalyzer> on;
      {
        Span span("cache.make_context_analyzer");
        on = model.make_context_analyzer();
      }
      const double s2 = thread_cpu_now();
      rep.setup_s.push_back(s2 - s0);
      analyze_s += s1 - s0;
      build_s += s2 - s1;

      if (traced) Tracer::active()->begin_query();
      const double c0 = cpu_now();
      const double t0 = wall_now();
      std::unique_ptr<cache::ScheduleWcetAnalyzer> off;
      {
        Span span("cache.context_table_fm_off");
        off = fm_off_analyzer(model);
      }
      // Job j fills every mask of app j % apps, first-miss on for the first
      // `apps` jobs and off for the rest; the analyzer locks per app, so
      // the jobs run concurrently. full_table() then reads the memo.
      const std::size_t apps = model.num_apps();
      pool.parallel_for(2 * apps, 1, [&](std::size_t job) {
        const std::size_t app = job % apps;
        const bool fm_on = job < apps;
        Span span(fm_on ? "cache.context_table" : "cache.context_table_fm_off");
        const cache::ScheduleWcetAnalyzer& a = fm_on ? *on : *off;
        for (const std::uint64_t mask : masks_) {
          if (((mask >> app) & 1u) == 0) (void)a.analyze_context(app, mask);
        }
      });
      const sched::ContextWcetTable table = on->full_table();
      (void)off->full_table();
      rep.query_s += wall_now() - t0;
      rep.cpu_s += cpu_now() - c0;

      for (const cache::ScheduleWcetAnalyzer* a : {on.get(), off.get()}) {
        rep.analyses += static_cast<double>(a->stats().context_analyses);
        requests += static_cast<double>(a->stats().context_requests);
      }
      check(k, *on, *off, table, checks);
    }

    if (traced) {
      const std::vector<SpanRecord> spans =
          Tracer::active()->spans_since(first_span);
      const double table_s = span_seconds(spans, "cache.context_table");
      const double off_s = span_seconds(spans, "cache.context_table_fm_off");
      Metrics& l = rep.layers;
      l.emplace_back("cache.analyze_wcets_s", analyze_s);
      l.emplace_back("cache.context_build_s", build_s);
      l.emplace_back("cache.context_table_s", table_s);
      l.emplace_back("cache.context_table_fm_off_s", off_s);
      l.emplace_back("cache.context_analyses", rep.analyses);
      l.emplace_back("cache.us_per_context_analysis",
                     rep.analyses > 0 ? 1e6 * (table_s + off_s) / rep.analyses
                                      : 0.0);
      l.emplace_back("cache.context_hit_ratio",
                     requests > 0 ? 1.0 - rep.analyses / requests : 0.0);
    }
    return rep;
  }

private:
  /// One check per table entry: warm <= context <= cold with the raw
  /// analysis already in that order, first-miss on <= off, and mask 0 is
  /// the warm bound.
  void check(std::size_t k, const cache::ScheduleWcetAnalyzer& on,
             const cache::ScheduleWcetAnalyzer& off,
             const sched::ContextWcetTable& table, Checks& checks) const {
    const std::size_t apps = on.num_apps();
    int bad = 0;
    int entries = 0;
    for (std::size_t app = 0; app < apps; ++app) {
      const std::uint64_t warm = on.base(app).warm.wcet_cycles;
      const std::uint64_t cold = on.base(app).cold.wcet_cycles;
      for (const auto& [mask, seconds] : table.contexts[app]) {
        const cache::ContextWcet& c = on.analyze_context(app, mask);
        const cache::ContextWcet& c_off = off.analyze_context(app, mask);
        const bool ok = warm <= c.cycles && c.cycles <= cold &&
                        c.naturally_ordered && c.cycles <= c_off.cycles &&
                        seconds == c.seconds &&
                        (mask != 0 || c.cycles == warm);
        ++entries;
        bad += ok ? 0 : 1;
      }
    }
    checks.tally(entries, bad,
                 "gen_wcet_tables system " + std::to_string(k) +
                     ": context table entries out of order");
  }

  std::vector<core::SystemModel> models_;
  std::vector<std::uint64_t> masks_;  ///< every mask, in the run's order
};

}  // namespace

std::unique_ptr<Workload> make_gen_wcet_tables(std::uint64_t seed) {
  return std::make_unique<GenWcetTables>(seed);
}

}  // namespace perfbench
