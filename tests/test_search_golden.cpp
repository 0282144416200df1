/// \file test_search_golden.cpp
/// \brief Golden bit patterns of the searches: a lone hybrid_search,
///        hybrid_search_multistart, portfolio_search, interleaved_search
///        and exhaustive_codesign on real evaluators, compared as raw
///        IEEE-754 bits against digests recorded from the reference
///        implementation. No tolerances: a refactor of a search loop or
///        of the evaluator's neighbor path must leave every accepted path,
///        best point, Pall bit and evaluation count in place.
///
/// Coverage: the DATE'18 case study at a reduced PSO budget and eight
/// generated systems under fuzz_design_options(), each run serially and on
/// a 4-worker pool (the digests are thread-count invariant). The generated
/// systems are observed twice: on the binary cold/warm WCET model and on a
/// context-WCET evaluator, so both branches of the evaluator's neighbor
/// timing derivation are pinned (the context run covers the lone hybrid
/// walk, the interleaved search and the exhaustive scan; its race digests
/// stay 0). Only fields that are deterministic at every thread count
/// enter the digests: the multi-start per-run `new_evaluations` split
/// depends on which run wins a raced memo slot, so only its sum is pinned,
/// and which caller completes a shared schedule first decides whether it
/// counts as a neighbor evaluation, so that counter is left out.
///
/// On a mismatch the test prints the observed digests; re-recording them
/// is only legitimate for a change that is meant to alter search results.

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
#include "core/codesign.hpp"
#include "core/evaluator.hpp"
#include "core/interleaved_codesign.hpp"
#include "core/parallel.hpp"
#include "opt/discrete_search.hpp"
#include "opt/portfolio.hpp"
#include "testgen/generator.hpp"
#include "testgen/invariants.hpp"

namespace {

namespace control = catsched::control;
namespace core = catsched::core;
namespace opt = catsched::opt;
namespace testgen = catsched::testgen;

/// FNV-1a over 64-bit words.
class Digest {
public:
  void add(std::uint64_t w) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (w >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void add(int v) {
    add(static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
  }
  void add(bool v) { add(static_cast<std::uint64_t>(v)); }
  void add(double v) {
    std::uint64_t b = 0;
    std::memcpy(&b, &v, sizeof b);
    add(b);
  }
  void add(const std::vector<int>& p) {
    add(static_cast<std::uint64_t>(p.size()));
    for (int v : p) add(v);
  }
  void add(const std::vector<std::vector<int>>& path) {
    add(static_cast<std::uint64_t>(path.size()));
    for (const std::vector<int>& p : path) add(p);
  }
  void add(const std::string& s) {
    add(static_cast<std::uint64_t>(s.size()));
    for (const char c : s) {
      add(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
    }
  }
  std::uint64_t value() const { return h_; }

private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Best point, Pall bits, accepted path and step count of one hybrid run.
void add_walk(Digest& d, const opt::HybridResult& r) {
  d.add(r.found_feasible);
  d.add(r.best);
  d.add(r.best_value);
  d.add(r.path);
  d.add(r.steps);
}

struct Observed {
  std::uint64_t hybrid = 0;
  std::uint64_t multistart = 0;
  std::uint64_t portfolio = 0;
  std::uint64_t interleaved = 0;
  std::uint64_t exhaustive = 0;
  bool operator==(const Observed&) const = default;
};

struct Case {
  core::SystemModel model;
  control::DesignOptions design;
  std::vector<std::vector<int>> starts;
  opt::HybridOptions hybrid;
  std::uint64_t seed = 1;
  bool context_wcets = false;
};

opt::PortfolioOptions portfolio_options(const Case& c) {
  opt::PortfolioOptions p;
  p.tolerance = c.hybrid.tolerance;
  p.min_value = c.hybrid.min_value;
  p.max_value = c.hybrid.max_value;
  p.elimination_rounds = 2;
  p.seed = c.seed;
  p.anneal.iterations = 16;
  p.anneal.batch = 4;
  p.genetic.population = 6;
  p.genetic.generations = 3;
  p.pattern.initial_step = 2;
  return p;
}

Observed observe(const Case& c, std::size_t threads) {
  std::unique_ptr<core::ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<core::ThreadPool>(threads);
  core::EvaluatorOptions eopts;
  eopts.context_wcets = c.context_wcets;
  core::Evaluator ev(c.model, c.design, pool.get(), eopts);
  const opt::DiscreteObjective objective = core::make_objective(ev);
  const opt::NeighborObjective neighbor = core::make_neighbor_objective(ev);
  const opt::CheapFeasible cheap = core::make_cheap_feasible(ev);
  Observed o;

  opt::EvalCache cache(objective, neighbor);
  const opt::HybridResult hybrid = opt::hybrid_search(
      cache, cheap, c.starts.front(), c.hybrid, pool.get());
  {
    Digest d;
    add_walk(d, hybrid);
    d.add(hybrid.new_evaluations);
    o.hybrid = d.value();
  }
  // The races add nothing to the context-WCET run that the lone walk and
  // the interleaved search below do not already pin.
  if (!c.context_wcets) {
    const opt::MultiStartResult ms = opt::hybrid_search_multistart(
        objective, cheap, c.starts, c.hybrid, pool.get(), neighbor);
    Digest d;
    add_walk(d, ms.combined);
    d.add(static_cast<std::uint64_t>(ms.runs.size()));
    int new_sum = 0;
    for (const opt::HybridResult& r : ms.runs) {
      add_walk(d, r);
      new_sum += r.new_evaluations;
    }
    d.add(ms.unique_evaluations);
    d.add(new_sum);
    o.multistart = d.value();
  }
  if (!c.context_wcets) {
    const opt::PortfolioResult pf = opt::portfolio_search(
        objective, cheap, c.starts, portfolio_options(c), pool.get(),
        neighbor);
    Digest d;
    d.add(pf.found_feasible);
    d.add(pf.best);
    d.add(pf.best_value);
    d.add(pf.winner);
    d.add(pf.rounds);
    d.add(pf.new_evaluations);
    d.add(pf.unique_evaluations);
    d.add(static_cast<std::uint64_t>(pf.history.size()));
    for (const opt::PortfolioRound& h : pf.history) {
      d.add(h.round);
      d.add(h.live_strategies);
      d.add(h.unique_evaluations);
      d.add(h.incumbent_value);
      d.add(h.incumbent_found);
    }
    d.add(static_cast<std::uint64_t>(pf.strategies.size()));
    for (const opt::StrategyReport& s : pf.strategies) {
      d.add(s.name);
      d.add(s.best);
      d.add(s.best_value);
      d.add(s.found_feasible);
      d.add(s.rounds);
      d.add(s.proposals);
      d.add(s.eliminated);
    }
    o.portfolio = d.value();
  }
  {
    // Interleaved search from the hybrid walk's best, on the same
    // evaluator (as the co-design flow chains them), with small caps.
    core::InterleavedSearchOptions iopts;
    iopts.tolerance = c.hybrid.tolerance;
    iopts.max_steps = 3;
    iopts.max_segments = 5;
    iopts.max_burst = 4;
    const catsched::sched::InterleavedSchedule start =
        catsched::sched::InterleavedSchedule::from_periodic(
            catsched::sched::PeriodicSchedule(
                hybrid.found_feasible ? hybrid.best : c.starts.front()));
    const core::InterleavedSearchResult il =
        core::interleaved_search(ev, start, iopts, pool.get());
    Digest d;
    d.add(il.found);
    d.add(il.best.to_string());
    d.add(il.best_evaluation.pall);
    d.add(il.best_evaluation.feasible());
    d.add(static_cast<std::uint64_t>(il.path.size()));
    for (const std::string& key : il.path) d.add(key);
    d.add(il.steps);
    d.add(il.unique_evaluations);
    d.add(ev.designs_run());
    d.add(ev.schedule_evaluations());
    o.interleaved = d.value();
  }
  {
    // Exhaustive scan of the region the hybrid searches walk, last so the
    // evaluator counters in the interleaved digest stay its own.
    const core::ExhaustiveCodesignResult ex =
        core::exhaustive_codesign(ev, c.hybrid, pool.get());
    Digest d;
    d.add(ex.found);
    d.add(ex.best_schedule.to_string());
    d.add(ex.details.best);
    d.add(ex.details.best_value);
    d.add(ex.details.enumerated);
    d.add(ex.details.control_feasible);
    d.add(static_cast<std::uint64_t>(ex.details.all.size()));
    for (const auto& [point, out] : ex.details.all) {
      d.add(point);
      d.add(out.value);
      d.add(out.feasible);
    }
    d.add(ex.details.unique_evaluations);
    o.exhaustive = d.value();
  }
  return o;
}

struct Golden {
  const char* label;
  Observed digests;
};

void expect_golden(const Golden& g, const Case& c) {
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE(std::string(g.label) + ", " + std::to_string(threads) +
                 " threads");
    const Observed o = observe(c, threads);
    EXPECT_EQ(o.hybrid, g.digests.hybrid);
    EXPECT_EQ(o.multistart, g.digests.multistart);
    EXPECT_EQ(o.portfolio, g.digests.portfolio);
    EXPECT_EQ(o.interleaved, g.digests.interleaved);
    EXPECT_EQ(o.exhaustive, g.digests.exhaustive);
    if (!(o == g.digests)) {
      std::printf("    {\"%s\",\n     {0x%016llxull, 0x%016llxull, "
                  "0x%016llxull,\n      0x%016llxull, 0x%016llxull}},\n",
                  g.label, static_cast<unsigned long long>(o.hybrid),
                  static_cast<unsigned long long>(o.multistart),
                  static_cast<unsigned long long>(o.portfolio),
                  static_cast<unsigned long long>(o.interleaved),
                  static_cast<unsigned long long>(o.exhaustive));
    }
  }
}

TEST(SearchGolden, CaseStudyDigestsArePinned) {
  const Golden golden{
      "case study",
      {0x121f009096ab788bull, 0x6c9b4a86deef933eull, 0x2d8a0bbd8919128aull,
       0x68787dec7eef4e31ull, 0x66f459142b825d52ull}};
  Case c;
  c.model = core::date18_case_study();
  c.design = core::date18_design_options();
  c.design.pso.particles = 10;
  c.design.pso.iterations = 15;
  c.design.pso.stall_iterations = 6;
  c.design.pso_restarts = 1;
  c.design.scale_budget_with_dims = false;
  c.starts = {{4, 2, 2}, {1, 2, 1}};
  c.hybrid.max_value = 8;
  c.hybrid.tolerance = 0.005;
  expect_golden(golden, c);
}

/// Seed \p seed of the default generator, at the invariant harness's
/// design budget, on the binary or the context-WCET evaluator. The starts
/// are chosen on the binary model in both modes.
Case generated_case(std::uint64_t seed, bool context_wcets) {
  const testgen::GeneratedSystem sys =
      testgen::generate_system(testgen::GeneratorConfig{}, seed);
  Case c;
  c.model = sys.model;
  c.seed = seed;
  c.context_wcets = context_wcets;
  // Same per-system resolution cap as the invariant harness.
  c.design = testgen::fuzz_design_options();
  double max_smax = 0.0;
  for (const core::Application& a : sys.model.apps) {
    max_smax = std::max(max_smax, a.smax);
  }
  c.design.dense_dt = std::max(
      c.design.dense_dt,
      c.design.horizon_factor * max_smax /
          static_cast<double>(testgen::InvariantOptions{}.dense_steps));
  const std::size_t n = sys.model.apps.size();
  std::vector<int> alt(n, 1);
  for (std::size_t i = 1; i < n; i += 2) alt[i] = 3;
  c.starts = {std::vector<int>(n, 1)};
  if (core::Evaluator(sys.model, c.design)
          .idle_feasible(catsched::sched::PeriodicSchedule(alt))) {
    c.starts.push_back(alt);
  }
  c.hybrid.max_value = 3;
  c.hybrid.tolerance = 0.005;
  return c;
}

TEST(SearchGolden, GeneratedSystemDigestsArePinned) {
  const Golden golden[] = {
      {"seed 1",
       {0x05928b5ddde7f3e9ull, 0x2ca3c397bd771a56ull, 0x3b5d50dafeef4c04ull,
        0x80110821a9b3bd8bull, 0xab166c33739e4d41ull}},
      {"seed 2",
       {0x5d9e447a836eb047ull, 0x665ab6b6479720a8ull, 0xe1236d74c7353196ull,
        0x4cc67862ffcd3c6dull, 0xde38eeaa1f22d165ull}},
      {"seed 3",
       {0x62f22ef8ff6c07faull, 0x354182b86db62a65ull, 0xe5253ce4868ae17cull,
        0x2774ecbff6613557ull, 0x8b063f4476f3c09eull}},
      {"seed 4",
       {0x7dfbf6ca36739986ull, 0x0afeb337c6337f2bull, 0x0c88d7d0493520f8ull,
        0xd32f0be04555879aull, 0x46d8ea9bee7d218bull}},
      {"seed 5",
       {0x09378026188f016bull, 0xaebb373826cb8fb9ull, 0xcb03a0caf7bfcd3eull,
        0xdd8d7c10f823fba2ull, 0x82990ef4658faeebull}},
      {"seed 6",
       {0x0c105bdf3db466f5ull, 0x970b2d4457f5300cull, 0x4c57990f3882a0c5ull,
        0x0ac7296ab529b5f5ull, 0x609296f721a1de9dull}},
      {"seed 7",
       {0x4d835a7cf835be3aull, 0x780924183deacc7eull, 0x0856c4833e3362ebull,
        0x0efd95012f7c52a4ull, 0xcb74c90981469645ull}},
      {"seed 8",
       {0x219026386e760f3aull, 0xa1b6f9c29997c312ull, 0xd2b2457914b0eb46ull,
        0x08ace36cf42a5062ull, 0x700d54bb5df70cfaull}},
  };
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    expect_golden(golden[seed - 1], generated_case(seed, false));
  }
}

TEST(SearchGolden, GeneratedSystemContextWcetDigestsArePinned) {
  const Golden golden[] = {
      {"seed 1 (context WCETs)",
       {0xe1edc15856298affull, 0x0ull, 0x0ull,
        0xab81ebf361b65d30ull, 0xa04a7e3d1fad40f4ull}},
      {"seed 2 (context WCETs)",
       {0x75da2392e4512bc2ull, 0x0ull, 0x0ull,
        0xec99099ccc4253beull, 0xee5cc8f00e0c6343ull}},
      {"seed 3 (context WCETs)",
       {0x0ce50368fd7694ccull, 0x0ull, 0x0ull,
        0xa0db18f303f0b9eaull, 0xe253945b03615b3aull}},
      {"seed 4 (context WCETs)",
       {0x89efaec05b962cfbull, 0x0ull, 0x0ull,
        0x30a15b73c7b567b6ull, 0xfac2fbab6fd18fb6ull}},
      {"seed 5 (context WCETs)",
       {0xb79c033049a7cd69ull, 0x0ull, 0x0ull,
        0xa26de1a12f2838c4ull, 0xa16c7fc474446e96ull}},
      {"seed 6 (context WCETs)",
       {0xf27e1216e689a2b0ull, 0x0ull, 0x0ull,
        0xb9b5378c7c4532c7ull, 0xb08263636e3fb4a6ull}},
      {"seed 7 (context WCETs)",
       {0xe0217dea6272611aull, 0x0ull, 0x0ull,
        0xf1d10b05a84811b0ull, 0x739b24e945076a4full}},
      {"seed 8 (context WCETs)",
       {0x1fb109d6682a6265ull, 0x0ull, 0x0ull,
        0xd5eba795e3fe3468ull, 0x7b849e1a13a17bbaull}},
  };
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    expect_golden(golden[seed - 1], generated_case(seed, true));
  }
}

}  // namespace
