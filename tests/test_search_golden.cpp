/// \file test_search_golden.cpp
/// \brief Golden bit patterns of the integer-vector searches: a lone
///        hybrid_search, hybrid_search_multistart and portfolio_search on
///        real evaluators, compared as raw IEEE-754 bits against digests
///        recorded from the reference implementation. No tolerances: a
///        refactor of the search loop must leave every accepted path, best
///        point, Pall bit and evaluation count in place.
///
/// Coverage: the DATE'18 case study at a reduced PSO budget and eight
/// generated systems under fuzz_design_options(), each run serially and on
/// a 4-worker pool (the digests are thread-count invariant). Only fields
/// that are deterministic at every thread count enter the digests: the
/// multi-start per-run `new_evaluations` split depends on which run wins a
/// raced memo slot, so only its sum is pinned.
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
  bool operator==(const Observed&) const = default;
};

struct Case {
  core::SystemModel model;
  control::DesignOptions design;
  std::vector<std::vector<int>> starts;
  opt::HybridOptions hybrid;
  std::uint64_t seed = 1;
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
  core::Evaluator ev(c.model, c.design, pool.get());
  const opt::DiscreteObjective objective = core::make_objective(ev);
  const opt::NeighborObjective neighbor = core::make_neighbor_objective(ev);
  const opt::CheapFeasible cheap = core::make_cheap_feasible(ev);
  Observed o;

  {
    opt::EvalCache cache(objective, neighbor);
    const opt::HybridResult r = opt::hybrid_search(
        cache, cheap, c.starts.front(), c.hybrid, pool.get());
    Digest d;
    add_walk(d, r);
    d.add(r.new_evaluations);
    o.hybrid = d.value();
  }
  {
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
  {
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
    if (!(o == g.digests)) {
      std::printf("    {\"%s\", {0x%016llxull, 0x%016llxull, 0x%016llxull}},\n",
                  g.label, static_cast<unsigned long long>(o.hybrid),
                  static_cast<unsigned long long>(o.multistart),
                  static_cast<unsigned long long>(o.portfolio));
    }
  }
}

TEST(SearchGolden, CaseStudyDigestsArePinned) {
  const Golden golden{
      "case study",
      {0x121f009096ab788bull, 0x6c9b4a86deef933eull, 0x2d8a0bbd8919128aull}};
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

TEST(SearchGolden, GeneratedSystemDigestsArePinned) {
  const Golden golden[] = {
      {"seed 1",
       {0x05928b5ddde7f3e9ull, 0x2ca3c397bd771a56ull, 0x3b5d50dafeef4c04ull}},
      {"seed 2",
       {0x5d9e447a836eb047ull, 0x665ab6b6479720a8ull, 0xe1236d74c7353196ull}},
      {"seed 3",
       {0x62f22ef8ff6c07faull, 0x354182b86db62a65ull, 0xe5253ce4868ae17cull}},
      {"seed 4",
       {0x7dfbf6ca36739986ull, 0x0afeb337c6337f2bull, 0x0c88d7d0493520f8ull}},
      {"seed 5",
       {0x09378026188f016bull, 0xaebb373826cb8fb9ull, 0xcb03a0caf7bfcd3eull}},
      {"seed 6",
       {0x0c105bdf3db466f5ull, 0x970b2d4457f5300cull, 0x4c57990f3882a0c5ull}},
      {"seed 7",
       {0x4d835a7cf835be3aull, 0x780924183deacc7eull, 0x0856c4833e3362ebull}},
      {"seed 8",
       {0x219026386e760f3aull, 0xa1b6f9c29997c312ull, 0xd2b2457914b0eb46ull}},
  };
  const testgen::GeneratorConfig config;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const testgen::GeneratedSystem sys = testgen::generate_system(config, seed);
    Case c;
    c.model = sys.model;
    c.seed = seed;
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
    expect_golden(golden[seed - 1], c);
  }
}

}  // namespace
