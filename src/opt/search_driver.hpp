#pragma once
/// \file search_driver.hpp
/// \brief Proposal-batch step interface over the discrete schedule space:
///        the repo's metaheuristics (the paper's hybrid gradient walk, a
///        top-k beam variant of it, simulated annealing, a genetic
///        algorithm, and deterministic integer compass search) restated as
///        SearchDrivers that *propose* a batch of points per round and
///        *observe* their outcomes — never evaluating anything themselves.
///
/// opt::race (opt/portfolio.hpp) runs drivers against one shared EvalCache
/// and one ThreadPool. The propose/observe split is what makes the race
/// deterministic: a driver's next batch depends only on the outcomes it
/// has observed and its own seeded RNG (testgen::SplitMix64 —
/// platform-pinned, per the determinism policy), while all parallelism
/// lives in the race's per-round evaluation fan-out, whose results are
/// bit-identical at every thread count. Drivers therefore never see
/// thread timing.
///
/// Monotone-move note: stochastic drivers resample proposals through the
/// CheapFeasible filter, so the observed/RNG-consumed sequence is a pure
/// function of the filter and the outcomes — never of evaluation order.

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "opt/discrete_search.hpp"

namespace catsched::opt {

/// One racing strategy in proposal-batch form. Lifecycle per round:
///   1. `propose_batch()` — the points this strategy wants evaluated next
///      (in-bounds, cheap-feasible). An empty batch marks the driver
///      finished (converged / budget of its own exhausted).
///   2. The caller evaluates the batch (shared cache, any thread count).
///   3. `observe(points, outcomes)` — same order as proposed; the driver
///      updates its internal state and best-so-far.
/// Both calls are serial; subclasses keep all state unsynchronized.
class SearchDriver {
 public:
  explicit SearchDriver(std::string name) : name_(std::move(name)) {}
  virtual ~SearchDriver() = default;

  SearchDriver(const SearchDriver&) = delete;
  SearchDriver& operator=(const SearchDriver&) = delete;

  const std::string& name() const { return name_; }
  bool finished() const { return finished_; }
  bool found_feasible() const { return found_; }
  const std::vector<int>& best() const { return best_; }
  double best_value() const { return best_value_; }
  int proposals() const { return proposals_; }

  /// Next batch (empty once finished; finishing is latched).
  std::vector<std::vector<int>> propose_batch();

  /// Report outcomes for the batch just proposed, in proposal order; every
  /// pointer must be non-null (opt::race discards half-evaluated rounds
  /// before observing — see opt/portfolio.hpp).
  virtual void observe(const std::vector<std::vector<int>>& points,
                       const std::vector<const EvalOutcome*>& outcomes) = 0;

  /// Optional anchor: when every point of the next batch is a one-move
  /// neighbor of one base point (+-1 in one dimension for the drivers
  /// here), return it and the cache routes misses through the neighbor
  /// objective. Null = no common base.
  virtual const std::vector<int>* anchor() const { return nullptr; }

 protected:
  virtual std::vector<std::vector<int>> propose() = 0;

  /// Fold one outcome into the best-so-far (feasible points only).
  void note(const std::vector<int>& point, const EvalOutcome& out);
  void finish() { finished_ = true; }

  /// Shared walk ordering: infeasible points rank a full unit below their
  /// value so random walks can cross them but never prefer one.
  static double walk_value(const EvalOutcome& out) {
    return out.feasible ? out.value : out.value - 1.0;
  }

 private:
  std::string name_;
  bool finished_ = false;
  bool found_ = false;
  std::vector<int> best_;
  double best_value_ = 0.0;
  int proposals_ = 0;
};

/// The paper's hybrid gradient walk (Sec. IV): round 0 evaluates the
/// start, every later round the +-1 neighborhood of the current point; the
/// per-dimension quadratic models rank the moves and the first unvisited,
/// feasible, within-tolerance target is taken. hybrid_search is one of
/// these raced alone, multi-start one per start, and the portfolio races
/// one per start among the other strategies. opts.anytime is ignored: the
/// race owns the budget.
class HybridDriver final : public SearchDriver {
 public:
  /// \throws std::invalid_argument if start is empty, out of bounds, or
  ///         cheap-infeasible.
  HybridDriver(std::string name, CheapFeasible cheap, std::vector<int> start,
               const HybridOptions& opts);

  const std::vector<int>* anchor() const override {
    return seeded_ ? &cur_ : nullptr;
  }
  void observe(const std::vector<std::vector<int>>& points,
               const std::vector<const EvalOutcome*>& outcomes) override;
  /// Accepted points, start first (empty until the start is observed).
  const std::vector<std::vector<int>>& path() const { return path_; }
  int steps() const { return steps_; }  ///< accepted moves

 protected:
  std::vector<std::vector<int>> propose() override;

 private:
  struct Pending {
    std::size_t dim;
    int dir;
  };

  CheapFeasible cheap_;
  HybridOptions opts_;
  std::vector<int> cur_;
  EvalOutcome cur_out_;
  bool seeded_ = false;
  int steps_ = 0;
  std::vector<std::vector<int>> path_;
  std::vector<Pending> pending_;
  std::unordered_set<std::vector<int>, core::VectorHash> visited_;
};

/// The beam (move-ordering) variant of the hybrid walk.
struct BeamDriverOptions {
  double tolerance = 0.0;  ///< accept a round losing at most this much
  int min_value = 1;
  int max_value = 64;
};

/// Beam search over the +-1 move graph: each round expands the top-3
/// unvisited neighbors of the whole beam (not only the argmax), ranked by
/// walk_value with proposal order breaking ties. Finishes when the best
/// candidate falls more than `tolerance` below the best beam member, or
/// after 200 rounds.
std::unique_ptr<SearchDriver> make_beam_driver(std::string name,
                                               CheapFeasible cheap,
                                               std::vector<int> start,
                                               const BeamDriverOptions& opts);

/// Batch-synchronous simulated annealing.
struct AnnealDriverOptions {
  int iterations = 400;               ///< total proposals across all rounds
  int batch = 8;                      ///< proposals per round
  int min_value = 1;
  int max_value = 64;
  std::uint64_t seed = 1;
};

/// SA adapted to rounds: each round proposes `batch` independent +-1 moves
/// from the current point (up to 32 resamples each to find a cheap-feasible
/// one); observation scans them in order and the FIRST accepted move
/// (improvements always, losses with probability exp(delta/T) on
/// walk_value) becomes the new current point — the rest of the round only
/// feeds best-tracking. T starts at 0.05 in objective units (Pall ~ 0..1)
/// and shrinks by a factor 0.97 per proposal. RNG is SplitMix64.
std::unique_ptr<SearchDriver> make_anneal_driver(
    std::string name, CheapFeasible cheap, std::vector<int> start,
    const AnnealDriverOptions& opts);

/// Generational GA (one generation = one round).
struct GeneticDriverOptions {
  int population = 12;
  int generations = 15;
  int min_value = 1;
  int max_value = 64;
  std::uint64_t seed = 1;
};

/// GA in driver form: a round proposes the current population, observation
/// assigns walk_value fitness and breeds the next generation (best-of-3
/// parent selection, uniform crossover at rate 0.9, per-gene +-1
/// mutation at rate 0.3 with up to 32 cheap-feasibility repair draws, the
/// 2 best copied unchanged). Half the initial population is biased low
/// (genes in [min, min+3]); all randomness is SplitMix64. The all-min point
/// (cheap-feasible whenever anything is — the filter is monotone)
/// backstops failed initial draws.
/// \throws std::invalid_argument if dims == 0 or population < 2.
std::unique_ptr<SearchDriver> make_genetic_driver(
    std::string name, CheapFeasible cheap, std::size_t dims,
    const GeneticDriverOptions& opts);

/// Deterministic integer compass (pattern) search.
struct PatternDriverOptions {
  int initial_step = 4;  ///< starting +-h per-dimension step
  int min_value = 1;
  int max_value = 64;
};

/// Integer compass search: each round proposes cur +- h*e_i for every
/// dimension; the best strictly-improving candidate (walk_value) becomes
/// the new point, otherwise h halves; h < 1 (or 200 rounds) finishes. No RNG at all — the
/// portfolio's only fully deterministic stochastic-free strategy, a
/// discrete restatement of opt/pattern_search.hpp.
std::unique_ptr<SearchDriver> make_pattern_driver(
    std::string name, CheapFeasible cheap, std::vector<int> start,
    const PatternDriverOptions& opts);

}  // namespace catsched::opt
