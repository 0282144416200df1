#include "opt/discrete_search.hpp"

#include <algorithm>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/snapshot.hpp"
#include "opt/portfolio.hpp"

namespace catsched::opt {

std::vector<std::uint8_t> encode_evaluation_table(const EvaluationTable& table) {
  core::SnapshotWriter w;
  w.put_u64(table.size());
  for (const auto& [point, out] : table) {
    w.put_int_vector(point);
    w.put_f64(out.value);
    w.put_u8(out.feasible ? 1 : 0);
  }
  return w.take();
}

EvaluationTable decode_evaluation_table(
    const std::vector<std::uint8_t>& payload) {
  core::SnapshotReader r(payload);
  // Smallest entry: empty point (8-byte count) + value + feasibility flag.
  const std::uint64_t count = r.get_count(8 + 8 + 1);
  EvaluationTable table;
  table.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    std::vector<int> point = r.get_int_vector();
    EvalOutcome out;
    out.value = r.get_f64();
    const std::uint8_t feasible = r.get_u8();
    if (feasible > 1) {
      throw core::SnapshotError(core::SnapshotErrc::bad_value,
                                "evaluation table feasibility flag not 0/1");
    }
    out.feasible = feasible == 1;
    table.emplace_back(std::move(point), out);
  }
  // Every byte belongs to an entry: a count that undercounts the entries
  // would otherwise drop the rest silently.
  if (r.remaining() != 0) {
    throw core::SnapshotError(core::SnapshotErrc::bad_value,
                              "evaluation table has bytes past its count");
  }
  return table;
}

const EvalOutcome& EvalCache::evaluate(const std::vector<int>& p,
                                       std::atomic<int>* misses) {
  bool computed = false;
  const EvalOutcome& out = cache_.get_or_compute(p, [&] {
    computed = true;
    return objective_(p);
  });
  if (computed) {
    if (misses != nullptr) misses->fetch_add(1);
    record(p, out);
  }
  return out;
}

const EvalOutcome& EvalCache::evaluate_neighbor_of(
    const std::vector<int>& base, const std::vector<int>& p,
    std::atomic<int>* misses) {
  if (!neighbor_) return evaluate(p, misses);
  bool computed = false;
  // The neighbor objective is bit-identical to the plain one (its
  // contract), so whichever path wins the memo slot stores the same value.
  const EvalOutcome& out = cache_.get_or_compute(p, [&] {
    computed = true;
    return neighbor_(base, p);
  });
  if (computed) {
    if (misses != nullptr) misses->fetch_add(1);
    record(p, out);
  }
  return out;
}

void EvalCache::enable_checkpoints(std::string path, int every,
                                   core::FaultPlan* fault) {
  std::lock_guard<std::mutex> lock(journal_mu_);
  if (!path_.empty()) return;  // first configuration wins
  path_ = std::move(path);
  every_ = every < 1 ? 1 : every;
  fault_ = fault;
}

bool EvalCache::try_resume(bool* used_fallback) {
  std::string path;
  {
    std::lock_guard<std::mutex> lock(journal_mu_);
    path = path_;
  }
  if (path.empty() || !core::snapshot_exists(path)) {
    if (used_fallback != nullptr) *used_fallback = false;
    return false;
  }
  const std::vector<std::uint8_t> payload = core::load_snapshot_file(
      path, core::kSnapshotKindEvaluationTable, used_fallback);
  preload(decode_evaluation_table(payload));
  return true;
}

void EvalCache::preload(const EvaluationTable& table) {
  for (const auto& [point, outcome] : table) {
    bool inserted = false;
    cache_.get_or_compute(point, [&] {
      inserted = true;
      return outcome;
    });
    if (inserted) {
      std::lock_guard<std::mutex> lock(journal_mu_);
      journal_.emplace_back(point, outcome);
      // Preloaded entries count as already saved — they came from disk.
      ++last_saved_;
    }
  }
}

void EvalCache::record(const std::vector<int>& p, const EvalOutcome& out) {
  std::lock_guard<std::mutex> lock(journal_mu_);
  journal_.emplace_back(p, out);
  if (!path_.empty() && journal_.size() - last_saved_ >=
                            static_cast<std::size_t>(every_)) {
    save_locked();
  }
}

void EvalCache::save_locked() {
  core::write_snapshot_file(path_, core::kSnapshotKindEvaluationTable,
                            encode_evaluation_table(journal_), fault_);
  last_saved_ = journal_.size();
  ++writes_;
}

void EvalCache::save_checkpoint() {
  std::lock_guard<std::mutex> lock(journal_mu_);
  if (path_.empty() || journal_.size() == last_saved_) return;
  save_locked();
}

int EvalCache::checkpoints_written() const {
  std::lock_guard<std::mutex> lock(journal_mu_);
  return writes_;
}

namespace {

/// One hybrid lane's outcome in HybridResult form.
HybridResult lane_result(const HybridDriver& lane, const StrategyReport& rep,
                         core::StopReason stop) {
  HybridResult r;
  r.best = lane.best();
  r.best_value = lane.best_value();
  r.found_feasible = lane.found_feasible();
  r.steps = lane.steps();
  r.new_evaluations = rep.new_evaluations;
  r.path = lane.path();
  r.telemetry.stop = stop;
  return r;
}

}  // namespace

HybridResult hybrid_search(EvalCache& cache, const CheapFeasible& cheap,
                           const std::vector<int>& start,
                           const HybridOptions& opts, core::ThreadPool* pool) {
  std::vector<std::unique_ptr<SearchDriver>> lane;
  lane.push_back(std::make_unique<HybridDriver>("hybrid", cheap, start, opts));
  // Round 0 evaluates the start, round k the neighborhood of step k.
  const PortfolioResult res = race(lane, cache, opts.max_steps + 1, 0,
                                   opts.anytime.budget, pool);
  return lane_result(static_cast<const HybridDriver&>(*lane.front()),
                     res.strategies.front(), res.telemetry.stop);
}

MultiStartResult hybrid_search_multistart(
    const DiscreteObjective& objective, const CheapFeasible& cheap,
    const std::vector<std::vector<int>>& starts, const HybridOptions& opts,
    core::ThreadPool* pool, const NeighborObjective& neighbor) {
  std::vector<std::unique_ptr<SearchDriver>> lanes;
  for (std::size_t i = 0; i < starts.size(); ++i) {
    lanes.push_back(std::make_unique<HybridDriver>(
        "hybrid:" + std::to_string(i), cheap, starts[i], opts));
  }
  // A resumed run replays every start to the bit-identical combined result
  // and unique-evaluation total; only the per-run `new_evaluations` split
  // shifts (preloaded points cost nobody).
  const PortfolioResult race_res = race_owned(
      lanes, objective, neighbor, opts.max_steps + 1, 0, opts.anytime, pool);
  MultiStartResult res;
  res.telemetry = race_res.telemetry;
  res.unique_evaluations = race_res.unique_evaluations;
  // Deterministic reduction: combine in start order.
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    res.runs.push_back(
        lane_result(static_cast<const HybridDriver&>(*lanes[i]),
                    race_res.strategies[i], race_res.telemetry.stop));
    const HybridResult& r = res.runs.back();
    if (r.found_feasible &&
        (!res.combined.found_feasible ||
         r.best_value > res.combined.best_value)) {
      res.combined = r;
    }
  }
  return res;
}

namespace {

void scan_rec(const CheapFeasible& cheap, int lo, int hi,
              std::vector<int>& p, std::size_t dim, bool& hit_boundary,
              std::vector<std::vector<int>>& out) {
  if (dim == p.size()) {
    if (cheap(p)) {
      out.push_back(p);
      for (int v : p) {
        if (v == hi) hit_boundary = true;
      }
    }
    return;
  }
  for (int v = lo; v <= hi; ++v) {
    p[dim] = v;
    scan_rec(cheap, lo, hi, p, dim + 1, hit_boundary, out);
  }
  p[dim] = lo;
}

/// The exhaustive scan as a race driver: round k proposes block k of the
/// enumerated region (enumeration order) and observes it into \p out's
/// table and counters; the best follows SearchDriver::note (strict >, so
/// the earliest of equal values wins).
class BlockScanDriver final : public SearchDriver {
 public:
  static constexpr std::size_t kBlock = 256;

  BlockScanDriver(std::vector<std::vector<int>> region, ExhaustiveResult& out)
      : SearchDriver("exhaustive"), region_(std::move(region)), out_(out) {
    out_.all.reserve(region_.size());
  }

  int blocks() const {
    return static_cast<int>((region_.size() + kBlock - 1) / kBlock);
  }

  void observe(const std::vector<std::vector<int>>& points,
               const std::vector<const EvalOutcome*>& outcomes) override {
    for (std::size_t k = 0; k < points.size(); ++k) {
      note(points[k], *outcomes[k]);
      ++out_.enumerated;
      if (outcomes[k]->feasible) ++out_.control_feasible;
      out_.all.emplace_back(points[k], *outcomes[k]);
    }
  }

 protected:
  std::vector<std::vector<int>> propose() override {
    const std::size_t begin = next_;
    next_ = std::min(begin + kBlock, region_.size());
    return {std::make_move_iterator(region_.begin() + begin),
            std::make_move_iterator(region_.begin() + next_)};
  }

 private:
  std::vector<std::vector<int>> region_;
  ExhaustiveResult& out_;
  std::size_t next_ = 0;
};

}  // namespace

std::vector<std::vector<int>> enumerate_feasible(const CheapFeasible& cheap,
                                                 std::size_t dims,
                                                 const HybridOptions& opts) {
  if (dims == 0) {
    throw std::invalid_argument("enumerate_feasible: dims == 0");
  }
  // The cache-aware feasible region is NOT downward-closed: raising m_i
  // from 1 to 2 swaps app i's idle-gap task from the cold to the warm WCET
  // and can make an infeasible point feasible (e.g. (2,6,1) infeasible but
  // (2,6,2) feasible in the DATE'18 case study). We therefore scan a
  // rectangle exactly, growing its side until no feasible point touches the
  // boundary (monotonicity *does* hold far from 1: for m_i >= 2 the app's
  // own h_max is constant in m_i while everyone else's grows).
  int hi = std::min(opts.max_value, std::max(opts.min_value + 7, 8));
  while (true) {
    std::vector<int> p(dims, opts.min_value);
    std::vector<std::vector<int>> out;
    bool hit_boundary = false;
    scan_rec(cheap, opts.min_value, hi, p, 0, hit_boundary, out);
    if (!hit_boundary || hi >= opts.max_value) return out;
    hi = std::min(opts.max_value, hi * 2);
  }
}

ExhaustiveResult exhaustive_search(const DiscreteObjective& objective,
                                   const CheapFeasible& cheap,
                                   std::size_t dims,
                                   const HybridOptions& opts,
                                   core::ThreadPool* pool) {
  // Enumerate serially (cheap), then race the scan alone: one block per
  // round, so a budget cut keeps whole blocks only.
  ExhaustiveResult res;
  auto driver = std::make_unique<BlockScanDriver>(
      enumerate_feasible(cheap, dims, opts), res);
  const int blocks = driver->blocks();
  std::vector<std::unique_ptr<SearchDriver>> scan;
  scan.push_back(std::move(driver));
  const PortfolioResult race_res =
      race_owned(scan, objective, nullptr, blocks, 0, opts.anytime, pool);
  res.found_feasible = scan.front()->found_feasible();
  res.best = scan.front()->best();
  res.best_value = scan.front()->best_value();
  res.telemetry = race_res.telemetry;
  res.unique_evaluations = race_res.unique_evaluations;
  return res;
}

}  // namespace catsched::opt
