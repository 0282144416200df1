#include "cache/schedule_wcet.hpp"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <stdexcept>
#include <utility>

namespace catsched::cache {

namespace {

void sort_unique(std::vector<std::uint64_t>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

void collect_lines(const Stmt& stmt, CacheFootprint& out,
                   const CacheConfig& config) {
  if (stmt.kind == Stmt::Kind::block) {
    for (const std::uint64_t line : stmt.lines) {
      out.lines_per_set[config.set_of(line)].push_back(line);
    }
    return;
  }
  for (const Stmt& child : stmt.children) collect_lines(child, out, config);
}

}  // namespace

std::size_t CacheFootprint::total_lines() const noexcept {
  std::size_t n = 0;
  for (const auto& set : lines_per_set) n += set.size();
  return n;
}

CacheFootprint compute_footprint(const Program& program,
                                 const CacheConfig& config) {
  CacheFootprint out;
  out.lines_per_set.resize(config.num_sets());
  for (const std::uint64_t line : program.trace) {
    out.lines_per_set[config.set_of(line)].push_back(line);
  }
  for (auto& set : out.lines_per_set) sort_unique(set);
  return out;
}

CacheFootprint compute_footprint(const Stmt& root, const CacheConfig& config) {
  CacheFootprint out;
  out.lines_per_set.resize(config.num_sets());
  collect_lines(root, out, config);
  for (auto& set : out.lines_per_set) sort_unique(set);
  return out;
}

void merge_footprint(CacheFootprint& into, const CacheFootprint& other) {
  if (into.lines_per_set.size() < other.lines_per_set.size()) {
    into.lines_per_set.resize(other.lines_per_set.size());
  }
  for (std::size_t s = 0; s < other.lines_per_set.size(); ++s) {
    if (other.lines_per_set[s].empty()) continue;
    std::vector<std::uint64_t>& mine = into.lines_per_set[s];
    mine.insert(mine.end(), other.lines_per_set[s].begin(),
                other.lines_per_set[s].end());
    sort_unique(mine);
  }
}

void age_through_interference(CachePair& state,
                              const CacheFootprint& footprint) {
  for (std::size_t s = 0; s < footprint.lines_per_set.size(); ++s) {
    const std::size_t d = footprint.lines_per_set[s].size();
    if (d == 0) continue;
    state.age_interference_set(s, static_cast<std::uint32_t>(
                                      std::min<std::size_t>(d, UINT32_MAX)));
  }
}

ScheduleWcetAnalyzer::ScheduleWcetAnalyzer(
    std::vector<StructuredProgram> programs, const CacheConfig& config,
    FirstMiss first_miss)
    : config_(config), first_miss_(first_miss) {
  if (programs.empty()) {
    throw std::invalid_argument("ScheduleWcetAnalyzer: no programs");
  }
  if (programs.size() > 64) {
    throw std::invalid_argument(
        "ScheduleWcetAnalyzer: more than 64 apps cannot be mask-encoded");
  }
  apps_.reserve(programs.size());
  for (StructuredProgram& p : programs) {
    auto st = std::make_unique<AppState>();
    st->program = std::move(p);
    st->steady = analyze_static_steady_wcet(st->program, config_, &st->memo,
                                            64, first_miss_);
    st->footprint = compute_footprint(st->program.root, config_);
    apps_.push_back(std::move(st));
  }
}

const StaticSteadyWcet& ScheduleWcetAnalyzer::base(std::size_t app) const {
  return apps_.at(app)->steady;
}

const CacheFootprint& ScheduleWcetAnalyzer::footprint(std::size_t app) const {
  return apps_.at(app)->footprint;
}

std::vector<sched::AppWcet> ScheduleWcetAnalyzer::app_wcets() const {
  std::vector<sched::AppWcet> out;
  out.reserve(apps_.size());
  for (const auto& st : apps_) {
    out.push_back(sched::AppWcet{st->steady.cold.wcet_seconds(config_),
                                 st->steady.warm.wcet_seconds(config_)});
  }
  return out;
}

const ContextWcet& ScheduleWcetAnalyzer::compute_context_locked(
    AppState& st, std::uint64_t mask) const {
  ++context_analyses_;
  ContextWcet out;
  if (mask == 0) {
    out.analysis = st.steady.warm;
    out.cycles = st.steady.warm.wcet_cycles;
    out.naturally_ordered = true;
  } else {
    // Entry derivation: the app's generic exit state aged through the
    // union footprint of every interfering app, then a full re-analysis
    // from that entry (memoized subtrees resolve through st.memo).
    CacheFootprint interference;
    for (std::size_t a = 0; a < apps_.size(); ++a) {
      if ((mask >> a) & 1u) merge_footprint(interference, apps_[a]->footprint);
    }
    CachePair entry = st.steady.generic_exit;
    age_through_interference(entry, interference);
    out.analysis = analyze_static_wcet(st.program, config_, entry, &st.memo,
                                       first_miss_);
    const std::uint64_t raw = out.analysis.wcet_cycles;
    const std::uint64_t warm = st.steady.warm.wcet_cycles;
    const std::uint64_t cold = st.steady.cold.wcet_cycles;
    out.naturally_ordered = raw >= warm && raw <= cold;
    out.cycles = std::min(std::max(raw, warm), cold);
  }
  out.seconds = static_cast<double>(out.cycles) * config_.cycle_seconds();
  return st.contexts.emplace(mask, std::move(out)).first->second;
}

const ContextWcet& ScheduleWcetAnalyzer::analyze_context(
    std::size_t app, std::uint64_t mask) const {
  if (app >= apps_.size()) {
    throw std::out_of_range("ScheduleWcetAnalyzer: app out of range");
  }
  // Canonical mask: the app's own bit never interferes (its own execution
  // refreshes, not evicts) and bits beyond the app count are meaningless.
  mask &= ~(std::uint64_t{1} << app);
  if (apps_.size() < 64) mask &= (std::uint64_t{1} << apps_.size()) - 1;

  ++context_requests_;
  AppState& st = *apps_[app];
  {
    // Hot path: memoized contexts resolve under the shared side, so
    // concurrent lookups (even of the same app) never serialize.
    std::shared_lock<std::shared_mutex> lock(st.mu);
    const auto it = st.contexts.find(mask);
    if (it != st.contexts.end()) return it->second;
  }
  std::unique_lock<std::shared_mutex> lock(st.mu);
  const auto it = st.contexts.find(mask);  // raced compute may have landed
  if (it != st.contexts.end()) return it->second;
  // References stay valid after the lock drops: unordered_map never
  // invalidates references on rehash, and entries are never erased.
  return compute_context_locked(st, mask);
}

double ScheduleWcetAnalyzer::context_wcet_seconds(std::size_t app,
                                                  std::uint64_t mask) const {
  return analyze_context(app, mask).seconds;
}

sched::ContextWcetTable ScheduleWcetAnalyzer::full_table() const {
  const std::size_t n = apps_.size();
  if (n > 12) {
    throw std::invalid_argument(
        "ScheduleWcetAnalyzer::full_table: 2^n masks explode beyond 12 apps "
        "(use the analyzer itself as the lazy ContextWcetLookup)");
  }
  sched::ContextWcetTable table;
  table.base = app_wcets();
  table.contexts.resize(n);
  const std::uint64_t all = std::uint64_t{1} << n;
  for (std::size_t app = 0; app < n; ++app) {
    for (std::uint64_t mask = 0; mask < all; ++mask) {
      if ((mask >> app) & 1u) continue;
      table.contexts[app][mask] = analyze_context(app, mask).seconds;
    }
  }
  return table;
}

ScheduleWcetAnalyzer::Stats ScheduleWcetAnalyzer::stats() const {
  return Stats{context_requests_.load(), context_analyses_.load()};
}

}  // namespace catsched::cache
