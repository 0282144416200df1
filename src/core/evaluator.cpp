#include "core/evaluator.hpp"

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cache/schedule_wcet.hpp"

namespace catsched::core {

namespace {

/// Largest magnitude (seconds) that survives the 1 ps quantization within
/// std::int64_t: 9e6 s * 1e12 = 9e18 < 2^63 - 1. Anything bigger (or
/// non-finite) would make std::llround undefined behavior.
constexpr double kMaxQuantizableSeconds = 9.0e6;

std::int64_t quantize_seconds(double v) {
  if (!std::isfinite(v) || std::abs(v) > kMaxQuantizableSeconds) {
    throw std::invalid_argument(
        "quantize_intervals: interval outside the quantizable range "
        "(non-finite or |t| > 9e6 s)");
  }
  return static_cast<std::int64_t>(std::llround(v * 1e12));
}

}  // namespace

std::vector<std::int64_t> quantize_intervals(
    const std::vector<sched::Interval>& intervals) {
  std::vector<std::int64_t> key;
  key.reserve(intervals.size() * 2);
  for (const auto& iv : intervals) {
    key.push_back(quantize_seconds(iv.h));
    key.push_back(quantize_seconds(iv.tau));
  }
  return key;
}

Evaluator::Evaluator(SystemModel model, control::DesignOptions design_opts,
                     ThreadPool* pool, EvaluatorOptions opts)
    : model_(std::move(model)), design_opts_(design_opts), pool_(pool),
      fault_(opts.fault) {
  model_.validate();
  if (opts.context_wcets) {
    // The analyzer's static cold/warm base replaces the simulator-derived
    // pair so every bound in the evaluator comes from one sound analysis
    // (they agree bit-for-bit on trace programs; gtest-enforced).
    context_ = model_.make_context_analyzer();
    wcets_ = context_->app_wcets();
  } else {
    wcets_ = model_.analyze_wcets();
  }
  tidle_ = model_.tidle_vector();
}

Evaluator::~Evaluator() = default;

sched::ScheduleTiming Evaluator::derive(const std::vector<std::size_t>& seq,
                                        std::size_t num_apps) const {
  return context_ ? sched::derive_timing(wcets_, *context_, seq, num_apps)
                  : sched::derive_timing(wcets_, seq, num_apps);
}

sched::ScheduleTiming Evaluator::derive_compared(
    const std::vector<std::size_t>& seq, const sched::ScheduleTiming& base,
    std::vector<bool>* app_unchanged) const {
  const std::size_t num_apps = base.apps.size();
  sched::ScheduleTiming timing = derive(seq, num_apps);
  if (app_unchanged != nullptr) {
    app_unchanged->resize(num_apps);
    for (std::size_t i = 0; i < num_apps; ++i) {
      (*app_unchanged)[i] = timing.apps[i].intervals == base.apps[i].intervals;
    }
  }
  return timing;
}

sched::ScheduleTiming Evaluator::derive_neighbor_timing(
    const sched::TimingPattern& base, const sched::TaskMove& move,
    std::vector<bool>* app_unchanged) const {
  return derive_compared(sched::apply_move(base.seq, move), base.timing,
                         app_unchanged);
}

sched::ScheduleTiming Evaluator::derive_neighbor_timing(
    const sched::TimingPattern& base, const sched::BlockRotation& rot,
    std::vector<bool>* app_unchanged) const {
  return derive_compared(sched::apply_rotation(base.seq, rot), base.timing,
                         app_unchanged);
}

bool Evaluator::idle_feasible(const sched::PeriodicSchedule& s) const {
  return idle_feasible(sched::InterleavedSchedule::from_periodic(s));
}

bool Evaluator::idle_feasible(const sched::InterleavedSchedule& s) const {
  return sched::idle_feasible(derive(s.task_sequence(), s.num_apps()),
                               tidle_);
}

AppEvaluation Evaluator::evaluate_app(
    std::size_t app, const std::vector<sched::Interval>& intervals,
    std::vector<std::int64_t> key) {
  ++design_requests_;
  const MemoKey memo_key{app, std::move(key)};
  // Compute-once: concurrent requests for the same timing pattern run the
  // expensive design exactly once and all observe the finished result.
  // An exceptional compute (a real failure or an injected one) does not
  // latch the once-flag, so the entry stays retryable — no memo poisoning.
  return memo_.get_or_compute(memo_key, [&] {
    if (fault_ != nullptr) fault_->on_evaluation();
    const Application& a = model_.apps[app];
    control::DesignSpec spec;
    spec.plant = a.plant;
    spec.umax = a.umax;
    spec.r = a.r;
    spec.y0 = a.y0;
    spec.smax = a.smax;

    AppEvaluation ev;
    ev.design = control::design_controller(spec, intervals, design_opts_, pool_);
    ++designs_run_;
    ev.settling_time = ev.design.settling_time;
    ev.performance = std::isfinite(ev.settling_time)
                         ? 1.0 - ev.settling_time / a.smax
                         : -std::numeric_limits<double>::infinity();
    ev.feasible = ev.design.feasible && ev.performance >= 0.0;
    // Fingerprint for anchored evaluations: neighbors whose quantized
    // pattern matches reuse this evaluation without a design-memo round
    // trip.
    ev.pattern_key = memo_key.second;
    ev.pattern_hash = VectorHash{}(memo_key.second);
    return ev;
  });
}

ScheduleEvaluation Evaluator::evaluate(const sched::PeriodicSchedule& s) {
  return evaluate(sched::InterleavedSchedule::from_periodic(s));
}

ScheduleEvaluation Evaluator::evaluate(const sched::InterleavedSchedule& s,
                                       const ScheduleEvaluation* base) {
  const std::size_t napps = model_.num_apps();
  if (base != nullptr &&
      (base->apps.size() != napps || base->timing.apps.size() != napps)) {
    base = nullptr;
  }
  return complete(derive(s.task_sequence(), s.num_apps()), base);
}

const ScheduleEvaluation& Evaluator::evaluate_cached(
    const sched::InterleavedSchedule& s) {
  return evaluate_cached(s, s.to_string());
}

const ScheduleEvaluation& Evaluator::evaluate_cached(
    const sched::InterleavedSchedule& s, const std::string& key,
    const ScheduleEvaluation* base) {
  return schedule_memo_.get_or_compute(key, [&] { return evaluate(s, base); });
}

const sched::TimingPattern& Evaluator::timing_pattern(
    const sched::InterleavedSchedule& s, const std::string& key) {
  return pattern_memo_.get_or_compute(key, [&] {
    std::vector<std::size_t> seq = s.task_sequence();
    sched::ScheduleTiming timing = derive(seq, s.num_apps());
    return sched::TimingPattern{std::move(seq), std::move(timing)};
  });
}

ScheduleEvaluation Evaluator::complete(sched::ScheduleTiming&& timing,
                                       const ScheduleEvaluation* base) {
  if (base != nullptr) ++neighbor_evaluations_;
  ScheduleEvaluation out;
  out.timing = std::move(timing);
  out.idle_feasible = sched::idle_feasible(out.timing, tidle_);
  const std::size_t napps = model_.num_apps();
  // Batched per-app designs: every app of this schedule lands in its own
  // index-addressed slot (fanned across pool_ when present; each design
  // additionally batches its PSO generations on the same pool), then Pall
  // is reduced serially in app order — bit-identical to the serial loop.
  // Reused apps cost a copy; the rest go through the per-app memo, so a
  // pattern shared with another schedule (or requested concurrently) is
  // still designed exactly once.
  std::vector<AppEvaluation> evs(napps);
  const auto body = [&](std::size_t i) {
    const std::vector<sched::Interval>& intervals = out.timing.apps[i].intervals;
    const AppEvaluation* prior = base != nullptr ? &base->apps[i] : nullptr;
    if (prior != nullptr && intervals == base->timing.apps[i].intervals) {
      // Interval list identical to the base schedule's: the quantized key
      // would match too, so skip re-quantization entirely.
      evs[i] = *prior;
      ++apps_reused_;
      return;
    }
    std::vector<std::int64_t> key = quantize_intervals(intervals);
    if (prior != nullptr && VectorHash{}(key) == prior->pattern_hash &&
        key == prior->pattern_key) {
      // Sub-picosecond drift only: same design problem as the base.
      evs[i] = *prior;
      ++apps_reused_;
      return;
    }
    evs[i] = evaluate_app(i, intervals, std::move(key));
  };
  // Inline serial loop: no std::function round trip on the hot
  // (memoized-design) path.
  if (pool_ == nullptr) {
    for (std::size_t i = 0; i < napps; ++i) body(i);
  } else {
    parallel_for(pool_, napps, body);
  }
  out.control_feasible = true;
  out.pall = 0.0;
  out.apps.reserve(napps);
  for (std::size_t i = 0; i < napps; ++i) {
    AppEvaluation& ev = evs[i];
    out.control_feasible = out.control_feasible && ev.feasible;
    if (std::isfinite(ev.performance)) {
      out.pall += model_.apps[i].weight * ev.performance;
    } else {
      out.pall = -std::numeric_limits<double>::infinity();
    }
    out.apps.push_back(std::move(ev));
  }
  return out;
}

}  // namespace catsched::core
