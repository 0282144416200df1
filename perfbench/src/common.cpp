#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <map>
#include <string>
#include <utility>

#include "bench.hpp"

namespace perfbench {

double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double thread_cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across
  // execve, so it would report the launching process's peak when that one
  // was larger.
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

void Checks::require(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::printf("CHECK FAILED: %s\n", what.c_str());
  }
}

void Checks::tally(int attempted, int failed, const std::string& what) {
  attempted_ += attempted;
  failed_ += failed;
  if (failed > 0) std::printf("CHECK FAILED (%d of %d): %s\n", failed, attempted, what.c_str());
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  for (const SpanRecord& s : spans_) {
    char line[256];
    std::snprintf(line, sizeof line,
                  "{\"name\":\"%s\",\"id\":%d,\"parent\":%d,\"query\":%d,"
                  "\"start\":%.9f,\"end\":%.9f}\n",
                  s.name, s.id, s.parent, s.query, s.start, s.end);
    out << line;
  }
  out.flush();
  return static_cast<bool>(out);
}

std::size_t span_count(const std::vector<SpanRecord>& spans, const char* name) {
  return static_cast<std::size_t>(
      std::count_if(spans.begin(), spans.end(), [&](const SpanRecord& s) {
        return std::strcmp(s.name, name) == 0;
      }));
}

double span_seconds(const std::vector<SpanRecord>& spans, const char* name) {
  double total = 0.0;
  for (const SpanRecord& s : spans) {
    if (std::strcmp(s.name, name) == 0) total += s.seconds();
  }
  return total;
}

double span_self_seconds(const std::vector<SpanRecord>& spans,
                         const char* parent,
                         const std::vector<std::string>& children) {
  std::map<int, const SpanRecord*> by_id;
  for (const SpanRecord& s : spans) by_id[s.id] = &s;
  // Nearest ancestor named `parent`, or -1.
  auto owner = [&](const SpanRecord& s) {
    for (int p = s.parent; p >= 0;) {
      const auto it = by_id.find(p);
      if (it == by_id.end()) return -1;
      if (std::strcmp(it->second->name, parent) == 0) return p;
      p = it->second->parent;
    }
    return -1;
  };
  std::map<int, std::vector<std::pair<double, double>>> covered;
  for (const SpanRecord& s : spans) {
    if (std::find(children.begin(), children.end(), s.name) == children.end()) {
      continue;
    }
    const int o = owner(s);
    if (o >= 0) covered[o].emplace_back(s.start, s.end);
  }
  double self = 0.0;
  for (const SpanRecord& s : spans) {
    if (std::strcmp(s.name, parent) != 0) continue;
    std::vector<std::pair<double, double>>& iv = covered[s.id];
    std::sort(iv.begin(), iv.end());
    double union_s = 0.0;
    double reach = s.start;
    for (const auto& [a, b] : iv) {
      const double lo = std::max(a, reach);
      const double hi = std::min(b, s.end);
      if (hi > lo) union_s += hi - lo;
      reach = std::max(reach, std::min(b, s.end));
    }
    self += s.seconds() - union_s;
  }
  return self;
}

void add_control_metrics(Metrics& out, const std::vector<DesignSource>& sources,
                         std::size_t replay_cap, Checks& checks) {
  double designs_run = 0.0;
  double requests = 0.0;
  double pso_evaluations = 0.0;
  double replay_s = 0.0;
  double replay_pso = 0.0;
  std::vector<double> design_ms;
  for (const DesignSource& src : sources) {
    designs_run += src.evaluator->designs_run();
    requests += src.evaluator->design_requests();
    // Distinct designs, keyed like the evaluator's memo.
    std::map<std::pair<std::size_t, std::vector<std::int64_t>>,
             std::pair<const std::vector<sched::Interval>*,
                       const core::AppEvaluation*>>
        designs;
    for (const core::ScheduleEvaluation* e : src.evaluations) {
      for (std::size_t a = 0; a < e->apps.size(); ++a) {
        designs.emplace(std::make_pair(a, e->apps[a].pattern_key),
                        std::make_pair(&e->timing.apps[a].intervals,
                                       &e->apps[a]));
      }
    }
    const std::size_t stride = std::max<std::size_t>(
        1, (designs.size() + replay_cap - 1) / replay_cap);
    std::size_t k = 0;
    for (const auto& [key, value] : designs) {
      const control::DesignResult& pooled = value.second->design;
      pso_evaluations += pooled.pso_evaluations;
      if (k++ % stride != 0) continue;
      const core::Application& a = src.evaluator->model().apps[key.first];
      control::DesignSpec spec;
      spec.plant = a.plant;
      spec.umax = a.umax;
      spec.r = a.r;
      spec.y0 = a.y0;
      spec.smax = a.smax;
      const double t0 = wall_now();
      const control::DesignResult r =
          control::design_controller(spec, *value.first, *src.design);
      const double dt = wall_now() - t0;
      design_ms.push_back(1e3 * dt);
      replay_s += dt;
      replay_pso += r.pso_evaluations;
      checks.require(same_bits(r.settling_time, pooled.settling_time) &&
                         r.pso_evaluations == pooled.pso_evaluations,
                     "serial design replay reproduces the pooled design");
    }
  }
  out.emplace_back("control.designs_run", designs_run);
  out.emplace_back("control.design_requests", requests);
  out.emplace_back("control.design_memo_hit_ratio",
                   requests > 0 ? (requests - designs_run) / requests : 0.0);
  out.emplace_back("control.pso_evaluations", pso_evaluations);
  out.emplace_back("control.design_ms_p50",
                   design_ms.empty() ? 0.0 : quantile(design_ms, 0.5));
  out.emplace_back("control.design_ms_p90",
                   design_ms.empty() ? 0.0 : quantile(design_ms, 0.9));
  out.emplace_back("control.particle_eval_us",
                   replay_pso > 0 ? 1e6 * replay_s / replay_pso : 0.0);
}

}  // namespace perfbench
