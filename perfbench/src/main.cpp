// End-to-end benchmark program for libcatsched.
//
//   perfbench --workload <date18_exhaustive|gen_search|gen_wcet_tables>
//             --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//
// Builds the workload's inputs from the seed, runs one discarded warm-up
// repetition, then repeats the workload's queries until --seconds have
// passed and reports medians over the repetitions. Every answer is
// checked; the last line of stdout is one JSON object with the check tally
// and the metrics. --trace 0 reports the end-to-end metrics (no spans are
// recorded); --trace 1 alternates traced and untraced repetitions and
// reports the per-layer metrics, the tracing overhead, and writes the
// spans to <out>/trace-<workload>-<seed>.jsonl when the run ends.
// Exits 1 when any check failed, 2 on a usage error.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"

using namespace perfbench;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out = ".bench_build/perfbench-out";
};

/// The end-to-end metrics the final JSON line carries with --trace 0: the
/// ones every workload reports and that stay steady from run to run on a
/// shared 4-vCPU virtual machine. query_s is printed but left out: steal
/// time from other tenants (measured at up to 44% of all CPU time) moved
/// it by up to 20% (quartile spread over ten runs), while cpu_s moved by
/// at most 7%.
const char* const kJsonEndToEnd[] = {"setup_s", "cpu_s", "peak_rss_mb"};

/// Every per-layer metric with its unit, in report order; a workload that
/// records no span or counter for one reports 0 for it.
const std::pair<const char*, const char*> kLayerMetrics[] = {
    {"control.designs_run", "count"},
    {"control.design_requests", "count"},
    {"control.design_memo_hit_ratio", "ratio"},
    {"control.pso_evaluations", "count"},
    {"control.design_ms_p50", "ms"},
    {"control.design_ms_p90", "ms"},
    {"control.particle_eval_us", "us"},
    {"cache.analyze_wcets_s", "s"},
    {"cache.context_build_s", "s"},
    {"cache.context_table_s", "s"},
    {"cache.context_table_fm_off_s", "s"},
    {"cache.context_analyses", "count"},
    {"cache.us_per_context_analysis", "us"},
    {"cache.context_hit_ratio", "ratio"},
    {"core.evaluate_calls", "count"},
    {"core.evaluate_s", "s"},
    {"core.neighbor_evaluations", "count"},
    {"core.apps_reused", "count"},
    {"core.schedule_memo_size", "count"},
    {"opt.search_self_s", "s"},
    {"opt.proposals", "count"},
    {"opt.useful_ratio", "ratio"},
    {"opt.rounds", "count"},
    {"opt.evals_to_final_best", "count"},
    {"opt.interleaved_steps", "count"},
    {"sched.cheap_feasible_calls", "count"},
    {"sched.cheap_feasible_s", "s"},
    {"sched.neighbor_timing_us", "us"},
    {"pool.cpu_util", "ratio"},
    {"pool.idle_core_s", "s"},
    {"snapshot.checkpoints_written", "count"},
    {"snapshot.bytes", "bytes"},
    {"trace.overhead_ratio", "ratio"}};

const std::pair<const char*, const char*> kEndToEndUnits[] = {
    {"setup_s", "s"},          {"query_s", "s"},
    {"cpu_s", "s"},            {"evals_per_s", "1/s"},
    {"analyses_per_s", "1/s"}, {"unique_evals", "count"},
    {"best_pall_mean", "Pall"}, {"peak_rss_mb", "MiB"},
    {"failed_frac", "ratio"}};

std::string unit_of(const std::string& name) {
  for (const auto& [n, unit] : kLayerMetrics) {
    if (name == n) return unit;
  }
  for (const auto& [n, unit] : kEndToEndUnits) {
    if (name == n) return unit;
  }
  return "?";
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<date18_exhaustive|gen_search|gen_wcet_tables> --seed <n> "
               "--seconds <s> --trace <0|1> [--out <dir>]\n",
               msg);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value after " + key).c_str());
    const std::string val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      have_seed = end != val.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      have_seconds = end != val.c_str() && *end == '\0' && a.seconds > 0.0 &&
                     a.seconds <= 600.0;
    } else if (key == "--trace") {
      have_trace = val == "0" || val == "1";
      a.trace = val == "1";
    } else if (key == "--out") {
      a.out = val;
    } else {
      usage(("unknown argument " + key).c_str());
    }
  }
  if (a.workload.empty() || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds (0 < s <= 600) and --trace 0|1 "
          "are required");
  }
  return a;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Fixed single-threaded floating-point kernel; its time tells a machine
/// change apart from a code change. Median of five runs, in ms.
double calibration_ms() {
  std::vector<double> ms;
  volatile double sink = 0.0;
  for (int run = 0; run < 5; ++run) {
    const double t0 = wall_now();
    double x = 0.5;
    double acc = 0.0;
    for (int i = 0; i < 4000000; ++i) {
      x = 3.9 * x * (1.0 - x);  // logistic map: a dependent FP chain
      acc += std::sqrt(x + 1.0);
    }
    sink = sink + acc;
    ms.push_back(1e3 * (wall_now() - t0));
  }
  return median(ms);
}

void print_metric(const std::string& name, double value) {
  std::printf("  %-32s %18.6f %s\n", name.c_str(), value, unit_of(name).c_str());
}

std::string json_metrics(const Metrics& m) {
  std::string out = "{";
  for (std::size_t i = 0; i < m.size(); ++i) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m[i].first.c_str(), m[i].second,
                  unit_of(m[i].first).c_str());
    out += buf;
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  std::unique_ptr<Workload> workload;
  const double g0 = wall_now();
  std::error_code ec;
  std::filesystem::create_directories(args.out, ec);
  if (ec) usage(("cannot create " + args.out).c_str());
  if (args.workload == "date18_exhaustive") {
    workload = make_date18_exhaustive(args.seed);
  } else if (args.workload == "gen_search") {
    workload = make_gen_search(args.seed, args.out);
  } else if (args.workload == "gen_wcet_tables") {
    workload = make_gen_wcet_tables(args.seed);
  } else {
    usage(("unknown workload " + args.workload).c_str());
  }
  const double generate_s = wall_now() - g0;

  std::printf("== perfbench %s seed=%llu seconds=%g trace=%d ==\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("compiler:      %s\n", PERFBENCH_COMPILER);
  std::printf("build flags:   %s\n", PERFBENCH_FLAGS);
  std::printf("nproc:         %zu\n", core::hardware_threads());
  std::printf("cpu model:     %s\n", cpu_model().c_str());
  std::printf("threads:       %zu pool workers + the calling thread\n",
              kPoolWorkers);
  std::printf("calibration:   %.3f ms (fixed serial FP kernel)\n",
              calibration_ms());
  std::printf("input gen:     %.3f s (not measured)\n", generate_s);

  Tracer tracer;
  Checks checks;
  core::ThreadPool pool(kPoolWorkers);
  Span::mark_issuing_thread();

  // The first repetition in a process runs measurably slower than later
  // ones; its times are discarded.
  workload->warm_up(pool, checks);

  // Repeat until another repetition would overrun --seconds (at least one
  // repetition, and with --trace 1 at least one traced and one untraced).
  std::vector<Rep> plain;
  std::vector<Rep> traced;
  const double m0 = wall_now();
  for (int i = 0;; ++i) {
    const bool trace_this = args.trace && i % 2 == 0;
    const double r0 = wall_now();
    if (trace_this) Tracer::active() = &tracer;
    Rep rep = workload->run(pool, trace_this, checks);
    Tracer::active() = nullptr;
    std::printf("repetition %d%s: query_s %.6f  cpu_s %.6f\n", i,
                trace_this ? " (traced)" : "", rep.query_s, rep.cpu_s);
    (trace_this ? traced : plain).push_back(std::move(rep));
    const double now = wall_now();
    const bool enough = !plain.empty() && (!args.trace || !traced.empty());
    if (enough && now - m0 + (now - r0) > args.seconds) break;
  }

  auto med = [](const std::vector<Rep>& reps, auto field) {
    std::vector<double> v;
    for (const Rep& r : reps) v.push_back(field(r));
    return median(v);
  };
  std::vector<double> setups;
  for (const Rep& r : plain) {
    setups.insert(setups.end(), r.setup_s.begin(), r.setup_s.end());
  }
  const double query_s = med(plain, [](const Rep& r) { return r.query_s; });
  const double failed_frac =
      checks.attempted() > 0
          ? static_cast<double>(checks.failed()) / checks.attempted()
          : 1.0;

  Metrics e2e;
  e2e.emplace_back("setup_s", median(setups));
  e2e.emplace_back("query_s", query_s);
  e2e.emplace_back("cpu_s", med(plain, [](const Rep& r) { return r.cpu_s; }));
  if (workload->codesign()) {
    e2e.emplace_back("evals_per_s", med(plain, [](const Rep& r) {
                       return r.unique_evals / r.query_s;
                     }));
    e2e.emplace_back("unique_evals",
                     med(plain, [](const Rep& r) { return r.unique_evals; }));
    e2e.emplace_back("best_pall_mean",
                     med(plain, [](const Rep& r) { return r.best_pall_mean; }));
  } else {
    e2e.emplace_back("analyses_per_s", med(plain, [](const Rep& r) {
                       return r.analyses / r.query_s;
                     }));
  }
  e2e.emplace_back("peak_rss_mb", peak_rss_mb());
  e2e.emplace_back("failed_frac", failed_frac);

  std::printf("\nend-to-end (untraced, median of %zu repetitions, %zu set-ups):\n",
              plain.size(), setups.size());
  for (const auto& [name, value] : e2e) print_metric(name, value);

  Metrics json;
  if (!args.trace) {
    for (const char* name : kJsonEndToEnd) {
      for (const auto& [n, v] : e2e) {
        if (n == name) json.emplace_back(n, v);
      }
    }
  } else {
    // Per-layer medians over the traced repetitions. Pool utilization comes
    // from each traced repetition's own wall and CPU time, the tracing
    // overhead from its query_s against the untraced median.
    const double threads = static_cast<double>(kPoolWorkers + 1);
    for (Rep& r : traced) {
      r.layers.emplace_back("pool.cpu_util", r.cpu_s / (r.query_s * threads));
      r.layers.emplace_back("pool.idle_core_s", r.query_s * threads - r.cpu_s);
      r.layers.emplace_back("trace.overhead_ratio", r.query_s / query_s);
    }
    for (const auto& layer : kLayerMetrics) {
      std::vector<double> v;
      for (const Rep& r : traced) {
        for (const auto& [n, x] : r.layers) {
          if (n == layer.first) v.push_back(x);
        }
      }
      json.emplace_back(layer.first, v.empty() ? 0.0 : median(v));
    }
    std::printf("\nper-layer (traced, median of %zu repetitions; 0 = not "
                "recorded on this workload):\n",
                traced.size());
    for (const auto& [name, value] : json) print_metric(name, value);
    std::printf("tracing overhead: traced query_s %.6f s vs untraced %.6f s\n",
                med(traced, [](const Rep& r) { return r.query_s; }), query_s);
    const std::string path = args.out + "/trace-" + args.workload + "-" +
                             std::to_string(args.seed) + ".jsonl";
    if (!tracer.write_jsonl(path)) {
      checks.require(false, "trace file " + path + " written");
    } else {
      std::printf("spans:         %zu written to %s\n", tracer.size(),
                  path.c_str());
    }
  }

  std::printf("checks:        %d attempted, %d failed\n", checks.attempted(),
              checks.failed());
  const bool correct = checks.failed() == 0;
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", checks.attempted(), checks.failed(),
              json_metrics(json).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
