// perfbench_driver: one single-process, closed-loop client with one
// in-flight operation. Builds a workload's inputs from --seed (repeatedly,
// before and during the timed phase, for set-up time), drives dot::Solve /
// Advisor::Run for --seconds, checks every result and prints one JSON
// document of raw samples on stdout. run.py turns it into the benchmark's
// metrics.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    [--spans PATH]

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "common/simd_dispatch.h"
#include "families.h"
#include "ops.h"

namespace {

using perfbench::Family;
using perfbench::RunOutput;
using perfbench::Tracer;

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return 1;
}

/// Aggregate jiffies from /proc/stat: {steal, total}; zeros if unreadable.
std::pair<double, double> CpuStealJiffies() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return {0.0, 0.0};
  double v[8] = {};
  const int n = std::fscanf(f, "cpu %lf %lf %lf %lf %lf %lf %lf %lf", &v[0],
                            &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  if (n != 8) return {0.0, 0.0};
  double total = 0.0;
  for (double x : v) total += x;
  return {v[7], total};
}

/// The driver's own peak resident set: VmHWM of /proc/self/status.
/// getrusage's ru_maxrss is no substitute: after exec it starts from the
/// RSS of the process that forked the driver, here the Python wrapper,
/// which is larger than the driver's.
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) c = ' ';
    out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonArray(const std::vector<double>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i) out += ",";
    out += JsonNumber(v[i]);
  }
  return out + "]";
}

/// Set-ups before the timed phase; the timed phase adds about one a
/// second between its rounds.
constexpr size_t kSetupReps = 5;

int Usage(const char* why) {
  std::cerr << "perfbench_driver: " << why
            << "\nusage: perfbench_driver --workload NAME --seed N "
               "--seconds S --trace 0|1 [--spans PATH]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string spans_path;
  unsigned long long seed = 0;
  double seconds = -1;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atof(value);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("flags take one value each");
  const std::vector<std::string>& names = perfbench::WorkloadNames();
  if (std::find(names.begin(), names.end(), workload) == names.end()) {
    return Usage(("unknown workload '" + workload + "'").c_str());
  }
  if (seconds <= 0 || (trace != 0 && trace != 1)) {
    return Usage("--seconds > 0 and --trace 0|1 required");
  }

  const int nproc = Nproc();
  const int threads = perfbench::kEngineThreads;

  Tracer tracer(trace == 1);
  const char* kSetupLayers[][2] = {{"catalog.build", "catalog.build_ms"},
                                   {"workload.model_build",
                                    "workload.model_build_ms"},
                                   {"workload.profile", "workload.profile_ms"},
                                   {"fleet.generate", "fleet.generate_ms"},
                                   {"exec.trace_record",
                                    "exec.trace_record_ms"}};
  std::vector<double> setup_s;
  std::vector<std::vector<double>> setup_layer_ms(std::size(kSetupLayers));
  // Builds the workload's inputs once, timing it and its layer calls.
  auto set_up = [&]() {
    const size_t first_span = tracer.size();
    const auto t0 = std::chrono::steady_clock::now();
    std::unique_ptr<Family> f =
        perfbench::BuildFamily(workload, seed, &tracer);
    setup_s.push_back(std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count());
    for (size_t k = 0; k < std::size(kSetupLayers); ++k) {
      setup_layer_ms[k].push_back(
          tracer.SumSince(first_span, kSetupLayers[k][0]) / 1000.0);
    }
    return f;
  };
  std::unique_ptr<Family> family;
  for (size_t rep = 0; rep < kSetupReps; ++rep) {
    family.reset();
    family = set_up();
  }
  perfbench::ResolveBudgets(family.get(), seed);
  std::cerr << "perfbench_driver: " << workload << " seed " << seed
            << ": set up " << family->instances.size() << " instances, "
            << family->advisor.trace.events.size() << " advisor windows, "
            << family->fleet.tenants.size() << " fleet tenants x "
            << family->fleet.budgets.size() << " budget points\n";

  perfbench::Runner runner(family.get(), &tracer, seed);
  const auto steal0 = CpuStealJiffies();
  runner.RunTimed(seconds, [&set_up] { set_up(); });
  const auto steal1 = CpuStealJiffies();
  // Share of the box's CPU time the hypervisor took away while timing: on
  // a shared virtual machine it explains run-to-run latency swings.
  const double total = steal1.second - steal0.second;
  const double steal_frac =
      total > 0 ? (steal1.first - steal0.first) / total : 0.0;
  const double peak_rss_mb = PeakRssMb();
  RunOutput out = runner.Finish();
  if (tracer.enabled()) {
    for (size_t k = 0; k < std::size(kSetupLayers); ++k) {
      out.layer_samples[kSetupLayers[k][1]] = std::move(setup_layer_ms[k]);
    }
    if (!spans_path.empty() && !tracer.Write(spans_path)) {
      std::cerr << "perfbench_driver: cannot write " << spans_path << "\n";
      return 1;
    }
  }

  std::string json = "{";
  json += "\"env\":{\"workload\":" + JsonString(workload) +
          ",\"seed\":" + std::to_string(seed) +
          ",\"nproc\":" + std::to_string(nproc) +
          ",\"engine_threads\":" + std::to_string(threads) +
          ",\"kernel_level\":" +
          JsonString(dot::KernelLevelName(dot::ActiveKernelLevel())) +
          ",\"compiler\":" + JsonString(__VERSION__) +
          ",\"build_type\":" + JsonString(PERFBENCH_BUILD_TYPE) +
          ",\"trace\":" + std::to_string(trace) +
          ",\"cpu_steal\":" + JsonNumber(steal_frac) + "},";
  json += "\"setup_s\":" + JsonArray(setup_s) + ",";
  auto split = [](const std::vector<perfbench::Rounds::Best>& bests,
                  std::vector<double>* time_s, std::vector<double>* ops) {
    for (const perfbench::Rounds::Best& b : bests) {
      time_s->push_back(b.time_s);
      ops->push_back(b.ops);
    }
  };
  std::vector<double> fastest_s, fastest_ops, leanest_cpu_s, leanest_ops;
  split(out.rounds.fastest, &fastest_s, &fastest_ops);
  split(out.rounds.leanest, &leanest_cpu_s, &leanest_ops);
  json += "\"rounds\":{\"fastest_s\":" + JsonArray(fastest_s) +
          ",\"fastest_ops\":" + JsonArray(fastest_ops) +
          ",\"leanest_cpu_s\":" + JsonArray(leanest_cpu_s) +
          ",\"leanest_ops\":" + JsonArray(leanest_ops) + "},";
  json += "\"peak_rss_mb\":" + JsonNumber(peak_rss_mb) + ",";
  // Inputs never driven (re-plan kind: windows that did not re-plan) keep
  // the 0 they started with and are left out.
  auto bests = [](const perfbench::Latencies& l) {
    std::vector<double> ran;
    for (double ms : l.best_ms) {
      if (ms > 0.0) ran.push_back(ms);
    }
    return JsonArray(ran);
  };
  json += "\"best_ms\":{\"exact\":" + bests(out.exact) +
          ",\"heuristic\":" + bests(out.heuristic) +
          ",\"replan\":" + bests(out.replan) +
          ",\"fleet\":" + bests(out.fleet) + "},";
  json += "\"ops\":{\"exact\":" + std::to_string(out.exact.ops) +
          ",\"heuristic\":" + std::to_string(out.heuristic.ops) +
          ",\"replan\":" + std::to_string(out.replan.ops) +
          ",\"fleet\":" + std::to_string(out.fleet.ops) + "},";
  json += "\"attempted\":" + std::to_string(out.attempted) + ",";
  json += "\"failed\":" + std::to_string(out.failed) + ",";
  json += "\"failures\":[";
  for (size_t i = 0; i < out.failures.size(); ++i) {
    json += (i ? "," : "") + JsonString(out.failures[i]);
  }
  json += "],";
  json += "\"toc_vs_exact\":" + JsonNumber(out.toc_vs_exact) + ",";
  json += "\"toc_objective\":" + JsonNumber(out.toc_objective) + ",";
  json += "\"result_digest\":" + JsonString(out.digest) + ",";
  json += "\"layer_samples\":{";
  bool first = true;
  for (const auto& [name, samples] : out.layer_samples) {
    json += (first ? "" : ",") + JsonString(name) + ":" + JsonArray(samples);
    first = false;
  }
  json += "}}";
  std::cout << json << std::endl;
  return 0;
}
