// Robust vs point-forecast planning under workload uncertainty
// (DESIGN.md §10): the same TPC-H instance is planned twice — once from
// the nominal forecast alone, once over a sampled scenario ensemble with a
// tail-latency target — and both layouts are then priced on *out-of-sample*
// noisy traces the planner never saw. Sweeping the forecast-error scale
// crosses the regimes: at low noise the two plans coincide (robustness is
// free); as the error grows the point plan's layout starts missing its
// caps in bad windows while the robust plan, which already paid for the
// miss mass it sampled, keeps its realized TOC and its tail compliance.
//
// The tail-SLA arm is calibrated, not assumed: the per-window latency cv
// is measured from jittered Executor runs (CalibrateLatencyCv) and folded
// into the robust plan's caps via the lognormal tail factor.
//
// Realized cost uses the SLA-credit accounting standard for provisioning
// under service contracts: a window pays its measured TOC x duration
// *plus* a credit proportional to the fraction of queries that missed
// their caps in that window. Raw TOC alone cannot price robustness — a
// layout that blows every cap still looks cheap — so the credit is what
// the constraint was protecting. Its price is not hand-tuned: one hour
// fully out of SLA forfeits kSlaCreditScale times what the box's own
// all-premium configuration charges per task-hour, both plans pay the
// same tariff, and the table reports the raw and penalized totals side by
// side.
//
// Exit status: 0 when, at every sweep point, robust <= point on realized
// out-of-sample cost (1e-9 tolerance), robust strictly beats point
// somewhere, robust's tail-SLA compliance is strictly better somewhere,
// AND the robust placement is bit-identical at 1, 4 and all hardware
// threads. 1 otherwise.
//
// `--json[=path]` merges one RobustVsPoint/ entry per sweep point into the
// BENCH_optimizer.json trajectory artifact.

#include <chrono>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/str_util.h"
#include "common/table_printer.h"
#include "dot/dot.h"

namespace {

using namespace dot;

/// Timing jitter of every simulated Executor run in this bench — both the
/// calibration runs and the out-of-sample replays.
constexpr double kExecNoiseCv = 0.15;

/// Forecast-side sampling: what the robust planner optimizes over.
constexpr int kEnsembleSize = 12;
constexpr uint64_t kEnsembleSeed = 101;

/// Out-of-sample reality: disjoint seed, more draws than the planner saw.
constexpr int kReplayWindows = 32;
constexpr uint64_t kReplaySeed = 202;

/// An hour fully out of SLA forfeits this many times the all-premium
/// layout's nominal TOC (the box's own price ceiling) — the SLA-credit
/// tariff both plans are billed under.
constexpr double kSlaCreditScale = 4.0;

std::string PlacementString(const std::vector<int>& placement) {
  std::string s;
  for (int c : placement) s += static_cast<char>('0' + c);
  return s;
}

/// Mean per-window PSR of a replay against fixed targets: the fraction of
/// (window, query) pairs whose *measured* time met its cap.
double MeanCompliance(const TrackReplayResult& replay,
                      const PerfTargets& targets) {
  if (replay.windows.empty()) return 0.0;
  double sum = 0.0;
  for (const TrackWindowRun& run : replay.windows) {
    sum += Psr(run.measured, targets);
  }
  return sum / static_cast<double>(replay.windows.size());
}

/// Realized cost under the SLA-credit model: measured TOC x duration plus
/// `credit` x (missed query fraction) x duration, summed over windows.
double PenalizedTotal(const TrackReplayResult& replay,
                      const PerfTargets& targets, double credit) {
  double total = 0.0;
  for (const TrackWindowRun& run : replay.windows) {
    // window_objective = measured TOC x duration, so the duration the
    // credit scales by is objective / toc.
    const double duration = run.toc_cents_per_task > 0.0
                                ? run.window_objective / run.toc_cents_per_task
                                : 0.0;
    total += run.window_objective +
             credit * (1.0 - Psr(run.measured, targets)) * duration;
  }
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json_path = "BENCH_optimizer.json";
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      std::cerr << "unknown flag " << argv[i] << " (only --json[=path])\n";
      return 2;
    }
  }

  const auto instance =
      bench::Instance::Tpch(1, bench::TpchVariant::kEsSubset);
  const Schema& schema = instance->schema();
  const BoxConfig& box = instance->box();
  const WorkloadModel& model = instance->model();
  const int num_objects = schema.NumObjects();

  const DotProblem nominal = instance->Problem(0.5);

  // --- calibrate the tail model against the jittered Executor ----------
  // A short noiseless-drift trace on the nominal optimum: the only
  // variation across windows is the Executor's timing jitter, so the
  // per-window latency samples estimate exactly the cv the lognormal tail
  // approximation needs.
  const SolveResult nominal_solve = Solve(nominal);
  if (!nominal_solve.status.ok()) {
    std::cerr << "nominal solve failed: "
              << nominal_solve.status.ToString() << "\n";
    return 1;
  }
  WorkloadTraceSpec calibration;
  for (int w = 0; w < 16; ++w) {
    TraceWindow window;
    window.workload = &model;
    window.duration_hours = 1.0;
    calibration.windows.push_back(window);
  }
  const WorkloadTrace calibration_trace = RecordTraceWithExecutor(
      calibration, nominal_solve.placement, kExecNoiseCv);
  std::vector<double> latency_samples;
  for (const TraceEvent& event : calibration_trace.events) {
    if (event.measured_tasks_per_hour > 0.0) {
      latency_samples.push_back(1.0 / event.measured_tasks_per_hour);
    }
  }
  TailSla tail;
  tail.percentile = 0.95;
  tail.latency_cv = CalibrateLatencyCv(latency_samples);

  // The SLA-credit tariff: priced off the box's own ceiling so it is a
  // property of the instance, not a tuning knob.
  const std::vector<int> premium =
      UniformPlacement(num_objects, box.MostExpensiveClass());
  const double credit_cents_per_task =
      kSlaCreditScale * instance->Evaluate(premium, 0.5).toc_cents_per_task;

  std::cout << "=== Robust vs point planning: " << num_objects
            << " TPC-H objects on " << box.name << ", ensemble K="
            << kEnsembleSize << ", " << kReplayWindows
            << " out-of-sample windows ===\n"
            << "calibrated latency cv " << FormatSig(tail.latency_cv, 3)
            << " from " << latency_samples.size()
            << " jittered runs -> p95 tail factor "
            << FormatSig(TailLatencyFactor(0.95, tail.latency_cv), 4)
            << "\nSLA credit: " << FormatSig(credit_cents_per_task, 3)
            << " cents/task per fully-missed hour (" << kSlaCreditScale
            << "x the all-premium TOC)\n\n";

  struct SweepPoint {
    double io_scale_cv;
    EnsembleObjective objective;
    const char* objective_name;
  };
  EnsembleObjective expectation;
  EnsembleObjective cvar;
  cvar.kind = EnsembleObjective::Kind::kCVaR;
  cvar.alpha = 0.25;
  std::vector<SweepPoint> sweep;
  for (double cv : {0.15, 0.3, 0.5}) {
    sweep.push_back({cv, expectation, "E[TOC]"});
    sweep.push_back({cv, cvar, "CVaR.25"});
  }

  TablePrinter table({"noise cv", "objective", "sla", "robust plan",
                      "point plan", "robust toc", "point toc",
                      "robust cost", "point cost", "saved", "robust psr",
                      "point psr"});
  std::vector<std::string> json_entries;
  bool all_dominated = true;
  bool beat_cost_somewhere = false;
  bool beat_compliance_somewhere = false;

  for (const SweepPoint& point : sweep) {
    const auto t0 = std::chrono::steady_clock::now();

    ScenarioNoise noise;
    noise.num_scenarios = kEnsembleSize;
    noise.io_scale_cv = point.io_scale_cv;
    noise.count_cv = 0.05;
    noise.seed = kEnsembleSeed;
    const ScenarioEnsemble ensemble =
        SampleScenarioEnsemble(num_objects, noise);

    // The robust problem: scenario ensemble + calibrated tail target. The
    // chance constraint demands feasibility in *every* sampled scenario,
    // so the relative SLA is relaxed (Figure 2 idiom) until such a layout
    // exists — and the point plan then gets the exact same (relaxed,
    // mean-only) constraint, so the comparison is plan-vs-plan, not
    // constraint-vs-constraint.
    DotProblem robust_problem = nominal;
    robust_problem.ensemble = &ensemble;
    robust_problem.ensemble_objective = point.objective;
    robust_problem.tail_sla = tail;
    SolveResult robust;
    for (;;) {
      robust = Solve(robust_problem);
      if (robust.status.ok()) break;
      robust_problem.relative_sla *= 0.9;
      if (robust_problem.relative_sla < 0.02) {
        std::cerr << "no feasible SLA for the robust problem at cv "
                  << point.io_scale_cv << "\n";
        return 1;
      }
    }
    DotProblem point_problem = nominal;
    point_problem.relative_sla = robust_problem.relative_sla;
    const SolveResult forecast = Solve(point_problem);
    if (!forecast.status.ok()) {
      std::cerr << "point solve failed at cv " << point.io_scale_cv
                << "\n";
      return 1;
    }

    // Out-of-sample reality: fresh draws from the same noise family at a
    // disjoint seed (the planner's sampler, reused as the ground-truth
    // generator — same distribution, different future).
    ScenarioNoise replay_noise = noise;
    replay_noise.num_scenarios = kReplayWindows + 1;
    replay_noise.seed = kReplaySeed;
    const ScenarioEnsemble futures =
        SampleScenarioEnsemble(num_objects, replay_noise);
    WorkloadTraceSpec reality;
    for (int w = 1; w <= kReplayWindows; ++w) {
      TraceWindow window;
      window.workload = &model;
      window.io_scale = futures.scenarios[static_cast<size_t>(w)].io_scale;
      window.duration_hours = 1.0;
      reality.windows.push_back(window);
    }

    TrackReplayConfig replay;
    replay.cost_model = nominal.cost_model;
    replay.exec_noise_cv = kExecNoiseCv;
    const TrackReplayResult robust_real = ReplayLayoutTrack(
        reality,
        std::vector<std::vector<int>>(reality.windows.size(),
                                      robust.placement),
        schema, box, replay);
    const TrackReplayResult point_real = ReplayLayoutTrack(
        reality,
        std::vector<std::vector<int>>(reality.windows.size(),
                                      forecast.placement),
        schema, box, replay);
    if (!robust_real.status.ok() || !point_real.status.ok()) {
      std::cerr << "replay failed at cv " << point.io_scale_cv << "\n";
      return 1;
    }

    // Tail-SLA compliance: both plans judged by the same tail-tightened
    // caps at the sweep point's (relaxed) SLA.
    const PerfTargets tailed_targets = MakePerfTargets(
        model, box, num_objects, robust_problem.relative_sla,
        /*io_scale=*/{}, tail);
    const double robust_psr = MeanCompliance(robust_real, tailed_targets);
    const double point_psr = MeanCompliance(point_real, tailed_targets);
    const double robust_cost =
        PenalizedTotal(robust_real, tailed_targets, credit_cents_per_task);
    const double point_cost =
        PenalizedTotal(point_real, tailed_targets, credit_cents_per_task);

    all_dominated =
        all_dominated && robust_cost <= point_cost * (1 + 1e-9);
    beat_cost_somewhere =
        beat_cost_somewhere || robust_cost < point_cost * (1 - 1e-12);
    beat_compliance_somewhere =
        beat_compliance_somewhere || robust_psr > point_psr + 1e-12;

    const double saved_pct =
        point_cost > 0 ? 100.0 * (point_cost - robust_cost) / point_cost
                       : 0.0;
    table.AddRow({FormatSig(point.io_scale_cv, 2), point.objective_name,
                  StrPrintf("%.3f", robust_problem.relative_sla),
                  PlacementString(robust.placement),
                  PlacementString(forecast.placement),
                  bench::Sci(robust_real.total_objective),
                  bench::Sci(point_real.total_objective),
                  bench::Sci(robust_cost), bench::Sci(point_cost),
                  StrPrintf("%.2f%%", saved_pct),
                  StrPrintf("%.3f", robust_psr),
                  StrPrintf("%.3f", point_psr)});

    if (!json_path.empty()) {
      const double elapsed_ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - t0)
              .count();
      json_entries.push_back(bench::MakeBenchmarkJsonEntry(
          StrPrintf("RobustVsPoint/cv=%g/%s", point.io_scale_cv,
                    point.objective_name),
          elapsed_ms,
          {{"realized_robust", robust_cost},
           {"realized_point", point_cost},
           {"toc_robust", robust_real.total_objective},
           {"toc_point", point_real.total_objective},
           {"compliance_robust", robust_psr},
           {"compliance_point", point_psr},
           {"relative_sla", robust_problem.relative_sla},
           {"layouts_evaluated",
            static_cast<double>(robust.provenance.layouts_evaluated)}}));
    }
  }
  std::cout << "toc: raw measured TOC x duration out of sample "
               "(cents-hour/task); cost: toc + SLA credits; psr: mean "
               "fraction of measured times meeting the p95-tightened caps\n";
  table.Print(std::cout);

  // Thread-count determinism of the robust decision, at the harshest
  // sweep point (highest noise, CVaR objective). Branch-and-bound is
  // serial, so the check drives the enumerating scan, which shards.
  ScenarioNoise harsh;
  harsh.num_scenarios = kEnsembleSize;
  harsh.io_scale_cv = 0.5;
  harsh.count_cv = 0.05;
  harsh.seed = kEnsembleSeed;
  const ScenarioEnsemble harsh_ensemble =
      SampleScenarioEnsemble(num_objects, harsh);
  DotProblem harsh_problem = nominal;
  harsh_problem.ensemble = &harsh_ensemble;
  harsh_problem.ensemble_objective = cvar;
  harsh_problem.tail_sla = tail;
  harsh_problem.relative_sla = 0.2;  // comfortably feasible
  std::cout << "\nthread-count determinism (cv 0.5, CVaR): ";
  SolveSpec enumerate;
  enumerate.method = SolveMethod::kEnumerate;
  harsh_problem.options.num_threads = 1;
  const SolveResult t1 = Solve(harsh_problem, enumerate);
  harsh_problem.options.num_threads = 4;
  const SolveResult t4 = Solve(harsh_problem, enumerate);
  harsh_problem.options.num_threads = 0;
  const SolveResult thw = Solve(harsh_problem, enumerate);
  const bool deterministic =
      t1.status.ok() && t1.placement == t4.placement &&
      t1.placement == thw.placement &&
      t1.toc_cents_per_task == t4.toc_cents_per_task &&
      t1.toc_cents_per_task == thw.toc_cents_per_task;
  std::cout << (deterministic ? "identical placements and TOC\n"
                              : "DIVERGED\n");

  if (!json_path.empty()) {
    if (bench::MergeBenchmarkJson(json_path, "RobustVsPoint/",
                                  json_entries)) {
      std::cout << "\nmerged " << json_entries.size() << " entries into "
                << json_path << "\n";
    }
  }

  bool ok = true;
  if (!all_dominated) {
    std::cout << "\nFAIL: robust lost to the point plan on realized "
                 "out-of-sample cost somewhere on the sweep\n";
    ok = false;
  }
  if (!beat_cost_somewhere) {
    std::cout << "\nFAIL: robust never strictly beat the point plan on "
                 "realized cost\n";
    ok = false;
  }
  if (!beat_compliance_somewhere) {
    std::cout << "\nFAIL: robust never strictly beat the point plan on "
                 "tail-SLA compliance\n";
    ok = false;
  }
  if (!deterministic) {
    std::cout << "\nFAIL: robust decisions diverged across thread "
                 "counts\n";
    ok = false;
  }
  if (ok) {
    std::cout << "\nPASS: robust <= point everywhere, strictly better "
                 "cost and tail compliance somewhere, bit-identical "
                 "across thread counts\n";
  }
  return ok ? 0 : 1;
}
