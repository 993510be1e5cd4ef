// HTAP mix-ratio sweep: where does the optimal layout flip?
//
// One shared CH-benCH object set (the hottest TPC-C tables and indices) on
// Box 2, solved exactly (branch-and-bound) three ways: for the pure TPC-C
// transaction mix, for the pure CH-benCH analytic sequence, and for the
// composed HTAP workload at a sweep of analytics:transactions intensity
// ratios ρ. The transactional side wants the random-I/O-hot objects
// (stock, order_line) on fast-random devices and tolerates cheap classes
// elsewhere; the analytic side wants the scan-heavy objects on
// sequential-fast classes; the interference model punishes splitting the
// hot shared objects onto slow devices. As ρ grows the HTAP optimum must
// migrate from the OLTP-favoring placement to the DSS-favoring one —
// passing through mixed placements that match *neither* pure optimum,
// which is the whole case for modeling the mix rather than provisioning
// for one side.
//
// Exit status: 0 when at least one ρ produces an optimal layout different
// from both pure optima (the claim this bench exists to demonstrate),
// 1 otherwise.
//
// `--json[=path]` additionally merges one trajectory entry per sweep point
// (named HtapMixSweep/...) into the google-benchmark-format JSON file
// (default BENCH_optimizer.json) — the same perf-trajectory artifact
// bench_optimizer_perf writes, so the nightly-bench job archives both
// suites in one file.

#include <cstring>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "common/str_util.h"
#include "common/table_printer.h"
#include "dot/dot.h"

namespace {

using namespace dot;

std::string PlacementString(const std::vector<int>& placement) {
  std::string s;
  for (int c : placement) s += static_cast<char>('0' + c);
  return s;
}

DotResult SolveExact(const Schema& schema, const BoxConfig& box,
                     const WorkloadModel& workload, double relative_sla) {
  DotProblem problem;
  problem.schema = &schema;
  problem.box = &box;
  problem.workload = &workload;
  problem.relative_sla = relative_sla;
  SolveResult r = Solve(problem);  // kExact default
  // The sweep compares optima, so every point must be feasible: relax like
  // the paper's Figure 2 loop if a ratio's combined caps are too tight.
  while (!r.status.ok() && problem.relative_sla > 0.02) {
    problem.relative_sla *= 0.9;
    r = Solve(problem);
  }
  return std::move(r.dot);
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
      return 1;
    }
  }

  // Tight enough that the folded caps bind (an all-HDD layout's mean
  // transaction latency is ~4-5x the all-H-SSD best, above the 1/0.35 ≈
  // 2.9x cap) while leaving the mid-priced layouts — where the two sides'
  // preferences actually fight — feasible; SolveExact's relax loop is a
  // fallback only.
  const double relative_sla = 0.35;

  Schema full = MakeTpccSchema(300);
  Schema schema = full.Subset({"stock", "pk_stock", "order_line",
                               "pk_order_line", "customer", "pk_customer",
                               "orders", "pk_orders"});
  BoxConfig box = MakeBox2();

  std::cout << "=== HTAP mix sweep: " << schema.NumObjects()
            << " shared CH-benCH objects on " << box.name
            << ", exact BnB optima, relative SLA "
            << FormatSig(relative_sla, 2) << " ===\n";
  std::cout << "placement digits = storage class per object (";
  for (int o = 0; o < schema.NumObjects(); ++o) {
    std::cout << (o ? ", " : "") << schema.object(o).name;
  }
  std::cout << ")\nclasses:";
  for (int c = 0; c < box.NumClasses(); ++c) {
    std::cout << " " << c << "=" << box.classes[static_cast<size_t>(c)].name();
  }
  std::cout << "\n\n";

  // The two pure-side ground truths.
  auto oltp = MakeTpccWorkload(&schema, &box, TpccConfig{});
  const DotResult oltp_opt = SolveExact(schema, box, *oltp, relative_sla);
  if (!oltp_opt.status.ok()) {
    std::cerr << "pure-OLTP optimum infeasible: "
              << oltp_opt.status.ToString() << "\n";
    return 1;
  }
  const std::vector<QuerySpec> templates =
      FilterTemplatesToSchema(MakeChbenchTemplates(), schema);
  DssWorkloadModel dss("CH-benCH", &schema, &box, templates,
                       RepeatSequence(static_cast<int>(templates.size()), 1),
                       PlannerConfig{});
  const DotResult dss_opt = SolveExact(schema, box, dss, relative_sla);
  if (!dss_opt.status.ok()) {
    std::cerr << "pure-DSS optimum infeasible: " << dss_opt.status.ToString()
              << "\n";
    return 1;
  }

  TablePrinter t({"workload", "rho", "layout", "TOC (cents/1k tasks)",
                  "tpmC", "DSS seq (min)", "leaves"});
  t.AddRow({"pure OLTP", "-", PlacementString(oltp_opt.placement),
            StrPrintf("%.3f", oltp_opt.toc_cents_per_task * 1e3),
            StrPrintf("%.0f", oltp_opt.estimate.tpmc), "-",
            StrPrintf("%lld", oltp_opt.layouts_evaluated)});
  t.AddRow({"pure DSS", "-", PlacementString(dss_opt.placement),
            StrPrintf("%.3f", dss_opt.toc_cents_per_task * 1e3), "-",
            bench::Minutes(dss_opt.estimate.elapsed_ms),
            StrPrintf("%lld", dss_opt.layouts_evaluated)});

  std::vector<std::string> json_entries;
  auto add_json_entry = [&](const std::string& name, const DotResult& r,
                            double mixed_optimum) {
    if (json_path.empty()) return;
    json_entries.push_back(bench::MakeBenchmarkJsonEntry(
        name, r.optimize_ms,
        {{"toc_cents_per_1k_tasks", r.toc_cents_per_task * 1e3},
         {"layouts_per_s",
          r.optimize_ms > 0 ? r.layouts_evaluated / (r.optimize_ms / 1e3)
                            : 0.0},
         {"leaves", static_cast<double>(r.layouts_evaluated)},
         {"mixed_optimum", mixed_optimum}}));
  };
  add_json_entry("HtapMixSweep/pure_oltp", oltp_opt, 0.0);
  add_json_entry("HtapMixSweep/pure_dss", dss_opt, 0.0);

  bool flip_found = false;
  for (double rho : {0.1, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0}) {
    HtapConfig config;
    config.analytics_streams = rho;
    HtapBundle bundle = MakeChbenchHtapWorkload(&schema, &box, config,
                                                TpccConfig{},
                                                /*analytics_reps=*/1);
    const DotResult r =
        SolveExact(schema, box, *bundle.htap, relative_sla);
    if (!r.status.ok()) {
      t.AddRow({"HTAP", StrPrintf("%.1f", rho), "infeasible", "-", "-", "-",
                "-"});
      continue;
    }
    const bool differs_from_both = r.placement != oltp_opt.placement &&
                                   r.placement != dss_opt.placement;
    flip_found = flip_found || differs_from_both;
    add_json_entry(StrPrintf("HtapMixSweep/rho=%g", rho), r,
                   differs_from_both ? 1.0 : 0.0);
    t.AddRow({differs_from_both ? "HTAP (mixed optimum)" : "HTAP",
              StrPrintf("%.1f", rho), PlacementString(r.placement),
              StrPrintf("%.3f", r.toc_cents_per_task * 1e3),
              StrPrintf("%.0f", r.estimate.tpmc),
              bench::Minutes(
                  r.estimate.unit_times_ms[static_cast<size_t>(
                      kHtapDssEntry)]),
              StrPrintf("%lld", r.layouts_evaluated)});
  }
  t.Print(std::cout);

  if (!json_path.empty()) {
    if (bench::MergeBenchmarkJson(json_path, "HtapMixSweep/",
                                  json_entries)) {
      std::cout << "\nmerged " << json_entries.size()
                << " HtapMixSweep entries into " << json_path << "\n";
    } else {
      return 1;
    }
  }

  if (!flip_found) {
    std::cout << "\nNO mixed optimum found: every HTAP ratio matched a pure "
                 "optimum.\n";
    return 1;
  }
  std::cout << "\nAt least one mix ratio has an optimal layout matching "
               "neither the pure-OLTP nor the pure-DSS optimum: "
               "provisioning for either side alone misplaces the shared "
               "objects.\n";
  return 0;
}
