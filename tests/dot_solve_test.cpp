// Pins the dot::Solve facade (dot/solve.h) to the engines it fronts: each
// SolveMethod must reproduce a direct call to its engine bit for bit —
// same placement, same TOC, same counters, same infeasibility verdicts.
// The facade routes; it must never re-interpret.

#include "dot/solve.h"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "catalog/tpch_schema.h"
#include "common/rng.h"
#include "dot/bnb_search.h"
#include "dot/optimizer.h"
#include "storage/standard_catalog.h"
#include "workload/dss_workload.h"
#include "workload/profiler.h"
#include "workload/tpch_queries.h"

namespace dot {
namespace {

/// Placement, TOC, cost, estimate and search counters must all match; the
/// wall-clock and plan-cache diagnostics are explicitly excluded (they
/// legitimately vary run to run).
void ExpectSameDotResult(const DotResult& direct, const DotResult& facade) {
  ASSERT_EQ(direct.status.ok(), facade.status.ok())
      << direct.status.ToString() << " vs " << facade.status.ToString();
  EXPECT_EQ(direct.placement, facade.placement);
  EXPECT_EQ(direct.toc_cents_per_task, facade.toc_cents_per_task);
  EXPECT_EQ(direct.layout_cost_cents_per_hour,
            facade.layout_cost_cents_per_hour);
  EXPECT_EQ(direct.layouts_evaluated, facade.layouts_evaluated);
  EXPECT_EQ(direct.nodes_expanded, facade.nodes_expanded);
  EXPECT_EQ(direct.nodes_pruned_bound, facade.nodes_pruned_bound);
  EXPECT_EQ(direct.nodes_pruned_infeasible, facade.nodes_pruned_infeasible);
  EXPECT_EQ(direct.estimate.tasks_per_hour, facade.estimate.tasks_per_hour);
  EXPECT_EQ(direct.targets.best_case.tasks_per_hour,
            facade.targets.best_case.tasks_per_hour);
}

/// The §4.4.3 small TPC-H instance: 8 objects, exhaustive-tractable, with
/// profiles so the heuristic path can run too.
class SolveFacadeTest : public ::testing::Test {
 protected:
  SolveFacadeTest()
      : schema_(MakeTpchEsSubsetSchema(20.0)),
        box_(MakeBox1()),
        workload_("TPC-H-ES", &schema_, &box_, MakeTpchSubsetTemplates(),
                  RepeatSequence(11, 3), PlannerConfig{}),
        profiler_(&schema_, &box_),
        profiles_(profiler_.ProfileWorkload(
            workload_, [&](const std::vector<int>& p) {
              return workload_.Estimate(p);
            })) {
    problem_.schema = &schema_;
    problem_.box = &box_;
    problem_.workload = &workload_;
    problem_.relative_sla = 0.5;
    problem_.profiles = &profiles_;
  }

  Schema schema_;
  BoxConfig box_;
  DssWorkloadModel workload_;
  Profiler profiler_;
  WorkloadProfiles profiles_;
  DotProblem problem_;
};

TEST_F(SolveFacadeTest, ExactMatchesDirectExactSearchBitwise) {
  const DotResult direct =
      ExactSearch(problem_, ExactStrategy::kBranchAndBound);
  SolveSpec spec;
  spec.method = SolveMethod::kExact;
  const SolveResult facade = Solve(problem_, spec);
  ASSERT_TRUE(facade.status.ok()) << facade.status.ToString();
  ExpectSameDotResult(direct, facade.dot);
  EXPECT_EQ(facade.placement, direct.placement);
  EXPECT_EQ(facade.toc_cents_per_task, direct.toc_cents_per_task);
  EXPECT_EQ(facade.provenance.layouts_evaluated, direct.layouts_evaluated);
  EXPECT_EQ(facade.provenance.method, SolveMethod::kExact);
  EXPECT_EQ(facade.provenance.nodes_expanded, direct.nodes_expanded);
  EXPECT_FALSE(facade.has_plan);
  EXPECT_FALSE(facade.has_fleet);
}

TEST_F(SolveFacadeTest, EnumerateMatchesExhaustiveSearchBitwise) {
  const DotResult direct = ExactSearch(problem_, ExactStrategy::kEnumerate);
  SolveSpec spec;
  spec.method = SolveMethod::kEnumerate;
  const SolveResult facade = Solve(problem_, spec);
  ASSERT_TRUE(facade.status.ok()) << facade.status.ToString();
  ExpectSameDotResult(direct, facade.dot);
}

TEST_F(SolveFacadeTest, HeuristicMatchesDotOptimizerBitwise) {
  const DotResult direct = DotOptimizer(problem_).Optimize();
  SolveSpec spec;
  spec.method = SolveMethod::kDotHeuristic;
  const SolveResult facade = Solve(problem_, spec);
  ExpectSameDotResult(direct, facade.dot);
}

TEST_F(SolveFacadeTest, EnumerateRefusesOversizedSpaces) {
  SolveSpec spec;
  spec.method = SolveMethod::kEnumerate;
  spec.max_layouts = 2;  // 8 objects on >= 2 classes is far beyond this
  const SolveResult facade = Solve(problem_, spec);
  EXPECT_FALSE(facade.status.ok());
}

TEST_F(SolveFacadeTest, WarmStartsCannotChangeTheExactResult) {
  SolveSpec cold;
  cold.method = SolveMethod::kExact;
  const SolveResult reference = Solve(problem_, cold);
  ASSERT_TRUE(reference.status.ok());

  std::vector<std::vector<int>> pool = {
      reference.placement,
      std::vector<int>(static_cast<size_t>(schema_.NumObjects()),
                       box_.MostExpensiveClass()),
      std::vector<int>{0},  // malformed: ignored, not fatal
  };
  SolveSpec warm = cold;
  warm.warm_starts = &pool;
  const SolveResult seeded = Solve(problem_, warm);
  ASSERT_TRUE(seeded.status.ok());
  EXPECT_EQ(seeded.placement, reference.placement);
  EXPECT_EQ(seeded.toc_cents_per_task, reference.toc_cents_per_task);
  // Seeding the incumbent with the known optimum can only prune harder.
  EXPECT_LE(seeded.dot.nodes_expanded, reference.dot.nodes_expanded);
}

TEST_F(SolveFacadeTest, EpochPlanOneEpochZeroMigrationMatchesExact) {
  SolveSpec exact;
  exact.method = SolveMethod::kExact;
  const SolveResult single = Solve(problem_, exact);
  ASSERT_TRUE(single.status.ok());

  // Null schedule + zero migration model: the stateful path degenerates
  // to the single-shot problem and must land on the same layout and TOC.
  SolveSpec epoch;
  epoch.method = SolveMethod::kEpochPlan;
  const SolveResult planned = Solve(problem_, epoch);
  ASSERT_TRUE(planned.status.ok()) << planned.status.ToString();
  ASSERT_TRUE(planned.has_plan);
  EXPECT_EQ(planned.placement, single.placement);
  EXPECT_EQ(planned.toc_cents_per_task, single.toc_cents_per_task);
  EXPECT_EQ(planned.plan.steps.size(), 1u);
  EXPECT_EQ(planned.plan.total_migration_cents, 0.0);
}

TEST_F(SolveFacadeTest, ValidateCatchesSpecProblemMismatches) {
  // A malformed problem comes back as a status, not an abort.
  DotProblem no_workload = problem_;
  no_workload.workload = nullptr;
  SolveSpec spec;
  EXPECT_EQ(spec.Validate(no_workload).code(),
            StatusCode::kInvalidArgument);
  const SolveResult r = Solve(no_workload, spec);
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);

  // kFleet without a fleet spec is refused the same way.
  SolveSpec fleet;
  fleet.method = SolveMethod::kFleet;
  EXPECT_EQ(fleet.Validate(problem_).code(),
            StatusCode::kInvalidArgument);

  // Engine invariants the planners' constructors enforce must be refused
  // up front too, by Validate and by Solve alike.
  const auto expect_refused = [&](const SolveSpec& bad, const char* what) {
    EXPECT_EQ(bad.Validate(problem_).code(), StatusCode::kInvalidArgument)
        << what;
    EXPECT_EQ(Solve(problem_, bad).status.code(), StatusCode::kInvalidArgument)
        << what;
  };
  for (double weight : {-2.0, std::numeric_limits<double>::quiet_NaN()}) {
    SolveSpec epoch;
    epoch.method = SolveMethod::kEpochPlan;
    epoch.migration_weight = weight;
    expect_refused(epoch, "migration_weight");
  }
  const std::vector<FleetTenant> tenants = {{"t0", problem_}};
  FleetSpec no_iterations;
  no_iterations.tenants = &tenants;
  no_iterations.config.price_iterations = 0;
  FleetSpec no_pool;
  no_pool.tenants = &tenants;
  no_pool.config.max_pool_layouts = 0;
  for (const FleetSpec* bad_fleet : {&no_iterations, &no_pool}) {
    SolveSpec spec_fleet;
    spec_fleet.method = SolveMethod::kFleet;
    spec_fleet.fleet = bad_fleet;
    expect_refused(spec_fleet, "fleet config");
  }

  // Bad problem inputs, refused on every method that reads them, by
  // Validate and by Solve alike.
  const auto refused = [](const DotProblem& bad, const SolveSpec& spec,
                          const std::string& what) {
    EXPECT_EQ(spec.Validate(bad).code(), StatusCode::kInvalidArgument)
        << what;
    EXPECT_EQ(Solve(bad, spec).status.code(), StatusCode::kInvalidArgument)
        << what;
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  ScenarioEnsemble empty;
  ScenarioEnsemble too_many;
  too_many.scenarios.resize(kMaxScenarios + 1);
  const size_t n = static_cast<size_t>(schema_.NumObjects());
  using M = SolveMethod;
  for (M method : {M::kDotHeuristic, M::kExact, M::kEnumerate, M::kEpochPlan}) {
    SolveSpec spec_m;
    spec_m.method = method;
    const std::string m = "method " + std::to_string(static_cast<int>(method));
    for (double sla : {0.0, -0.5, 1.5, nan, inf}) {
      DotProblem bad_sla = problem_;
      bad_sla.relative_sla = sla;
      refused(bad_sla, spec_m, m + " relative_sla " + std::to_string(sla));
    }
    // The spec overlay is refused on kEpochPlan whatever its size.
    for (const ScenarioEnsemble* bad_ensemble : {&empty, &too_many}) {
      DotProblem bad_problem = problem_;
      bad_problem.ensemble = bad_ensemble;
      refused(bad_problem, spec_m, m + " problem ensemble");
      SolveSpec bad_spec = spec_m;
      bad_spec.ensemble = bad_ensemble;
      refused(problem_, bad_spec, m + " spec ensemble");
    }
    // kEpochPlan never reads the hint.
    if (method == M::kEpochPlan) continue;
    for (size_t size : {size_t{1}, n + 1}) {
      DotProblem bad_hint = problem_;
      bad_hint.io_scale_hint.assign(size, 1.0);
      refused(bad_hint, spec_m, m + " io_scale_hint size");
    }
  }
  // Fleet tenants are single-shot problems of their own.
  DotProblem bad_tenant = problem_;
  bad_tenant.relative_sla = 0.0;
  const std::vector<FleetTenant> bad_tenants = {{"t0", bad_tenant}};
  FleetSpec bad_roster;
  bad_roster.tenants = &bad_tenants;
  SolveSpec spec_roster;
  spec_roster.method = SolveMethod::kFleet;
  spec_roster.fleet = &bad_roster;
  expect_refused(spec_roster, "fleet tenant relative_sla");

  // An empty box or schema is refused on every method: the engines
  // assume at least one object and one storage class.
  BoxConfig no_classes = box_;
  no_classes.classes.clear();
  const Schema no_objects;
  DotProblem empty_box = problem_;
  empty_box.box = &no_classes;
  DotProblem empty_schema = problem_;
  empty_schema.schema = &no_objects;
  for (M method : {M::kDotHeuristic, M::kExact, M::kEnumerate, M::kEpochPlan}) {
    SolveSpec spec_m;
    spec_m.method = method;
    const std::string m = "method " + std::to_string(static_cast<int>(method));
    refused(empty_box, spec_m, m + " empty box");
    refused(empty_schema, spec_m, m + " empty schema");
  }
  // Under kFleet the box is the fleet problem's, and every tenant's
  // schema is checked.
  const std::vector<FleetTenant> empty_box_tenants = {{"t0", empty_box}};
  const std::vector<FleetTenant> empty_schema_tenants = {
      {"t0", problem_}, {"t1", empty_schema}};
  FleetSpec empty_box_roster;
  empty_box_roster.tenants = &empty_box_tenants;
  FleetSpec empty_schema_roster;
  empty_schema_roster.tenants = &empty_schema_tenants;
  SolveSpec fleet_empty_box;
  fleet_empty_box.method = SolveMethod::kFleet;
  fleet_empty_box.fleet = &empty_box_roster;
  refused(empty_box, fleet_empty_box, "fleet empty box");
  SolveSpec fleet_empty_schema;
  fleet_empty_schema.method = SolveMethod::kFleet;
  fleet_empty_schema.fleet = &empty_schema_roster;
  expect_refused(fleet_empty_schema, "fleet tenant empty schema");

  DotProblem no_profiles = problem_;
  no_profiles.profiles = nullptr;
  SolveSpec heuristic;
  heuristic.method = SolveMethod::kDotHeuristic;
  refused(no_profiles, heuristic, "kDotHeuristic profiles");

  // The relative SLA is not read when a targets override replaces it, and
  // the exact search needs no profiles: both stay valid.
  const PerfTargets targets = MakePerfTargets(
      workload_, box_, schema_.NumObjects(), problem_.relative_sla);
  DotProblem overridden = no_profiles;
  overridden.relative_sla = 7.0;
  overridden.targets_override = &targets;
  SolveSpec exact;
  exact.method = SolveMethod::kExact;
  EXPECT_TRUE(exact.Validate(overridden).ok());
  EXPECT_TRUE(Solve(overridden, exact).status.ok());
}

TEST_F(SolveFacadeTest, InfeasibleVerdictPassesThroughUnchanged) {
  PerfTargets impossible = MakePerfTargets(
      workload_, box_, schema_.NumObjects(), problem_.relative_sla);
  for (double& cap : impossible.query_caps_ms) cap = 0.0;
  DotProblem hopeless = problem_;
  hopeless.targets_override = &impossible;

  const DotResult direct =
      ExactSearch(hopeless, ExactStrategy::kBranchAndBound);
  SolveSpec spec;
  spec.method = SolveMethod::kExact;
  const SolveResult facade = Solve(hopeless, spec);
  EXPECT_FALSE(direct.status.ok());
  EXPECT_FALSE(facade.status.ok());
  EXPECT_EQ(direct.status.ToString(), facade.dot.status.ToString());
}

/// Randomized DSS instances (the reprovision-test generator): the facade
/// equivalence must hold across boxes, schemas and thread counts, not
/// just on the fixture instance.
struct RandomInstance {
  Schema schema;
  BoxConfig box;
  std::unique_ptr<DssWorkloadModel> workload;

  RandomInstance(uint64_t seed, int tables) {
    Rng rng(seed);
    box = rng.NextBounded(2) == 0 ? MakeBox1() : MakeBox2();
    std::vector<QuerySpec> templates;
    for (int i = 0; i < tables; ++i) {
      const std::string name = "t" + std::to_string(i);
      schema.AddTable(name, 1e5 * (1 + rng.NextBounded(20)),
                      60 + 20 * rng.NextBounded(6));
      schema.AddIndex(name + "_pk", schema.FindObject(name), 8);
      QuerySpec q;
      q.name = "q" + std::to_string(i);
      RelationAccess ra;
      ra.table = name;
      ra.index_sargable = rng.NextBounded(2) == 0;
      ra.selectivity = ra.index_sargable ? rng.NextUniform(0.0005, 0.01)
                                         : rng.NextUniform(0.2, 1.0);
      q.relations = {ra};
      templates.push_back(std::move(q));
    }
    const int num_templates = static_cast<int>(templates.size());
    workload = std::make_unique<DssWorkloadModel>(
        "rand", &schema, &box, std::move(templates),
        RepeatSequence(num_templates, 2), PlannerConfig{});
  }

  DotProblem Problem() const {
    DotProblem p;
    p.schema = &schema;
    p.box = &box;
    p.workload = workload.get();
    return p;
  }
};

TEST(SolveRandomizedTest, ExactFacadeMatchesDirectAcrossInstancesAndThreads) {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed * 7919);
    const int tables = 2 + static_cast<int>(rng.NextBounded(3));
    RandomInstance inst(seed, tables);
    const double sla = rng.NextUniform(0.2, 0.8);
    for (int threads : {1, 4, hw}) {
      DotProblem problem = inst.Problem();
      problem.relative_sla = sla;
      problem.options.num_threads = threads;
      const DotResult direct =
          ExactSearch(problem, ExactStrategy::kBranchAndBound);
      SolveSpec spec;
      const SolveResult facade = Solve(problem, spec);
      ExpectSameDotResult(direct, facade.dot);
    }
  }
}

}  // namespace
}  // namespace dot
