#include "families.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace perfbench {

namespace {

using namespace dot;

constexpr double kJitter = 0.1;

// Each op kind's latency tail is taken over its inputs (each input's best
// over its repeats), and needs at least 10 inputs beyond it: so every
// workload has well over 20 budget points and advisor re-plans per session
// (a drift advisor re-plans about twice a day).
constexpr int kBudgetPoints = 48;
constexpr int kDriftDays = 28;

/// Unit-mean lognormal draw: exp(sigma * z - sigma^2 / 2).
double Lognormal(Rng& rng, double sigma) {
  return std::exp(sigma * rng.NextGaussian() - 0.5 * sigma * sigma);
}

std::vector<double> IoScale(Rng& rng, int n, double sigma) {
  std::vector<double> scale(static_cast<size_t>(n));
  for (double& s : scale) s = Lognormal(rng, sigma);
  return scale;
}

/// One draw per stratum of [lo, hi), uniform within `jitter` (a share of
/// the stratum width) around the stratum's centre: every seed covers the
/// range evenly, and with a small jitter every seed drives nearly the same
/// costs (op latencies swing with SLAs and budgets, so a seed that drew a
/// different mix would read as a speed change).
std::vector<double> Stratified(Rng& rng, double lo, double hi, int strata) {
  std::vector<double> out;
  const double width = (hi - lo) / strata;
  for (int k = 0; k < strata; ++k) {
    out.push_back(lo + width * (k + 0.5 + kJitter * (rng.NextDouble() - 0.5)));
  }
  return out;
}

template <typename T>
void Shuffle(Rng& rng, std::vector<T>* v) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng.NextBounded(i)]);
  }
}

/// `count` values cycling through [lo, hi] in a seeded order: every seed
/// gets the same multiset, so phase totals do not vary with the seed.
std::vector<int> Balanced(Rng& rng, int lo, int hi, int count) {
  std::vector<int> out;
  for (int i = 0; i < count; ++i) out.push_back(lo + i % (hi - lo + 1));
  Shuffle(rng, &out);
  return out;
}

/// Adds a copy of `box` with class `capped_class` limited to `cap_gb`
/// (no limit when cap_gb <= 0).
const BoxConfig* AddBox(Family* f, const BoxConfig& box, int capped_class,
                        double cap_gb) {
  auto b = std::make_unique<BoxConfig>(box);
  if (cap_gb > 0) {
    b->classes[static_cast<size_t>(capped_class)].set_capacity_gb(cap_gb);
  }
  f->boxes.push_back(std::move(b));
  return f->boxes.back().get();
}

/// §3.4 profiling: option (a), optimizer estimates, for DSS and HTAP
/// models; option (b), a noisy executor test run, for OLTP.
const WorkloadProfiles* AddProfiles(Family* f, const Schema* schema,
                                    const BoxConfig* box,
                                    const WorkloadModel* model,
                                    bool executor_run, Tracer* tracer) {
  Span span(tracer, "workload.profile", -1);
  Profiler profiler(schema, box);
  EstimateFn estimate;
  if (executor_run) {
    estimate = [model](const std::vector<int>& p) {
      ExecutorConfig cfg;
      cfg.noise_cv = 0.01;
      Executor executor(model, cfg);
      return executor.Run(p);
    };
  } else {
    estimate = [model](const std::vector<int>& p) {
      return model->Estimate(p);
    };
  }
  f->profiles.push_back(std::make_unique<WorkloadProfiles>(
      profiler.ProfileWorkload(*model, estimate)));
  return f->profiles.back().get();
}

DotProblem MakeProblem(const Schema* schema, const BoxConfig* box,
                       const WorkloadModel* model,
                       const WorkloadProfiles* profiles, double sla) {
  DotProblem p;
  p.schema = schema;
  p.box = box;
  p.workload = model;
  p.profiles = profiles;
  p.relative_sla = sla;
  p.options.num_threads = kEngineThreads;
  return p;
}

/// Relaxes problem->relative_sla by 10% steps until an exact solve is
/// feasible (the paper's §4.5.3 relaxation loop) and returns the solve.
SolveResult SolveRelaxed(DotProblem* problem) {
  for (;;) {
    SolveResult r = Solve(*problem);
    if (r.status.ok() || problem->relative_sla < 0.02) return r;
    problem->relative_sla *= 0.9;
  }
}

/// One ground-truth phase of an advisor trace.
struct Phase {
  const WorkloadModel* model;
  std::vector<double> io_scale;
  int hours;
  std::string label;
};

/// Turns a phase list into hourly trace windows, records the trace with the
/// executor on the advisor's initial incumbent, and notes where the ground
/// truth changes.
void RecordAdvisorTrace(const std::vector<Phase>& phases, uint64_t seed,
                        double count_noise_cv, AdvisorInputs* a,
                        Tracer* tracer) {
  a->spec.windows.clear();
  a->phase_starts.clear();
  for (const Phase& p : phases) {
    if (!a->spec.windows.empty()) {
      a->phase_starts.push_back(static_cast<int>(a->spec.windows.size()));
    }
    for (int h = 0; h < p.hours; ++h) {
      TraceWindow w;
      w.workload = p.model;
      w.io_scale = p.io_scale;
      w.duration_hours = 1.0;
      w.label = p.label;
      a->spec.windows.push_back(std::move(w));
    }
  }
  a->spec.count_noise_cv = count_noise_cv;
  a->spec.seed = seed;
  const SolveResult initial = Solve(a->problem);
  Span span(tracer, "exec.trace_record", -1);
  a->trace = RecordTraceWithExecutor(a->spec, initial.placement);
}

MigrationCostModel BaseMigration() {
  MigrationCostModel m;
  m.transfer_price_cents_per_gb = 0.03;
  m.downtime_price_cents_per_hour = 15.0;
  return m;
}

/// Advisor over a single workload model whose per-object I/O drifts: each
/// day holds the base profile for about half the day, then a seeded
/// io_scale shift (the refinement loop's disturbance, observed online).
void BuildDriftAdvisor(Family* f, const DotProblem& base, int days,
                       uint64_t seed, Tracer* tracer) {
  AdvisorInputs& a = f->advisor;
  a.problem = base;
  SolveRelaxed(&a.problem);
  Rng rng(seed ^ 0xad715eULL);
  const int n = base.schema->NumObjects();
  std::vector<Phase> phases;
  const std::vector<int> base_hours = Balanced(rng, 10, 14, days);
  for (int d = 0; d < days; ++d) {
    phases.push_back({base.workload, {}, base_hours[d], "base"});
    phases.push_back(
        {base.workload, IoScale(rng, n, 0.8), 24 - base_hours[d], "shift"});
  }
  a.config.migration = BaseMigration();
  a.config.drift.ewma_alpha = 0.7;
  a.config.payback_horizon_hours = 6.0;
  a.replay.migration = a.config.migration;
  RecordAdvisorTrace(phases, seed, 0.05, &a, tracer);
}

/// Fleet over copies of the family's own problems on one box: `tenants`
/// tenants cycling through `problems`.
void BuildFleet(Family* f, const std::vector<DotProblem>& problems,
                int tenants, FleetPoolMode mode, EpochSearch search) {
  FleetInputs& fl = f->fleet;
  fl.box = problems.front().box;
  for (int i = 0; i < tenants; ++i) {
    FleetTenant t;
    t.name = "t" + std::to_string(i);
    t.problem = problems[static_cast<size_t>(i) % problems.size()];
    fl.tenants.push_back(std::move(t));
  }
  fl.config.pool_mode = mode;
  fl.config.search = search;
}

}  // namespace

void ResolveBudgets(Family* f, uint64_t seed) {
  FleetInputs& fl = f->fleet;
  FleetSpec spec_in;
  spec_in.tenants = &fl.tenants;
  spec_in.config = fl.config;
  DotProblem p;
  p.box = fl.box;
  p.options.num_threads = kEngineThreads;
  SolveSpec spec;
  spec.method = SolveMethod::kFleet;
  spec.fleet = &spec_in;
  const SolveResult free_run = Solve(p, spec);
  const double cost0 = free_run.fleet.total_cost_cents_per_hour;
  const double floor = free_run.fleet.min_cost_cents_per_hour;
  Rng rng(seed ^ 0xf1ee7ULL);
  std::vector<double> fracs = Stratified(rng, 0.0, 1.25, fl.points);
  Shuffle(rng, &fracs);
  for (double frac : fracs) {
    fl.budgets.push_back(floor + frac * (cost0 - floor));
    fl.binding.push_back(frac < 1.0);
  }
}

namespace {

// --- tpcc-oltp ------------------------------------------------------------

/// Full 19-object TPC-C on Box 2 and Box 1, H-SSD capped at fractions of
/// the database size.
std::unique_ptr<Family> BuildTpcc(uint64_t seed, Tracer* tr) {
  auto f = std::make_unique<Family>();
  f->primary = OpKind::kExact;
  f->round = {16, 1, 1};
  Rng rng(seed);
  {
    Span span(tr, "catalog.build", -1);
    f->schemas.push_back(std::make_unique<Schema>(MakeTpccSchema(300)));
  }
  const Schema* schema = f->schemas.back().get();
  double total_gb = 0.0;
  for (const DbObject& o : schema->objects()) total_gb += o.size_gb;
  std::vector<DotProblem> box2_free;
  for (int box_index : {2, 1}) {
    for (double frac : {-1.0, 0.7, 0.5, 0.35}) {
      const BoxConfig base_box = box_index == 1 ? MakeBox1() : MakeBox2();
      const int top = base_box.NumClasses() - 1;
      const BoxConfig* box =
          AddBox(f.get(), base_box, top, frac > 0 ? frac * total_gb : -1);
      const WorkloadModel* model;
      {
        Span span(tr, "workload.model_build", -1);
        f->models.push_back(MakeTpccWorkload(schema, box, TpccConfig{}));
        model = f->models.back().get();
      }
      const WorkloadProfiles* profiles =
          AddProfiles(f.get(), schema, box, model, true, tr);
      for (double sla : Stratified(rng, 0.1, 0.9, 32)) {
        Instance inst;
        inst.problem = MakeProblem(schema, box, model, profiles, sla);
        inst.problem.io_scale_hint =
            IoScale(rng, schema->NumObjects(), 0.2);
        inst.label = "box" + std::to_string(box_index) + "/frac" +
                     std::to_string(frac) + "/sla" + std::to_string(sla);
        if (box_index == 2 && frac < 0) box2_free.push_back(inst.problem);
        f->instances.push_back(std::move(inst));
      }
    }
  }
  Shuffle(rng, &f->instances);
  DotProblem base = box2_free.front();
  base.relative_sla = 0.5;
  base.io_scale_hint.clear();
  BuildDriftAdvisor(f.get(), base, kDriftDays, seed, tr);
  for (DotProblem& p : box2_free) p.io_scale_hint.clear();
  BuildFleet(f.get(), box2_free, 16, FleetPoolMode::kSearch,
             EpochSearch::kExact);
  f->fleet.points = kBudgetPoints;
  return f;
}

// --- htap-advisor ---------------------------------------------------------

/// The always-on advisor on the 8-object CH-benCH shared subset on Box 2:
/// a multi-week diurnal trace whose analytics ratio swings through
/// rho in {0.1, 8, 64}, with lognormal count noise.
std::unique_ptr<Family> BuildHtap(uint64_t seed, Tracer* tr) {
  auto f = std::make_unique<Family>();
  f->primary = OpKind::kReplan;
  // Four pairs and four advisor steps per fleet op: each instance and each
  // budget point then repeats about 20 times or more in a 35 s run, enough
  // for its best to settle; re-plans still take about half of a round.
  f->round = {4, 4, 1};
  Rng rng(seed);
  {
    Span span(tr, "catalog.build", -1);
    f->schemas.push_back(std::make_unique<Schema>(
        MakeTpccSchema(300).Subset({"stock", "pk_stock", "order_line",
                                    "pk_order_line", "customer",
                                    "pk_customer", "orders", "pk_orders"})));
  }
  const Schema* schema = f->schemas.back().get();
  const BoxConfig* box = AddBox(f.get(), MakeBox2(), 0, -1);
  const std::vector<double> rhos = {0.1, 8.0, 64.0};
  std::vector<const WorkloadModel*> pool;
  std::vector<DotProblem> fleet_problems;
  for (double rho : rhos) {
    HtapConfig config;
    config.analytics_streams = rho;
    {
      Span span(tr, "workload.model_build", -1);
      f->htap.push_back(
          MakeChbenchHtapWorkload(schema, box, config, TpccConfig{}, 1));
    }
    const HtapBundle& bundle = f->htap.back();
    pool.push_back(bundle.htap.get());
    const WorkloadProfiles* profiles =
        AddProfiles(f.get(), schema, box, bundle.htap.get(), false, tr);
    for (double sla : Stratified(rng, 0.1, 0.6, 16)) {
      Instance inst;
      inst.problem =
          MakeProblem(schema, box, bundle.htap.get(), profiles, sla);
      inst.dss = bundle.dss.get();
      inst.label = "rho" + std::to_string(rho) + "/sla" + std::to_string(sla);
      fleet_problems.push_back(inst.problem);
      f->instances.push_back(std::move(inst));
    }
  }
  Shuffle(rng, &f->instances);

  AdvisorInputs& a = f->advisor;
  a.problem = MakeProblem(schema, box, pool[0], f->profiles[0].get(), 0.35);
  SolveRelaxed(&a.problem);
  // Two weeks of the diurnal cycle: OLTP-heavy day, evening reporting
  // ramp, analytics-heavy night batch, morning ramp. The seed drives the
  // lognormal count noise of the recorded windows.
  std::vector<Phase> phases;
  for (int d = 0; d < 14; ++d) {
    phases.push_back({pool[0], {}, 10, "day"});
    phases.push_back({pool[1], {}, 4, "evening"});
    phases.push_back({pool[2], {}, 8, "night"});
    phases.push_back({pool[1], {}, 2, "morning"});
  }
  a.config.migration = BaseMigration();
  a.config.drift.ewma_alpha = 0.7;
  a.config.payback_horizon_hours = 6.0;
  a.config.model_pool = pool;
  a.replay.migration = a.config.migration;
  RecordAdvisorTrace(phases, seed, 0.05, &a, tr);

  BuildFleet(f.get(), fleet_problems, 24, FleetPoolMode::kSearch,
             EpochSearch::kExact);
  f->fleet.points = kBudgetPoints;
  return f;
}

// --- fleet-budget ---------------------------------------------------------

/// The roster is generated once from this fixed seed (the DSS class shapes
/// draw from it); the benchmark seed picks the budget points and the
/// single-shot instances' io_scale hints.
constexpr uint64_t kFleetRosterSeed = 17;

/// MakeSyntheticFleet with ~2000 tenants in 8 classes on Box 2, planned at
/// seeded budget points between the cost floor and 1.25x the
/// unconstrained cost.
std::unique_ptr<Family> BuildFleetBudget(uint64_t seed, Tracer* tr) {
  auto f = std::make_unique<Family>();
  f->primary = OpKind::kFleet;
  // Four pairs and four advisor steps per fleet op: the sub-ms ops then
  // repeat often enough for each input's best to settle.
  f->round = {4, 4, 1};
  Rng rng(seed);
  {
    Span span(tr, "fleet.generate", -1);
    f->synthetic = std::make_unique<SyntheticFleet>(
        MakeSyntheticFleet(2000, kFleetRosterSeed));
  }
  SyntheticFleet& sf = *f->synthetic;
  // One instance per tenant class, taken from the first tenant of each.
  std::vector<const WorkloadModel*> seen;
  DotProblem advisor_base;
  for (const FleetTenant& t : sf.tenants) {
    const WorkloadModel* model = t.problem.workload;
    if (std::find(seen.begin(), seen.end(), model) != seen.end()) continue;
    seen.push_back(model);
    const WorkloadProfiles* profiles = AddProfiles(
        f.get(), t.problem.schema, t.problem.box, model, false, tr);
    for (int k = 0; k < 8; ++k) {
      Instance inst;
      inst.problem = t.problem;
      inst.problem.profiles = profiles;
      inst.problem.options.num_threads = kEngineThreads;
      inst.problem.io_scale_hint =
          IoScale(rng, t.problem.schema->NumObjects(), 0.2);
      inst.dss = dynamic_cast<const DssWorkloadModel*>(model);
      inst.label = t.name;
      f->instances.push_back(std::move(inst));
    }
    if (advisor_base.schema == nullptr ||
        advisor_base.schema->NumObjects() < t.problem.schema->NumObjects()) {
      advisor_base = t.problem;
      advisor_base.profiles = profiles;
      advisor_base.options.num_threads = kEngineThreads;
    }
  }
  Shuffle(rng, &f->instances);
  BuildDriftAdvisor(f.get(), advisor_base, kDriftDays, seed, tr);
  f->fleet.box = sf.box.get();
  f->fleet.tenants = sf.tenants;
  f->fleet.config.pool_mode = FleetPoolMode::kEnumerate;
  f->fleet.points = kBudgetPoints;
  return f;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"tpcc-oltp", "htap-advisor",
                                                 "fleet-budget"};
  return names;
}

std::unique_ptr<Family> BuildFamily(const std::string& workload,
                                    uint64_t seed, Tracer* tracer) {
  std::unique_ptr<Family> f;
  if (workload == "tpcc-oltp") f = BuildTpcc(seed, tracer);
  if (workload == "htap-advisor") f = BuildHtap(seed, tracer);
  if (workload == "fleet-budget") f = BuildFleetBudget(seed, tracer);
  if (f == nullptr) return nullptr;
  if (f->core_instances == 0) f->core_instances = f->instances.size();
  f->workload = workload;
  return f;
}

}  // namespace perfbench
