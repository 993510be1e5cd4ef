// Pins the fleet's pool phase (fleet/fleet_pools.h) against a reference
// implementation kept here: the direct build — decode every layout index,
// score each candidate through EvaluateQuick on a materialized Layout, sort,
// then prune by comparing each candidate with every kept one — and the
// byte-string pool key looked up in an ordered map. The production builder
// walks the layout space on the bound cursor, keeps flat records and prunes
// through a class-0 space window; the production keying compares fields
// per fingerprint bucket. Both must agree with the reference bit for bit:
// placements, TOC, cost, space, candidate order, counters, and every
// tenant's pool id.

#include "fleet/fleet_pools.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "catalog/schema.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "dot/eval_tables.h"
#include "dot/layout.h"
#include "dot/optimizer.h"
#include "dot/reprovision.h"
#include "fleet/synthetic_fleet.h"
#include "io/io_types.h"
#include "storage/standard_catalog.h"
#include "workload/oltp_workload.h"
#include "workload/profiler.h"

namespace dot {
namespace {

// --- The reference pool build -------------------------------------------

struct OraclePool {
  Status status = Status::OK();
  std::vector<std::vector<int>> placements;
  std::vector<double> toc;
  std::vector<double> cost;
  std::vector<double> space;  ///< [candidate * num_classes + class]
  long long layouts_evaluated = 0;
  int feasible = 0;  ///< candidates before the dominance prune
  /// Prunes whose first dominator found sits strictly below the pruned
  /// candidate's class-0 space (a dominance that holds only up to rounding).
  int pruned_below_space0 = 0;
};

OraclePool OracleBuildPool(const DotProblem& tenant_problem,
                           const BoxConfig* box, const FleetConfig& config) {
  OraclePool out;
  DotProblem p = tenant_problem;
  p.options = config.options;
  p.options.num_threads = 1;
  const int n = p.schema->NumObjects();
  const int m = box->NumClasses();

  std::vector<std::vector<int>> candidates;
  if (config.pool_mode == FleetPoolMode::kEnumerate) {
    const long long space = LayoutSpaceSize(n, m);
    if (space > config.max_pool_layouts) {
      out.status = Status::OutOfRange("tenant layout space too large");
      return out;
    }
    for (long long idx = 0; idx < space; ++idx) {
      candidates.push_back(DecodeLayoutIndex(idx, n, m));
    }
  } else {
    out.layouts_evaluated +=
        AppendSoloCandidate(p, config.search, &candidates);
    for (int cls = 0; cls < m; ++cls) {
      std::vector<int> uniform(static_cast<size_t>(n), cls);
      if (std::find(candidates.begin(), candidates.end(), uniform) ==
          candidates.end()) {
        candidates.push_back(std::move(uniform));
      }
    }
  }

  const DotOptimizer estimator(p);
  const FastEvaluator evaluator(estimator);
  std::vector<Layout> layouts;
  std::vector<CandidateEval> evals;
  for (const std::vector<int>& c : candidates) {
    layouts.emplace_back(p.schema, box, c);
    evals.push_back(evaluator.EvaluateQuick(c));
  }
  out.layouts_evaluated += static_cast<long long>(candidates.size());

  std::vector<int> order;
  for (size_t i = 0; i < evals.size(); ++i) {
    if (evals[i].feasible) order.push_back(static_cast<int>(i));
  }
  out.feasible = static_cast<int>(order.size());
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return BetterCandidate(evals[static_cast<size_t>(a)].toc,
                           candidates[static_cast<size_t>(a)],
                           evals[static_cast<size_t>(b)].toc,
                           candidates[static_cast<size_t>(b)]);
  });

  std::vector<std::vector<double>> kept_space;
  for (int idx : order) {
    const CandidateEval& eval = evals[static_cast<size_t>(idx)];
    const SpaceUsage used = layouts[static_cast<size_t>(idx)].SpaceByClass();
    bool dominated = false;
    for (size_t k = 0; k < out.placements.size() && !dominated; ++k) {
      if (out.cost[k] > eval.cost_cents_per_hour) continue;
      bool covers = true;
      for (int j = 0; j < m; ++j) {
        if (kept_space[k][static_cast<size_t>(j)] >
            used[static_cast<size_t>(j)]) {
          covers = false;
          break;
        }
      }
      dominated = covers;
      if (dominated && kept_space[k][0] < used[0]) ++out.pruned_below_space0;
    }
    if (dominated) continue;
    out.placements.push_back(candidates[static_cast<size_t>(idx)]);
    out.toc.push_back(eval.toc);
    out.cost.push_back(eval.cost_cents_per_hour);
    out.space.insert(out.space.end(), used.begin(), used.end());
    kept_space.push_back(used);
  }
  return out;
}

// --- The reference pool keying ------------------------------------------

template <typename T>
void AppendRaw(const T& v, std::string* out) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

std::string OraclePoolKey(const DotProblem& p, uint64_t fingerprint,
                          const FleetConfig& config) {
  const std::string& name = p.workload->name();
  std::string key;
  AppendRaw(fingerprint, &key);
  AppendRaw(name.size(), &key);
  key += name;
  AppendRaw(p.relative_sla, &key);
  AppendRaw(p.cost_model.discrete, &key);
  AppendRaw(p.cost_model.alpha, &key);
  AppendRaw(p.tail_sla.percentile, &key);
  AppendRaw(p.tail_sla.latency_cv, &key);
  AppendRaw(p.io_scale_hint.size(), &key);
  for (double s : p.io_scale_hint) AppendRaw(s, &key);
  AppendRaw(p.targets_override, &key);
  if (config.pool_mode == FleetPoolMode::kSearch &&
      config.search == EpochSearch::kDot) {
    AppendRaw(p.profiles, &key);
  }
  return key;
}

PoolAssignment OracleAssignPools(const std::vector<FleetTenant>& tenants,
                                 const FleetConfig& config) {
  PoolAssignment out;
  out.pool_of.assign(tenants.size(), -1);
  std::map<std::string, int> key_to_pool;
  for (size_t i = 0; i < tenants.size(); ++i) {
    if (!config.share_pools) {
      out.pool_of[i] = static_cast<int>(out.reference.size());
      out.reference.push_back(static_cast<int>(i));
      continue;
    }
    const DotProblem& problem = tenants[i].problem;
    const std::string key =
        OraclePoolKey(problem, problem.schema->Fingerprint(), config);
    const auto it = key_to_pool.find(key);
    if (it != key_to_pool.end()) {
      out.pool_of[i] = it->second;
      ++out.cache_hits;
    } else {
      const int id = static_cast<int>(out.reference.size());
      key_to_pool.emplace(key, id);
      out.pool_of[i] = id;
      out.reference.push_back(static_cast<int>(i));
    }
  }
  return out;
}

// --- Comparisons ----------------------------------------------------------

std::vector<uint64_t> Bits(const std::vector<double>& v) {
  std::vector<uint64_t> out(v.size());
  if (!v.empty()) std::memcpy(out.data(), v.data(), v.size() * sizeof(double));
  return out;
}

void ExpectSamePool(const TenantPool& got, const OraclePool& want,
                    const std::string& what) {
  ASSERT_EQ(got.status.code(), want.status.code()) << what;
  EXPECT_EQ(got.layouts_evaluated, want.layouts_evaluated) << what;
  ASSERT_EQ(got.size(), static_cast<int>(want.placements.size())) << what;
  for (int c = 0; c < got.size(); ++c) {
    EXPECT_EQ(got.Placement(c), want.placements[static_cast<size_t>(c)])
        << what << " candidate " << c;
  }
  EXPECT_EQ(got.placements.size(),
            static_cast<size_t>(got.size()) *
                static_cast<size_t>(got.num_objects))
      << what;
  EXPECT_EQ(Bits(got.toc), Bits(want.toc)) << what;
  EXPECT_EQ(Bits(got.cost), Bits(want.cost)) << what;
  EXPECT_EQ(Bits(got.space), Bits(want.space)) << what;
}

void ExpectSameAssignment(const std::vector<FleetTenant>& tenants,
                          const FleetConfig& config, const std::string& what) {
  const PoolAssignment got = AssignPools(tenants, config);
  const PoolAssignment want = OracleAssignPools(tenants, config);
  EXPECT_EQ(got.pool_of, want.pool_of) << what;
  EXPECT_EQ(got.reference, want.reference) << what;
  EXPECT_EQ(got.cache_hits, want.cache_hits) << what;
}

/// Builds every distinct pool of `tenants` both ways and compares them.
/// The production pools build concurrently into distinct slots, as the
/// planner builds them, so the sanitizer legs see that fan-out.
void ExpectPoolsMatchOracle(const std::vector<FleetTenant>& tenants,
                            const BoxConfig* box, const FleetConfig& config,
                            const std::string& what) {
  const PoolAssignment pools = AssignPools(tenants, config);
  const int num_pools = static_cast<int>(pools.reference.size());
  std::vector<TenantPool> built(static_cast<size_t>(num_pools));
  ThreadPool threads(4);
  threads.ParallelFor(0, num_pools, [&](int64_t pid) {
    built[static_cast<size_t>(pid)] = BuildPool(
        tenants[static_cast<size_t>(
                    pools.reference[static_cast<size_t>(pid)])]
            .problem,
        box, config);
  });
  for (int pid = 0; pid < num_pools; ++pid) {
    const FleetTenant& t = tenants[static_cast<size_t>(
        pools.reference[static_cast<size_t>(pid)])];
    ExpectSamePool(built[static_cast<size_t>(pid)],
                   OracleBuildPool(t.problem, box, config),
                   what + " pool " + std::to_string(pid) + " (" + t.name +
                       ")");
  }
}

// --- Tests ----------------------------------------------------------------

TEST(FleetPoolOracleTest, EveryGeneratorClassMatchesTheOracle) {
  for (uint64_t seed : {1u, 7u}) {
    const SyntheticFleet fleet = MakeSyntheticFleet(300, seed);
    for (bool fast : {true, false}) {
      FleetConfig config;
      config.options.use_fast_eval = fast;
      const std::string what = "seed " + std::to_string(seed) +
                               (fast ? " fast" : " full");
      ExpectSameAssignment(fleet.tenants, config, what);
      const PoolAssignment pools = AssignPools(fleet.tenants, config);
      ASSERT_EQ(static_cast<int>(pools.reference.size()), fleet.num_classes)
          << what;
      EXPECT_EQ(pools.cache_hits, 300 - fleet.num_classes) << what;
      ExpectPoolsMatchOracle(fleet.tenants, fleet.box.get(), config, what);
    }
  }
  // The enumeration guard refuses the same pools the same way.
  const SyntheticFleet fleet = MakeSyntheticFleet(8, 1);
  FleetConfig guarded;
  guarded.max_pool_layouts = 2;
  ExpectPoolsMatchOracle(fleet.tenants, fleet.box.get(), guarded, "guard");
  EXPECT_EQ(BuildPool(fleet.tenants[0].problem, fleet.box.get(), guarded)
                .status.code(),
            StatusCode::kOutOfRange);
}

TEST(FleetPoolOracleTest, SearchPoolsMatchTheOracle) {
  const SyntheticFleet fleet = MakeSyntheticFleet(16, 3);
  FleetConfig config;
  config.pool_mode = FleetPoolMode::kSearch;
  config.search = EpochSearch::kExact;
  ExpectPoolsMatchOracle(fleet.tenants, fleet.box.get(), config,
                         "kSearch/kExact");
  config.options.use_fast_eval = false;
  ExpectPoolsMatchOracle(fleet.tenants, fleet.box.get(), config,
                         "kSearch/kExact full");

  // The DOT search needs profiles: one per distinct workload.
  std::vector<FleetTenant> tenants = fleet.tenants;
  std::unordered_map<const WorkloadModel*, std::unique_ptr<WorkloadProfiles>>
      profiles;
  for (FleetTenant& t : tenants) {
    auto& slot = profiles[t.problem.workload];
    if (slot == nullptr) {
      Profiler profiler(t.problem.schema, fleet.box.get());
      const WorkloadModel& model = *t.problem.workload;
      slot = std::make_unique<WorkloadProfiles>(profiler.ProfileWorkload(
          model,
          [&](const std::vector<int>& p) { return model.Estimate(p); }));
    }
    t.problem.profiles = slot.get();
  }
  config.search = EpochSearch::kDot;
  for (bool fast : {true, false}) {
    config.options.use_fast_eval = fast;
    ExpectSameAssignment(tenants, config, "kSearch/kDot keys");
    ExpectPoolsMatchOracle(tenants, fleet.box.get(), config,
                           fast ? "kSearch/kDot" : "kSearch/kDot full");
  }
}

/// A random OLTP tenant whose objects draw their sizes from a small
/// palette, so equal-size objects (and subset sums that tie only up to
/// rounding, like 0.1 + 0.2 against 0.3) are common and dominance fires.
struct RandomTenant {
  std::unique_ptr<Schema> schema;
  std::unique_ptr<OltpWorkloadModel> model;
  DotProblem problem;
};

RandomTenant MakeRandomTenant(Rng& rng, const BoxConfig* box, int index) {
  static const double kPalette[] = {0.1, 0.2, 0.3, 0.3, 0.6, 1.0, 1e3};
  RandomTenant t;
  t.schema = std::make_unique<Schema>();
  const int n = 3 + static_cast<int>(rng.NextBounded(4));  // 3..6 objects
  for (int o = 0; o < n; ++o) {
    const std::string name = "o" + std::to_string(o);
    if (rng.NextBounded(4) == 0) {
      // Equal-stats tables have equal sizes, too.
      t.schema->AddTable(name, 1e5, 100.0);
    } else {
      t.schema->AddAuxiliary(
          name, ObjectKind::kTempSpace,
          kPalette[rng.NextBounded(sizeof(kPalette) / sizeof(kPalette[0]))]);
    }
  }
  TxnType txn;
  txn.name = "Txn";
  txn.weight = 1.0;
  txn.io.assign(static_cast<size_t>(n), IoVector{});
  for (int o = 0; o < n; ++o) {
    if (rng.NextBounded(3) == 0) continue;
    txn.io[static_cast<size_t>(o)][IoType::kRandRead] =
        static_cast<double>(1 + rng.NextBounded(3));
    if (rng.NextBounded(2) == 0) {
      txn.io[static_cast<size_t>(o)][IoType::kRandWrite] = 1.0;
    }
  }
  txn.cpu_ms = 0.05;
  txn.overhead_ms = 0.5;
  t.model = std::make_unique<OltpWorkloadModel>(
      "random-" + std::to_string(index), t.schema.get(), box,
      std::vector<TxnType>{txn}, 40.0, 3600.0 * 1000.0);
  t.problem.schema = t.schema.get();
  t.problem.box = box;
  t.problem.workload = t.model.get();
  t.problem.relative_sla = rng.NextUniform(0.05, 0.5);
  return t;
}

TEST(FleetPoolOracleTest, EqualSizeObjectsFireTheWindowedPrune) {
  Rng rng(20261021);
  const BoxConfig box2 = MakeBox2();
  const BoxConfig box1 = MakeBox1();
  int pruned = 0;
  int pruned_below_space0 = 0;
  for (int i = 0; i < 40; ++i) {
    const BoxConfig* box = i % 2 == 0 ? &box2 : &box1;
    const RandomTenant t = MakeRandomTenant(rng, box, i);
    for (bool fast : {true, false}) {
      for (FleetPoolMode mode :
           {FleetPoolMode::kEnumerate, FleetPoolMode::kSearch}) {
        FleetConfig config;
        config.pool_mode = mode;
        config.options.use_fast_eval = fast;
        const OraclePool want = OracleBuildPool(t.problem, box, config);
        ExpectSamePool(BuildPool(t.problem, box, config), want,
                       "random tenant " + std::to_string(i) +
                           (fast ? " fast" : " full") +
                           (mode == FleetPoolMode::kSearch ? " search"
                                                           : " enumerate"));
        pruned += want.feasible - static_cast<int>(want.placements.size());
        pruned_below_space0 += want.pruned_below_space0;
      }
    }
  }
  // The comparison is only meaningful if the prune removed candidates,
  // including ones whose dominator ties their space only up to rounding.
  EXPECT_GT(pruned, 0);
  EXPECT_GT(pruned_below_space0, 0);
}

TEST(FleetPoolOracleTest, PoolKeyEdgeCasesMatchTheStringKey) {
  // Two generator runs with one seed: fingerprint-equal schemas and
  // same-named workloads behind distinct pointers.
  const SyntheticFleet a = MakeSyntheticFleet(2, 5);
  const SyntheticFleet b = MakeSyntheticFleet(2, 5);
  const DotProblem base = a.tenants[0].problem;
  ASSERT_NE(base.workload, b.tenants[0].problem.workload);
  ASSERT_EQ(base.workload->name(), b.tenants[0].problem.workload->name());

  const auto nan_with = [](uint64_t payload) {
    const uint64_t bits = 0x7ff8000000000000ULL | payload;
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  };
  PerfTargets targets_x;
  PerfTargets targets_y;
  WorkloadProfiles profiles_x(a.box->NumClasses());
  WorkloadProfiles profiles_y(a.box->NumClasses());

  std::vector<FleetTenant> tenants;
  const auto add = [&](const std::string& name, DotProblem p) {
    FleetTenant t;
    t.name = name;
    t.problem = std::move(p);
    tenants.push_back(std::move(t));
  };
  add("base", base);
  add("other-pointers", b.tenants[0].problem);
  add("second-class", a.tenants[1].problem);
  DotProblem p = base;
  p.relative_sla = 0.0;
  add("sla+0", p);
  p.relative_sla = -0.0;
  add("sla-0", p);
  p.relative_sla = 0.0;
  add("sla+0-again", p);
  p = base;
  p.io_scale_hint = {1.0, nan_with(1)};
  add("nan1", p);
  add("nan1-again", p);
  p.io_scale_hint = {1.0, nan_with(2)};
  add("nan2", p);
  p.io_scale_hint = {1.0};
  add("short-hint", p);
  p = base;
  p.targets_override = &targets_x;
  add("targets-x", p);
  add("targets-x-again", p);
  p.targets_override = &targets_y;
  add("targets-y", p);
  p = base;
  p.profiles = &profiles_x;
  add("profiles-x", p);
  p.profiles = &profiles_y;
  add("profiles-y", p);
  p = base;
  p.cost_model.discrete = true;
  add("discrete", p);
  p = base;
  p.tail_sla.percentile = 0.95;
  add("tail", p);

  const auto pool_of = [&](const PoolAssignment& pa, const std::string& n) {
    for (size_t i = 0; i < tenants.size(); ++i) {
      if (tenants[i].name == n) return pa.pool_of[i];
    }
    return -1;
  };
  for (FleetPoolMode mode :
       {FleetPoolMode::kEnumerate, FleetPoolMode::kSearch}) {
    for (EpochSearch search : {EpochSearch::kExact, EpochSearch::kDot}) {
      for (bool share : {true, false}) {
        FleetConfig config;
        config.pool_mode = mode;
        config.search = search;
        config.share_pools = share;
        const std::string what =
            std::string(mode == FleetPoolMode::kSearch ? "search" : "enum") +
            (search == EpochSearch::kDot ? "/dot" : "/exact") +
            (share ? " shared" : " unshared");
        ExpectSameAssignment(tenants, config, what);
        if (!share) continue;
        // The rules themselves, so the oracle cannot agree by accident.
        const PoolAssignment pa = AssignPools(tenants, config);
        EXPECT_EQ(pool_of(pa, "other-pointers"), pool_of(pa, "base")) << what;
        EXPECT_NE(pool_of(pa, "second-class"), pool_of(pa, "base")) << what;
        EXPECT_NE(pool_of(pa, "sla+0"), pool_of(pa, "sla-0")) << what;
        EXPECT_EQ(pool_of(pa, "sla+0"), pool_of(pa, "sla+0-again")) << what;
        EXPECT_EQ(pool_of(pa, "nan1"), pool_of(pa, "nan1-again")) << what;
        EXPECT_NE(pool_of(pa, "nan1"), pool_of(pa, "nan2")) << what;
        EXPECT_NE(pool_of(pa, "short-hint"), pool_of(pa, "nan1")) << what;
        EXPECT_EQ(pool_of(pa, "targets-x"), pool_of(pa, "targets-x-again"))
            << what;
        EXPECT_NE(pool_of(pa, "targets-x"), pool_of(pa, "targets-y")) << what;
        EXPECT_NE(pool_of(pa, "discrete"), pool_of(pa, "base")) << what;
        EXPECT_NE(pool_of(pa, "tail"), pool_of(pa, "base")) << what;
        const bool profiles_keyed =
            mode == FleetPoolMode::kSearch && search == EpochSearch::kDot;
        EXPECT_EQ(pool_of(pa, "profiles-x") != pool_of(pa, "profiles-y"),
                  profiles_keyed)
            << what;
        EXPECT_EQ(pool_of(pa, "profiles-x") != pool_of(pa, "base"),
                  profiles_keyed)
            << what;
      }
    }
  }
}

}  // namespace
}  // namespace dot
