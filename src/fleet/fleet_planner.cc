#include "fleet/fleet_planner.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <utility>

#include "common/check.h"
#include "common/clock.h"
#include "common/thread_pool.h"
#include "dot/bnb_search.h"
#include "dot/eval_tables.h"
#include "dot/layout.h"
#include "dot/optimizer.h"
#include "workload/workload.h"

namespace dot {

namespace {

/// Relative tolerance of the fleet-wide feasibility checks: fair shares
/// are computed as B·w_i with Σ w_i = 1, so re-summing the shares can
/// drift from B by ULPs; a selection must not flip infeasible over that.
constexpr double kFleetFeasTol = 1e-9;
constexpr double kEps = 1e-12;

void AppendU64(uint64_t v, std::string* out) {
  static const char* kHex = "0123456789abcdef";
  for (int shift = 60; shift >= 0; shift -= 4) {
    out->push_back(kHex[(v >> shift) & 0xf]);
  }
  out->push_back('|');
}

void AppendBits(double v, std::string* out) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  AppendU64(bits, out);
}

void AppendPtr(const void* p, std::string* out) {
  AppendU64(reinterpret_cast<uintptr_t>(p), out);
}

/// The pool cache key: everything the pool's scores depend on. Same key =>
/// same pool, by the FleetConfig::share_pools contract. Pointer-keyed
/// inputs (targets_override, profiles) share only on pointer identity —
/// conservative, never wrong.
std::string PoolKey(const DotProblem& p, const FleetConfig& config) {
  std::string key;
  key.reserve(128);
  AppendU64(p.schema->Fingerprint(), &key);
  key += p.workload->name();
  key.push_back('|');
  AppendBits(p.relative_sla, &key);
  key.push_back(p.cost_model.discrete ? '1' : '0');
  key.push_back('|');
  AppendBits(p.cost_model.alpha, &key);
  AppendBits(p.tail_sla.percentile, &key);
  AppendBits(p.tail_sla.latency_cv, &key);
  for (double s : p.io_scale_hint) AppendBits(s, &key);
  key.push_back('|');
  AppendPtr(p.targets_override, &key);
  if (config.pool_mode == FleetPoolMode::kSearch &&
      config.search == EpochSearch::kDot) {
    AppendPtr(p.profiles, &key);
  }
  return key;
}

/// One shared candidate pool: the tenant's feasible frontier, sorted under
/// the BetterCandidate order (toc, then lexicographically lowest
/// placement), so index 0 is the solo optimum and ties anywhere resolve
/// to the lowest index.
struct TenantPool {
  Status status = Status::OK();
  std::vector<std::vector<int>> placements;
  std::vector<double> toc;
  std::vector<double> cost;
  /// Flattened [candidate * num_classes + class] space, GB.
  std::vector<double> space;
  long long layouts_evaluated = 0;

  int size() const { return static_cast<int>(placements.size()); }
};

TenantPool BuildPool(const DotProblem& tenant_problem, const BoxConfig* box,
                     const FleetConfig& config) {
  TenantPool out;
  // One engine setup per fleet run; the pool build itself is serial (the
  // planner parallelizes across distinct pools, into distinct slots).
  DotProblem p = tenant_problem;
  p.options = config.options;
  p.options.num_threads = 1;
  const int n = p.schema->NumObjects();
  const int m = box->NumClasses();

  std::vector<std::vector<int>> candidates;
  if (config.pool_mode == FleetPoolMode::kEnumerate) {
    const long long space = LayoutSpaceSize(n, m);
    if (space > config.max_pool_layouts) {
      out.status = Status::OutOfRange(
          "tenant layout space " + std::to_string(m) + "^" +
          std::to_string(n) +
          " exceeds max_pool_layouts; use FleetPoolMode::kSearch");
      return out;
    }
    candidates.reserve(static_cast<size_t>(space));
    for (long long idx = 0; idx < space; ++idx) {
      candidates.push_back(DecodeLayoutIndex(idx, n, m));
    }
  } else {
    // The ReprovisionPlanner seeding path (solo optimum), plus the M
    // uniform layouts as deterministic downgrade/upgrade anchors.
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

  // Score every candidate through the searches' own kernel (the TOC fast
  // path — bit-identical to the full estimate, dot/eval_tables.h).
  const DotOptimizer estimator(p);
  const FastEvaluator evaluator(estimator);
  std::vector<Layout> layouts;
  std::vector<CandidateEval> evals;
  layouts.reserve(candidates.size());
  evals.reserve(candidates.size());
  for (const std::vector<int>& c : candidates) {
    layouts.emplace_back(p.schema, box, c);
    evals.push_back(evaluator.EvaluateQuick(c));
  }
  out.layouts_evaluated += static_cast<long long>(candidates.size());

  // Keep the feasible ones, in BetterCandidate order.
  std::vector<int> order;
  for (size_t i = 0; i < evals.size(); ++i) {
    if (evals[i].feasible) order.push_back(static_cast<int>(i));
  }
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return BetterCandidate(evals[static_cast<size_t>(a)].toc,
                           candidates[static_cast<size_t>(a)],
                           evals[static_cast<size_t>(b)].toc,
                           candidates[static_cast<size_t>(b)]);
  });

  // Dominance prune over (toc, cost, per-class space): a candidate
  // survives only if no earlier (hence no-worse-TOC) candidate weakly
  // dominates it on cost and every class. Exact all-equal ties keep the
  // earlier — lexicographically lower — placement, which is the fleet's
  // determinism tie-break.
  std::vector<std::vector<double>> kept_space;
  for (int idx : order) {
    const CandidateEval& eval = evals[static_cast<size_t>(idx)];
    const SpaceUsage used =
        layouts[static_cast<size_t>(idx)].SpaceByClass();
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
    }
    if (dominated) continue;
    out.placements.push_back(candidates[static_cast<size_t>(idx)]);
    out.toc.push_back(eval.toc);
    out.cost.push_back(eval.cost_cents_per_hour);
    for (int j = 0; j < m; ++j) {
      out.space.push_back(used[static_cast<size_t>(j)]);
    }
    kept_space.push_back(used);
  }
  return out;
}

/// Fleet totals of one selection, accumulated in tenant-index order — the
/// ONE implementation of the FleetPlan accounting contract.
struct FleetTotals {
  double toc = 0.0;
  double cost = 0.0;
  std::vector<double> used;
};

FleetTotals ComputeTotals(const std::vector<int>& choice,
                          const std::vector<const TenantPool*>& pools,
                          int num_classes) {
  FleetTotals t;
  t.used.assign(static_cast<size_t>(num_classes), 0.0);
  for (size_t i = 0; i < choice.size(); ++i) {
    const TenantPool& pool = *pools[i];
    const size_t c = static_cast<size_t>(choice[i]);
    t.toc += pool.toc[c];
    t.cost += pool.cost[c];
    for (int j = 0; j < num_classes; ++j) {
      t.used[static_cast<size_t>(j)] +=
          pool.space[c * static_cast<size_t>(num_classes) +
                     static_cast<size_t>(j)];
    }
  }
  return t;
}

bool FleetFeasible(const FleetTotals& t, const FleetConstraints& c) {
  if (c.budget_cents_per_hour > 0.0 &&
      t.cost > c.budget_cents_per_hour * (1.0 + kFleetFeasTol)) {
    return false;
  }
  for (size_t j = 0; j < c.capacity_gb.size(); ++j) {
    if (t.used[j] > c.capacity_gb[j] * (1.0 + kFleetFeasTol)) return false;
  }
  return true;
}

/// Normalized total violation: 0 iff FleetFeasible. The repair pass's
/// potential function — every applied exchange strictly decreases it.
double Violation(const FleetTotals& t, const FleetConstraints& c) {
  double v = 0.0;
  if (c.budget_cents_per_hour > 0.0) {
    const double cap = c.budget_cents_per_hour * (1.0 + kFleetFeasTol);
    if (t.cost > cap) v += (t.cost - cap) / std::max(cap, kEps);
  }
  for (size_t j = 0; j < c.capacity_gb.size(); ++j) {
    const double cap = c.capacity_gb[j] * (1.0 + kFleetFeasTol);
    if (t.used[j] > cap) v += (t.used[j] - cap) / std::max(cap, kEps);
  }
  return v;
}

FleetTotals ApplyMove(const FleetTotals& t, const TenantPool& pool, int from,
                      int to, int num_classes) {
  FleetTotals out = t;
  const size_t f = static_cast<size_t>(from);
  const size_t c = static_cast<size_t>(to);
  out.toc += pool.toc[c] - pool.toc[f];
  out.cost += pool.cost[c] - pool.cost[f];
  for (int j = 0; j < num_classes; ++j) {
    out.used[static_cast<size_t>(j)] +=
        pool.space[c * static_cast<size_t>(num_classes) +
                   static_cast<size_t>(j)] -
        pool.space[f * static_cast<size_t>(num_classes) +
                   static_cast<size_t>(j)];
  }
  return out;
}

/// Deterministic greedy exchange: walk tenants onto candidates that
/// strictly reduce the violation, cheapest ΔTOC per unit of violation
/// removed first, ties by (tenant, candidate) index. Batch rounds — all
/// improving moves are collected, sorted once, then re-checked and applied
/// sequentially — keep the pass O(rounds · N · K) instead of re-sorting
/// after every apply. Returns true when the selection is feasible.
bool ExchangeRepair(const std::vector<const TenantPool*>& pools,
                    const FleetConstraints& constraints, int num_classes,
                    std::vector<int>* choice, FleetTotals* totals,
                    int* moves_applied) {
  constexpr int kMaxRounds = 64;
  struct Move {
    double score = 0.0;
    int tenant = 0;
    int candidate = 0;
  };
  for (int round = 0; round < kMaxRounds; ++round) {
    double viol = Violation(*totals, constraints);
    if (viol <= 0.0) return true;
    std::vector<Move> moves;
    for (size_t i = 0; i < choice->size(); ++i) {
      const TenantPool& pool = *pools[i];
      const int cur = (*choice)[i];
      for (int c = 0; c < pool.size(); ++c) {
        if (c == cur) continue;
        const FleetTotals next =
            ApplyMove(*totals, pool, cur, c, num_classes);
        const double dv = Violation(next, constraints) - viol;
        if (dv >= -kEps) continue;
        Move mv;
        mv.score = (pool.toc[static_cast<size_t>(c)] -
                    pool.toc[static_cast<size_t>(cur)]) /
                   (-dv);
        mv.tenant = static_cast<int>(i);
        mv.candidate = c;
        moves.push_back(mv);
      }
    }
    if (moves.empty()) return false;
    std::sort(moves.begin(), moves.end(), [](const Move& a, const Move& b) {
      if (a.score != b.score) return a.score < b.score;
      if (a.tenant != b.tenant) return a.tenant < b.tenant;
      return a.candidate < b.candidate;
    });
    bool applied_any = false;
    for (const Move& mv : moves) {
      const size_t i = static_cast<size_t>(mv.tenant);
      const int cur = (*choice)[i];
      if (cur == mv.candidate) continue;
      const FleetTotals next =
          ApplyMove(*totals, *pools[i], cur, mv.candidate, num_classes);
      const double dv = Violation(next, constraints) - viol;
      if (dv >= -kEps) continue;  // stale after earlier applies
      (*choice)[i] = mv.candidate;
      *totals = next;
      viol += dv;
      ++*moves_applied;
      applied_any = true;
      if (viol <= 0.0) break;
    }
    // Kill incremental drift before the feasibility verdict: totals are
    // re-accumulated in the contract order.
    *totals = ComputeTotals(*choice, pools, num_classes);
    if (Violation(*totals, constraints) <= 0.0) return true;
    if (!applied_any) return false;
  }
  return false;
}

/// Deterministic greedy improvement: moves that strictly lower a tenant's
/// TOC while the fleet stays feasible, best ΔTOC first, ties by (tenant,
/// candidate). Monotone in Σ TOC, so it terminates; it can only tighten
/// the never-lose guarantee.
void ImprovementPass(const std::vector<const TenantPool*>& pools,
                     const FleetConstraints& constraints, int num_classes,
                     std::vector<int>* choice, FleetTotals* totals,
                     int* moves_applied) {
  constexpr int kMaxRounds = 64;
  struct Move {
    double delta_toc = 0.0;
    int tenant = 0;
    int candidate = 0;
  };
  for (int round = 0; round < kMaxRounds; ++round) {
    std::vector<Move> moves;
    for (size_t i = 0; i < choice->size(); ++i) {
      const TenantPool& pool = *pools[i];
      const int cur = (*choice)[i];
      for (int c = 0; c < pool.size(); ++c) {
        if (c == cur) continue;
        const double dt = pool.toc[static_cast<size_t>(c)] -
                          pool.toc[static_cast<size_t>(cur)];
        if (dt >= 0.0) continue;
        const FleetTotals next =
            ApplyMove(*totals, pool, cur, c, num_classes);
        if (!FleetFeasible(next, constraints)) continue;
        Move mv;
        mv.delta_toc = dt;
        mv.tenant = static_cast<int>(i);
        mv.candidate = c;
        moves.push_back(mv);
      }
    }
    if (moves.empty()) return;
    std::sort(moves.begin(), moves.end(), [](const Move& a, const Move& b) {
      if (a.delta_toc != b.delta_toc) return a.delta_toc < b.delta_toc;
      if (a.tenant != b.tenant) return a.tenant < b.tenant;
      return a.candidate < b.candidate;
    });
    bool applied_any = false;
    for (const Move& mv : moves) {
      const size_t i = static_cast<size_t>(mv.tenant);
      const int cur = (*choice)[i];
      if (cur == mv.candidate) continue;
      const double dt = pools[i]->toc[static_cast<size_t>(mv.candidate)] -
                        pools[i]->toc[static_cast<size_t>(cur)];
      if (dt >= 0.0) continue;
      const FleetTotals next =
          ApplyMove(*totals, *pools[i], cur, mv.candidate, num_classes);
      if (!FleetFeasible(next, constraints)) continue;
      (*choice)[i] = mv.candidate;
      *totals = next;
      ++*moves_applied;
      applied_any = true;
    }
    *totals = ComputeTotals(*choice, pools, num_classes);
    if (!applied_any) return;
  }
}

}  // namespace

FleetPlanner::FleetPlanner(const BoxConfig* box, FleetConfig config)
    : box_(box), config_(std::move(config)) {
  DOT_CHECK(box_ != nullptr);
  DOT_CHECK(config_.max_pool_layouts > 0);
  DOT_CHECK(config_.price_iterations >= 1);
  DOT_CHECK(config_.constraints.capacity_gb.empty() ||
            static_cast<int>(config_.constraints.capacity_gb.size()) ==
                box_->NumClasses())
      << "capacity_gb must be empty or have one entry per storage class";
}

FleetPlan FleetPlanner::Plan(const std::vector<FleetTenant>& tenants) const {
  const double start_ms = NowMs();
  const int m = box_->NumClasses();
  FleetPlan plan;
  plan.used_gb.assign(static_cast<size_t>(m), 0.0);
  plan.capacity_price.assign(static_cast<size_t>(m), 0.0);
  if (tenants.empty()) {
    plan.status = Status::InvalidArgument("fleet has no tenants");
    return plan;
  }
  for (const FleetTenant& t : tenants) {
    if (t.problem.schema == nullptr || t.problem.workload == nullptr) {
      plan.status = Status::InvalidArgument(
          "tenant " + t.name + " has no schema or workload");
      return plan;
    }
    if (t.problem.box != box_) {
      plan.status = Status::InvalidArgument(
          "tenant " + t.name + " references a different box");
      return plan;
    }
    if (t.problem.ensemble != nullptr) {
      plan.status = Status::InvalidArgument(
          "tenant " + t.name +
          " carries a scenario ensemble; fleet mode is point-forecast");
      return plan;
    }
  }
  const int num_tenants = static_cast<int>(tenants.size());

  // --- Pool assignment: first-occurrence order over cache keys, so pool
  // ids — and everything downstream — are independent of threading.
  std::vector<int> tenant_pool(static_cast<size_t>(num_tenants), -1);
  std::map<std::string, int> key_to_pool;
  std::vector<int> pool_reference;  // pool id -> first tenant index
  for (int i = 0; i < num_tenants; ++i) {
    if (!config_.share_pools) {
      tenant_pool[static_cast<size_t>(i)] =
          static_cast<int>(pool_reference.size());
      pool_reference.push_back(i);
      continue;
    }
    const std::string key =
        PoolKey(tenants[static_cast<size_t>(i)].problem, config_);
    const auto it = key_to_pool.find(key);
    if (it != key_to_pool.end()) {
      tenant_pool[static_cast<size_t>(i)] = it->second;
      ++plan.pool_cache_hits;
    } else {
      const int id = static_cast<int>(pool_reference.size());
      key_to_pool.emplace(key, id);
      tenant_pool[static_cast<size_t>(i)] = id;
      pool_reference.push_back(i);
    }
  }
  const int num_pools = static_cast<int>(pool_reference.size());
  plan.pool_builds = num_pools;

  // --- Build the distinct pools, fanned out into distinct slots.
  std::vector<TenantPool> pools(static_cast<size_t>(num_pools));
  ThreadPool threads(config_.options.num_threads);
  threads.ParallelFor(0, num_pools, [&](int64_t pid) {
    pools[static_cast<size_t>(pid)] = BuildPool(
        tenants[static_cast<size_t>(
                    pool_reference[static_cast<size_t>(pid)])]
            .problem,
        box_, config_);
  });
  for (int pid = 0; pid < num_pools; ++pid) {
    TenantPool& pool = pools[static_cast<size_t>(pid)];
    if (!pool.status.ok()) {
      plan.status = pool.status;
      return plan;
    }
    if (pool.size() == 0) {
      plan.status = Status::Infeasible(
          "tenant " +
          tenants[static_cast<size_t>(
                      pool_reference[static_cast<size_t>(pid)])]
              .name +
          " has no feasible layout for its own capacity and SLA");
      return plan;
    }
    plan.layouts_evaluated += pool.layouts_evaluated;
  }
  std::vector<const TenantPool*> by_tenant(
      static_cast<size_t>(num_tenants));
  for (int i = 0; i < num_tenants; ++i) {
    by_tenant[static_cast<size_t>(i)] =
        &pools[static_cast<size_t>(tenant_pool[static_cast<size_t>(i)])];
  }

  const FleetConstraints& cons = config_.constraints;
  const bool budget_active = cons.budget_cents_per_hour > 0.0;
  const bool capacity_active = !cons.capacity_gb.empty();

  // --- The zero-price selection: every tenant's solo optimum (pool[0]).
  // Its Σ TOC lower-bounds every selection, so if it is feasible it is THE
  // fleet optimum over the pools.
  std::vector<int> solo(static_cast<size_t>(num_tenants), 0);
  const FleetTotals solo_totals = ComputeTotals(solo, by_tenant, m);

  // --- The fleet's cost floor: every tenant on its cheapest candidate
  // (tenant-index order, like every total). Below Σ of these no selection
  // exists, so callers can sweep budgets from min_cost to the solo cost.
  std::vector<double> cheapest_cost(static_cast<size_t>(num_tenants), 0.0);
  for (int i = 0; i < num_tenants; ++i) {
    const TenantPool& pool = *by_tenant[static_cast<size_t>(i)];
    double cheapest = pool.cost[0];
    for (int c = 1; c < pool.size(); ++c) {
      cheapest = std::min(cheapest, pool.cost[static_cast<size_t>(c)]);
    }
    cheapest_cost[static_cast<size_t>(i)] = cheapest;
    plan.min_cost_cents_per_hour += cheapest;
  }

  // --- Independent fair-share baseline: tenant i provisions alone on a
  // share of the budget and capacity proportional to its minimum spend
  // (its cheapest candidate's cost) — the share a per-tenant operator
  // would have to sell it. Minimum-spend weights make the baseline
  // feasible whenever any selection is (share_i >= cheapest_i once the
  // budget covers Σ cheapest), so never-lose is a live comparison across
  // the whole feasible budget range, not a vacuous one.
  std::vector<double> weight(static_cast<size_t>(num_tenants), 0.0);
  {
    double total_cheapest = 0.0;
    for (int i = 0; i < num_tenants; ++i) {
      total_cheapest += cheapest_cost[static_cast<size_t>(i)];
    }
    for (int i = 0; i < num_tenants; ++i) {
      weight[static_cast<size_t>(i)] =
          total_cheapest > 0.0
              ? cheapest_cost[static_cast<size_t>(i)] / total_cheapest
              : 1.0 / num_tenants;
    }
  }
  std::vector<int> baseline(static_cast<size_t>(num_tenants), -1);
  plan.independent_feasible = true;
  for (int i = 0; i < num_tenants; ++i) {
    const TenantPool& pool = *by_tenant[static_cast<size_t>(i)];
    const double w = weight[static_cast<size_t>(i)];
    const double budget_share =
        budget_active ? cons.budget_cents_per_hour * w * (1.0 + kFleetFeasTol)
                      : std::numeric_limits<double>::infinity();
    int pick = -1;
    for (int c = 0; c < pool.size(); ++c) {
      if (pool.cost[static_cast<size_t>(c)] > budget_share) continue;
      bool fits = true;
      for (int j = 0; capacity_active && j < m; ++j) {
        const double cap_share =
            cons.capacity_gb[static_cast<size_t>(j)] * w *
            (1.0 + kFleetFeasTol);
        if (pool.space[static_cast<size_t>(c) * static_cast<size_t>(m) +
                       static_cast<size_t>(j)] > cap_share) {
          fits = false;
          break;
        }
      }
      if (fits) {
        pick = c;  // pools are toc-sorted: the first fit is the best fit
        break;
      }
    }
    if (pick < 0) {
      // No candidate fits this tenant's share: the baseline itself is
      // infeasible. Report its totals over each such tenant's cheapest
      // candidate (deterministic: lowest cost, ties by toc order = index).
      plan.independent_feasible = false;
      int cheapest = 0;
      for (int c = 1; c < pool.size(); ++c) {
        if (pool.cost[static_cast<size_t>(c)] <
            pool.cost[static_cast<size_t>(cheapest)]) {
          cheapest = c;
        }
      }
      pick = cheapest;
    }
    baseline[static_cast<size_t>(i)] = pick;
  }
  const FleetTotals baseline_totals = ComputeTotals(baseline, by_tenant, m);
  plan.independent_toc_cents_per_task = baseline_totals.toc;
  plan.independent_cost_cents_per_hour = baseline_totals.cost;

  // --- Decide the fleet selection.
  std::vector<int> choice;
  FleetTotals totals;
  bool feasible = false;

  if (FleetFeasible(solo_totals, cons)) {
    // Unconstrained (or slack) fleet: the solo optima win outright, and
    // with no coupling this reproduces dot::Solve per tenant bit for bit.
    choice = solo;
    totals = solo_totals;
    feasible = true;
  } else {
    // --- Lagrangian price decomposition. Prices are normalized so that
    // one unit of relative over-subscription moves the objective by about
    // one solo Σ TOC; the harmonic step keeps updates deterministic.
    double lambda = 0.0;
    std::vector<double> mu(static_cast<size_t>(m), 0.0);
    const double lambda_unit =
        solo_totals.toc / std::max(solo_totals.cost, kEps);
    std::vector<double> mu_unit(static_cast<size_t>(m), 0.0);
    for (int j = 0; j < m; ++j) {
      mu_unit[static_cast<size_t>(j)] =
          solo_totals.toc /
          std::max(solo_totals.used[static_cast<size_t>(j)], kEps);
    }
    std::vector<int> sel(static_cast<size_t>(num_tenants), 0);
    std::vector<int> best_feasible;
    double best_feasible_toc = 0.0;
    for (int r = 1; r <= config_.price_iterations; ++r) {
      threads.ParallelForChunked(0, num_tenants, 256, [&](int64_t i) {
        const TenantPool& pool = *by_tenant[static_cast<size_t>(i)];
        int arg = 0;
        double best = std::numeric_limits<double>::infinity();
        for (int c = 0; c < pool.size(); ++c) {
          double value = pool.toc[static_cast<size_t>(c)];
          if (budget_active) {
            value += lambda * pool.cost[static_cast<size_t>(c)];
          }
          for (int j = 0; capacity_active && j < m; ++j) {
            value += mu[static_cast<size_t>(j)] *
                     pool.space[static_cast<size_t>(c) *
                                    static_cast<size_t>(m) +
                                static_cast<size_t>(j)];
          }
          if (value < best) {  // strict: ties keep the lower index
            best = value;
            arg = c;
          }
        }
        sel[static_cast<size_t>(i)] = arg;
      });
      const FleetTotals t = ComputeTotals(sel, by_tenant, m);
      if (FleetFeasible(t, cons) &&
          (best_feasible.empty() || t.toc < best_feasible_toc)) {
        best_feasible = sel;
        best_feasible_toc = t.toc;
      }
      const double step = 1.0 / r;
      if (budget_active) {
        const double g = (t.cost - cons.budget_cents_per_hour) /
                         std::max(cons.budget_cents_per_hour, kEps);
        lambda = std::max(0.0, lambda + step * lambda_unit * g);
      }
      for (int j = 0; capacity_active && j < m; ++j) {
        const double cap = cons.capacity_gb[static_cast<size_t>(j)];
        const double g =
            (t.used[static_cast<size_t>(j)] - cap) / std::max(cap, kEps);
        mu[static_cast<size_t>(j)] = std::max(
            0.0, mu[static_cast<size_t>(j)] +
                     step * mu_unit[static_cast<size_t>(j)] * g);
      }
      plan.price_iterations_run = r;
    }
    plan.budget_price = lambda;
    plan.capacity_price = mu;

    // --- Repair the final relaxation selection, then pick the best of
    // {repaired, best price-feasible, independent baseline} — fixed
    // precedence on exact ties, so the choice is deterministic and the
    // never-lose guarantee is structural.
    std::vector<int> repaired = sel;
    FleetTotals repaired_totals = ComputeTotals(repaired, by_tenant, m);
    const bool repaired_ok =
        ExchangeRepair(by_tenant, cons, m, &repaired, &repaired_totals,
                       &plan.exchange_moves);
    if (repaired_ok) {
      choice = repaired;
      totals = repaired_totals;
      feasible = true;
    }
    if (!best_feasible.empty()) {
      const FleetTotals t = ComputeTotals(best_feasible, by_tenant, m);
      if (!feasible || t.toc < totals.toc) {
        choice = best_feasible;
        totals = t;
        feasible = true;
      }
    }
    if (plan.independent_feasible &&
        FleetFeasible(baseline_totals, cons) &&
        (!feasible || baseline_totals.toc < totals.toc)) {
      choice = baseline;
      totals = baseline_totals;
      feasible = true;
    }
  }

  if (!feasible) {
    plan.status = Status::Infeasible(
        "no candidate selection satisfies the fleet budget and capacity");
    plan.plan_ms = NowMs() - start_ms;
    return plan;
  }

  // --- Reclaim slack: greedy TOC improvement, feasibility-preserving.
  ImprovementPass(by_tenant, cons, m, &choice, &totals,
                  &plan.improve_moves);

  plan.fell_back_to_baseline = plan.independent_feasible &&
                               choice == baseline;
  plan.tenants.resize(static_cast<size_t>(num_tenants));
  for (int i = 0; i < num_tenants; ++i) {
    const TenantPool& pool = *by_tenant[static_cast<size_t>(i)];
    const size_t c = static_cast<size_t>(choice[static_cast<size_t>(i)]);
    FleetTenantChoice& out = plan.tenants[static_cast<size_t>(i)];
    out.placement = pool.placements[c];
    out.toc_cents_per_task = pool.toc[c];
    out.cost_cents_per_hour = pool.cost[c];
    out.pool_id = tenant_pool[static_cast<size_t>(i)];
    out.candidate = static_cast<int>(c);
  }
  plan.total_toc_cents_per_task = totals.toc;
  plan.total_cost_cents_per_hour = totals.cost;
  plan.used_gb = totals.used;
  plan.plan_ms = NowMs() - start_ms;
  return plan;
}

}  // namespace dot
