#include "fleet/fleet_planner.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>

#include "common/check.h"
#include "common/clock.h"
#include "common/thread_pool.h"
#include "fleet/fleet_pools.h"

namespace dot {

namespace {

/// Relative tolerance of the fleet-wide feasibility checks: fair shares
/// are computed as B·w_i with Σ w_i = 1, so re-summing the shares can
/// drift from B by ULPs; a selection must not flip infeasible over that.
constexpr double kFleetFeasTol = 1e-9;
constexpr double kEps = 1e-12;

/// The distinct pools and which one each tenant draws from.
struct TenantPools {
  std::vector<TenantPool> pools;
  std::vector<int> pool_of;  // tenant -> pool id

  const TenantPool& operator[](size_t tenant) const {
    return pools[static_cast<size_t>(pool_of[tenant])];
  }

  /// A per-pool candidate choice, handed to each pool's tenants.
  std::vector<int> ForTenants(const std::vector<int>& per_pool) const {
    std::vector<int> out(pool_of.size());
    for (size_t i = 0; i < pool_of.size(); ++i) {
      out[i] = per_pool[static_cast<size_t>(pool_of[i])];
    }
    return out;
  }
};

/// Fleet totals of one selection, accumulated in tenant-index order — the
/// ONE implementation of the FleetPlan accounting contract.
struct FleetTotals {
  double toc = 0.0;
  double cost = 0.0;
  std::vector<double> used;
};

FleetTotals ComputeTotals(const std::vector<int>& choice,
                          const TenantPools& pools, int num_classes) {
  FleetTotals t;
  t.used.assign(static_cast<size_t>(num_classes), 0.0);
  for (size_t i = 0; i < choice.size(); ++i) {
    const TenantPool& pool = pools[i];
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

/// The violation and feasibility rules, over a selection's cost and a
/// per-class use accessor, so whole totals and probed moves share one
/// formula.
template <typename UsedAt>
bool FeasibleOf(double cost, const UsedAt& used_at,
                const FleetConstraints& c) {
  if (c.budget_cents_per_hour > 0.0 &&
      cost > c.budget_cents_per_hour * (1.0 + kFleetFeasTol)) {
    return false;
  }
  for (size_t j = 0; j < c.capacity_gb.size(); ++j) {
    if (used_at(j) > c.capacity_gb[j] * (1.0 + kFleetFeasTol)) return false;
  }
  return true;
}

template <typename UsedAt>
double ViolationOf(double cost, const UsedAt& used_at,
                   const FleetConstraints& c) {
  double v = 0.0;
  if (c.budget_cents_per_hour > 0.0) {
    const double cap = c.budget_cents_per_hour * (1.0 + kFleetFeasTol);
    if (cost > cap) v += (cost - cap) / std::max(cap, kEps);
  }
  for (size_t j = 0; j < c.capacity_gb.size(); ++j) {
    const double cap = c.capacity_gb[j] * (1.0 + kFleetFeasTol);
    const double used = used_at(j);
    if (used > cap) v += (used - cap) / std::max(cap, kEps);
  }
  return v;
}

bool FleetFeasible(const FleetTotals& t, const FleetConstraints& c) {
  return FeasibleOf(t.cost, [&](size_t j) { return t.used[j]; }, c);
}

/// Normalized total violation: 0 iff FleetFeasible. The repair pass's
/// potential function — every applied exchange strictly decreases it.
double Violation(const FleetTotals& t, const FleetConstraints& c) {
  return ViolationOf(t.cost, [&](size_t j) { return t.used[j]; }, c);
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

/// One tenant's move from candidate `from` to `to`, probed against fleet
/// totals without building them: cost and class use are the exact
/// expressions ApplyMove evaluates, so a probe and the applied move agree
/// bit for bit.
struct MoveProbe {
  const FleetTotals& t;
  const TenantPool& pool;
  size_t from;
  size_t to;
  size_t num_classes;

  double cost() const { return t.cost + (pool.cost[to] - pool.cost[from]); }
  double used(size_t j) const {
    return t.used[j] + (pool.space[to * num_classes + j] -
                        pool.space[from * num_classes + j]);
  }
  double Violation(const FleetConstraints& c) const {
    return ViolationOf(cost(), [this](size_t j) { return used(j); }, c);
  }
  bool Feasible(const FleetConstraints& c) const {
    return FeasibleOf(cost(), [this](size_t j) { return used(j); }, c);
  }
};

/// One repair move: a tenant onto a candidate, ordered by `key` (the
/// pass's merit, lower first), then tenant, then candidate.
struct Move {
  double key = 0.0;
  int tenant = 0;
  int candidate = 0;
};

/// Collects one round's moves. Totals stay fixed while a round collects,
/// so every tenant of a pool that sits on the same candidate has the same
/// moves: `probe(pool, cur, c, &key)` runs once per (pool, current
/// candidate, c) and the surviving (c, key) row is reused for the rest.
/// The list and its sorted order are exactly the per-tenant scan's.
template <typename Probe>
std::vector<Move> CollectMoves(const TenantPools& pools,
                               const std::vector<int>& choice,
                               const Probe& probe) {
  std::vector<size_t> first_slot(pools.pools.size() + 1, 0);
  for (size_t p = 0; p < pools.pools.size(); ++p) {
    first_slot[p + 1] =
        first_slot[p] + static_cast<size_t>(pools.pools[p].size());
  }
  std::vector<int> row_of(first_slot.back(), -1);
  std::vector<std::vector<std::pair<int, double>>> rows;
  std::vector<Move> moves;
  for (size_t i = 0; i < choice.size(); ++i) {
    const int cur = choice[i];
    const size_t slot =
        first_slot[static_cast<size_t>(pools.pool_of[i])] +
        static_cast<size_t>(cur);
    if (row_of[slot] < 0) {
      row_of[slot] = static_cast<int>(rows.size());
      rows.emplace_back();
      const TenantPool& pool = pools[i];
      for (int c = 0; c < pool.size(); ++c) {
        double key = 0.0;
        if (c != cur && probe(pool, cur, c, &key)) {
          rows.back().emplace_back(c, key);
        }
      }
    }
    for (const auto& [c, key] : rows[static_cast<size_t>(row_of[slot])]) {
      moves.push_back(Move{key, static_cast<int>(i), c});
    }
  }
  std::sort(moves.begin(), moves.end(), [](const Move& a, const Move& b) {
    if (a.key != b.key) return a.key < b.key;
    if (a.tenant != b.tenant) return a.tenant < b.tenant;
    return a.candidate < b.candidate;
  });
  return moves;
}

/// Deterministic greedy exchange: walk tenants onto candidates that
/// strictly reduce the violation, cheapest ΔTOC per unit of violation
/// removed first, ties by (tenant, candidate) index. Batch rounds — all
/// improving moves are collected, sorted once, then re-checked and applied
/// sequentially — keep the pass O(rounds · N · K) instead of re-sorting
/// after every apply. Returns true when the selection is feasible.
bool ExchangeRepair(const TenantPools& pools,
                    const FleetConstraints& constraints, int num_classes,
                    std::vector<int>* choice, FleetTotals* totals,
                    int* moves_applied) {
  constexpr int kMaxRounds = 64;
  const size_t m = static_cast<size_t>(num_classes);
  for (int round = 0; round < kMaxRounds; ++round) {
    double viol = Violation(*totals, constraints);
    if (viol <= 0.0) return true;
    const std::vector<Move> moves = CollectMoves(
        pools, *choice,
        [&](const TenantPool& pool, int cur, int c, double* key) {
          const MoveProbe probe{*totals, pool, static_cast<size_t>(cur),
                                static_cast<size_t>(c), m};
          const double dv = probe.Violation(constraints) - viol;
          if (dv >= -kEps) return false;
          *key = (pool.toc[static_cast<size_t>(c)] -
                  pool.toc[static_cast<size_t>(cur)]) /
                 (-dv);
          return true;
        });
    if (moves.empty()) return false;
    bool applied_any = false;
    for (const Move& mv : moves) {
      const size_t i = static_cast<size_t>(mv.tenant);
      const int cur = (*choice)[i];
      if (cur == mv.candidate) continue;
      const MoveProbe probe{*totals, pools[i], static_cast<size_t>(cur),
                            static_cast<size_t>(mv.candidate), m};
      const double dv = probe.Violation(constraints) - viol;
      if (dv >= -kEps) continue;  // stale after earlier applies
      *totals = ApplyMove(*totals, pools[i], cur, mv.candidate, num_classes);
      (*choice)[i] = mv.candidate;
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
void ImprovementPass(const TenantPools& pools,
                     const FleetConstraints& constraints, int num_classes,
                     std::vector<int>* choice, FleetTotals* totals,
                     int* moves_applied) {
  constexpr int kMaxRounds = 64;
  const size_t m = static_cast<size_t>(num_classes);
  // Against the current totals: the move strictly lowers the tenant's TOC
  // (by *dt) and keeps the fleet feasible.
  const auto improves = [&](const TenantPool& pool, int cur, int c,
                            double* dt) {
    *dt = pool.toc[static_cast<size_t>(c)] -
          pool.toc[static_cast<size_t>(cur)];
    if (*dt >= 0.0) return false;
    const MoveProbe probe{*totals, pool, static_cast<size_t>(cur),
                          static_cast<size_t>(c), m};
    return probe.Feasible(constraints);
  };
  for (int round = 0; round < kMaxRounds; ++round) {
    const std::vector<Move> moves = CollectMoves(pools, *choice, improves);
    if (moves.empty()) return;
    bool applied_any = false;
    for (const Move& mv : moves) {
      const size_t i = static_cast<size_t>(mv.tenant);
      const int cur = (*choice)[i];
      if (cur == mv.candidate) continue;
      double dt = 0.0;
      if (!improves(pools[i], cur, mv.candidate, &dt)) continue;
      *totals = ApplyMove(*totals, pools[i], cur, mv.candidate, num_classes);
      (*choice)[i] = mv.candidate;
      ++*moves_applied;
      applied_any = true;
    }
    *totals = ComputeTotals(*choice, pools, num_classes);
    if (!applied_any) return;
  }
}

}  // namespace

Status ValidateFleetConfig(const FleetConfig& config,
                          const BoxConfig& box) {
  if (config.max_pool_layouts <= 0) {
    return Status::InvalidArgument("FleetConfig::max_pool_layouts must be > 0");
  }
  if (config.price_iterations < 1) {
    return Status::InvalidArgument(
        "FleetConfig::price_iterations must be >= 1");
  }
  const std::vector<double>& capacity = config.constraints.capacity_gb;
  if (!capacity.empty() &&
      static_cast<int>(capacity.size()) != box.NumClasses()) {
    return Status::InvalidArgument(
        "FleetConstraints::capacity_gb must be empty or have one entry "
        "per storage class");
  }
  return Status::OK();
}

FleetPlanner::FleetPlanner(const BoxConfig* box, FleetConfig config)
    : box_(box), config_(std::move(config)) {
  DOT_CHECK(box_ != nullptr);
}

FleetPlan FleetPlanner::Plan(const std::vector<FleetTenant>& tenants) const {
  const double start_ms = NowMs();
  const int m = box_->NumClasses();
  FleetPlan plan;
  plan.used_gb.assign(static_cast<size_t>(m), 0.0);
  plan.capacity_price.assign(static_cast<size_t>(m), 0.0);
  plan.status = ValidateFleetConfig(config_, *box_);
  if (!plan.status.ok()) return plan;
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

  // --- Pool assignment (first-occurrence order, so pool ids do not
  // depend on threading).
  TenantPools pools;
  PoolAssignment assignment = AssignPools(tenants, config_);
  pools.pool_of = std::move(assignment.pool_of);
  const std::vector<int>& pool_reference = assignment.reference;
  plan.pool_cache_hits = assignment.cache_hits;
  const int num_pools = static_cast<int>(pool_reference.size());
  plan.pool_builds = num_pools;

  // --- Build the distinct pools, fanned out into distinct slots — the
  // planner's only parallel phase.
  pools.pools.resize(static_cast<size_t>(num_pools));
  {
    ThreadPool threads(config_.options.num_threads);
    threads.ParallelFor(0, num_pools, [&](int64_t pid) {
      pools.pools[static_cast<size_t>(pid)] = BuildPool(
          tenants[static_cast<size_t>(
                      pool_reference[static_cast<size_t>(pid)])]
              .problem,
          box_, config_);
    });
  }
  plan.pool_ms = NowMs() - start_ms;
  for (int pid = 0; pid < num_pools; ++pid) {
    TenantPool& pool = pools.pools[static_cast<size_t>(pid)];
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
  const FleetConstraints& cons = config_.constraints;
  const bool budget_active = cons.budget_cents_per_hour > 0.0;
  const bool capacity_active = !cons.capacity_gb.empty();

  // --- The zero-price selection: every tenant's solo optimum (pool[0]).
  // Its Σ TOC lower-bounds every selection, so if it is feasible it is THE
  // fleet optimum over the pools.
  std::vector<int> solo(static_cast<size_t>(num_tenants), 0);
  const FleetTotals solo_totals = ComputeTotals(solo, pools, m);

  // --- The fleet's cost floor: every tenant on its cheapest candidate
  // (tenant-index order, like every total). Below Σ of these no selection
  // exists, so callers can sweep budgets from min_cost to the solo cost.
  std::vector<double> cheapest_cost(static_cast<size_t>(num_pools), 0.0);
  for (int pid = 0; pid < num_pools; ++pid) {
    const TenantPool& pool = pools.pools[static_cast<size_t>(pid)];
    double cheapest = pool.cost[0];
    for (int c = 1; c < pool.size(); ++c) {
      cheapest = std::min(cheapest, pool.cost[static_cast<size_t>(c)]);
    }
    cheapest_cost[static_cast<size_t>(pid)] = cheapest;
  }
  for (int i = 0; i < num_tenants; ++i) {
    plan.min_cost_cents_per_hour += cheapest_cost[static_cast<size_t>(
        pools.pool_of[static_cast<size_t>(i)])];
  }

  // --- Independent fair-share baseline: tenant i provisions alone on a
  // share of the budget and capacity proportional to its minimum spend
  // (its cheapest candidate's cost) — the share a per-tenant operator
  // would have to sell it. Minimum-spend weights make the baseline
  // feasible whenever any selection is (share_i >= cheapest_i once the
  // budget covers Σ cheapest), so never-lose is a live comparison across
  // the whole feasible budget range, not a vacuous one. A tenant's share,
  // and so its pick, depends only on its pool.
  const double total_cheapest = plan.min_cost_cents_per_hour;
  std::vector<int> pool_pick(static_cast<size_t>(num_pools), -1);
  plan.independent_feasible = true;
  for (int pid = 0; pid < num_pools; ++pid) {
    const TenantPool& pool = pools.pools[static_cast<size_t>(pid)];
    const double w = total_cheapest > 0.0
                         ? cheapest_cost[static_cast<size_t>(pid)] /
                               total_cheapest
                         : 1.0 / num_tenants;
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
      // No candidate fits this pool's share: the baseline itself is
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
    pool_pick[static_cast<size_t>(pid)] = pick;
  }
  const std::vector<int> baseline = pools.ForTenants(pool_pick);
  const FleetTotals baseline_totals = ComputeTotals(baseline, pools, m);
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
    // A tenant's argmin depends only on its pool and the prices, so each
    // iteration prices every pool once and hands its pick to the pool's
    // tenants; the totals are still accumulated in tenant order. They
    // depend only on the per-pool argmins, so an iterate whose argmins
    // repeat the previous one's reuses its selection and totals.
    const double price_start_ms = NowMs();
    std::vector<int> pool_arg(static_cast<size_t>(num_pools), 0);
    std::vector<int> prev_arg;
    std::vector<int> sel;
    FleetTotals t;
    std::vector<int> best_feasible;
    double best_feasible_toc = 0.0;
    for (int r = 1; r <= config_.price_iterations; ++r) {
      for (int pid = 0; pid < num_pools; ++pid) {
        const TenantPool& pool = pools.pools[static_cast<size_t>(pid)];
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
        pool_arg[static_cast<size_t>(pid)] = arg;
      }
      if (pool_arg != prev_arg) {
        sel = pools.ForTenants(pool_arg);
        t = ComputeTotals(sel, pools, m);
        prev_arg = pool_arg;
      }
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
    plan.price_ms = NowMs() - price_start_ms;

    // --- Repair the final relaxation selection, then pick the best of
    // {repaired, best price-feasible, independent baseline} — fixed
    // precedence on exact ties, so the choice is deterministic and the
    // never-lose guarantee is structural.
    const double repair_start_ms = NowMs();
    std::vector<int> repaired = sel;
    FleetTotals repaired_totals = ComputeTotals(repaired, pools, m);
    const bool repaired_ok =
        ExchangeRepair(pools, cons, m, &repaired, &repaired_totals,
                       &plan.exchange_moves);
    plan.repair_ms = NowMs() - repair_start_ms;
    if (repaired_ok) {
      choice = repaired;
      totals = repaired_totals;
      feasible = true;
    }
    if (!best_feasible.empty()) {
      const FleetTotals t = ComputeTotals(best_feasible, pools, m);
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
  const double improve_start_ms = NowMs();
  ImprovementPass(pools, cons, m, &choice, &totals,
                  &plan.improve_moves);
  plan.repair_ms += NowMs() - improve_start_ms;

  plan.fell_back_to_baseline = plan.independent_feasible &&
                               choice == baseline;
  plan.tenants.resize(static_cast<size_t>(num_tenants));
  for (int i = 0; i < num_tenants; ++i) {
    const TenantPool& pool = pools[static_cast<size_t>(i)];
    const size_t c = static_cast<size_t>(choice[static_cast<size_t>(i)]);
    FleetTenantChoice& out = plan.tenants[static_cast<size_t>(i)];
    out.placement = pool.Placement(static_cast<int>(c));
    out.toc_cents_per_task = pool.toc[c];
    out.cost_cents_per_hour = pool.cost[c];
    out.pool_id = pools.pool_of[static_cast<size_t>(i)];
    out.candidate = static_cast<int>(c);
  }
  plan.total_toc_cents_per_task = totals.toc;
  plan.total_cost_cents_per_hour = totals.cost;
  plan.used_gb = totals.used;
  plan.plan_ms = NowMs() - start_ms;
  return plan;
}

}  // namespace dot
