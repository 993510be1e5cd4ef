#include "fleet/fleet_pools.h"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <unordered_map>
#include <utility>

#include "catalog/schema.h"
#include "dot/eval_tables.h"
#include "dot/layout.h"
#include "dot/optimizer.h"
#include "dot/reprovision.h"
#include "workload/workload.h"

namespace dot {

namespace {

/// Raw-bit equality: doubles key on their exact bits, as a byte key would.
template <typename T>
bool SameBits(const T& a, const T& b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

/// Sorts `raw`'s records under the BetterCandidate order and appends the
/// undominated ones to `out`: a candidate survives only if no earlier
/// (hence no-worse-TOC) kept candidate weakly dominates it on cost and
/// every class's space. Exact all-equal ties keep the earlier —
/// lexicographically lower — placement, the fleet's determinism tie-break.
///
/// Only a window of the kept candidates can dominate. Sizes are positive
/// (Schema enforces it) and every placement puts each object in exactly
/// one class, so Σ_j S_j is the same real number S for every candidate.
/// Each stored space[j] is an object-order float sum of the sizes on
/// class j, within γ(N-1)·S_j of its real value (recursive summation of
/// nonnegative terms, γ(k) = k·u / (1 - k·u), u = 2^-53), so the errors of
/// one candidate total at most E = γ(N-1)·S over its classes. If kept d
/// weakly dominates c, then d's real class-0 space is S minus its other
/// classes, each at most c's plus both errors, so
///     space_d[0] >= space_c[0] - 2E,
/// and space_d[0] <= space_c[0] by dominance. Hence testing only the kept
/// candidates with space[0] in [space_c[0] - slack, space_c[0]] gives the
/// full scan's verdict whenever slack >= 2E ~ (N-1)·DBL_EPSILON·S. The
/// slack below, max(1e-9, 2N·DBL_EPSILON)·S, is at least twice that, which
/// also covers the rounding of S itself and of the window bound. An
/// infinite size breaks the algebra, so the window then opens to -inf.
void SortAndPrune(const TenantPool& raw, const std::vector<double>& sizes,
                  int m, TenantPool* out) {
  const int k = raw.size();
  const size_t n = static_cast<size_t>(raw.num_objects);
  const size_t stride = static_cast<size_t>(m);
  const auto placement_of = [&](int c) {
    return raw.placements.data() + static_cast<size_t>(c) * n;
  };
  const auto space_of = [&](int c) {
    return raw.space.data() + static_cast<size_t>(c) * stride;
  };

  // Records by (toc, placement) — the BetterCandidate order — and by
  // class-0 space; `kept` marks the records kept so far.
  struct Key {
    double value;
    int id;
  };
  std::vector<Key> order(static_cast<size_t>(k));
  std::vector<Key> by_space0(static_cast<size_t>(k));
  for (int c = 0; c < k; ++c) {
    order[static_cast<size_t>(c)] = Key{raw.toc[static_cast<size_t>(c)], c};
    by_space0[static_cast<size_t>(c)] = Key{space_of(c)[0], c};
  }
  std::sort(order.begin(), order.end(), [&](const Key& a, const Key& b) {
    if (a.value != b.value) return a.value < b.value;
    return std::lexicographical_compare(placement_of(a.id),
                                        placement_of(a.id) + n,
                                        placement_of(b.id),
                                        placement_of(b.id) + n);
  });
  std::sort(by_space0.begin(), by_space0.end(),
            [](const Key& a, const Key& b) {
              return a.value != b.value ? a.value < b.value : a.id < b.id;
            });
  std::vector<char> kept(static_cast<size_t>(k), 0);
  out->placements.reserve(static_cast<size_t>(k) * n);
  out->toc.reserve(static_cast<size_t>(k));
  out->cost.reserve(static_cast<size_t>(k));
  out->space.reserve(static_cast<size_t>(k) * stride);

  double total_gb = 0.0;
  for (double s : sizes) total_gb += s;
  const double slack =
      std::max(1e-9, 2.0 * static_cast<double>(n) * DBL_EPSILON) * total_gb;

  for (const Key& key : order) {
    const int c = key.id;
    const double* used = space_of(c);
    const double cost = raw.cost[static_cast<size_t>(c)];
    const double lo_key = std::isfinite(slack)
                              ? used[0] - slack
                              : -std::numeric_limits<double>::infinity();
    const auto lo = std::lower_bound(
        by_space0.begin(), by_space0.end(), lo_key,
        [](const Key& e, double v) { return e.value < v; });
    const auto hi = std::upper_bound(
        lo, by_space0.end(), used[0],
        [](double v, const Key& e) { return v < e.value; });
    bool dominated = false;
    for (auto it = lo; it != hi && !dominated; ++it) {
      const int d = it->id;
      if (!kept[static_cast<size_t>(d)] ||
          raw.cost[static_cast<size_t>(d)] > cost) {
        continue;
      }
      const double* other = space_of(d);
      dominated = true;
      for (int j = 0; j < m && dominated; ++j) dominated = other[j] <= used[j];
    }
    if (dominated) continue;
    kept[static_cast<size_t>(c)] = 1;
    out->placements.insert(out->placements.end(), placement_of(c),
                           placement_of(c) + n);
    out->toc.push_back(raw.toc[static_cast<size_t>(c)]);
    out->cost.push_back(cost);
    out->space.insert(out->space.end(), used, used + m);
  }
}

/// The rest of the pool key, for tenants whose schema fingerprints match
/// (AssignPools lists the fields).
bool SamePoolKey(const DotProblem& a, const DotProblem& b,
                 const FleetConfig& config) {
  if (a.workload->name() != b.workload->name()) return false;
  if (!SameBits(a.relative_sla, b.relative_sla) ||
      !SameBits(a.cost_model.discrete, b.cost_model.discrete) ||
      !SameBits(a.cost_model.alpha, b.cost_model.alpha) ||
      !SameBits(a.tail_sla.percentile, b.tail_sla.percentile) ||
      !SameBits(a.tail_sla.latency_cv, b.tail_sla.latency_cv)) {
    return false;
  }
  if (a.io_scale_hint.size() != b.io_scale_hint.size()) return false;
  if (!a.io_scale_hint.empty() &&
      std::memcmp(a.io_scale_hint.data(), b.io_scale_hint.data(),
                  a.io_scale_hint.size() * sizeof(double)) != 0) {
    return false;
  }
  if (a.targets_override != b.targets_override) return false;
  if (config.pool_mode == FleetPoolMode::kSearch &&
      config.search == EpochSearch::kDot && a.profiles != b.profiles) {
    return false;
  }
  return true;
}

}  // namespace

std::vector<int> TenantPool::Placement(int candidate) const {
  const auto first = placements.begin() + static_cast<std::ptrdiff_t>(
                                              candidate) * num_objects;
  return std::vector<int>(first, first + num_objects);
}

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
  out.num_objects = n;

  const long long space = LayoutSpaceSize(n, m);
  std::vector<std::vector<int>> searched;
  if (config.pool_mode == FleetPoolMode::kEnumerate) {
    if (space > config.max_pool_layouts) {
      out.status = Status::OutOfRange(
          "tenant layout space " + std::to_string(m) + "^" +
          std::to_string(n) +
          " exceeds max_pool_layouts; use FleetPoolMode::kSearch");
      return out;
    }
  } else {
    // The ReprovisionPlanner seeding path (solo optimum), plus the M
    // uniform layouts as deterministic downgrade/upgrade anchors.
    out.layouts_evaluated += AppendSoloCandidate(p, config.search, &searched);
    for (int cls = 0; cls < m; ++cls) {
      std::vector<int> uniform(static_cast<size_t>(n), cls);
      if (std::find(searched.begin(), searched.end(), uniform) ==
          searched.end()) {
        searched.push_back(std::move(uniform));
      }
    }
  }

  // Score every candidate through the searches' own kernel (the TOC fast
  // path — bit-identical to the full estimate, dot/eval_tables.h) and keep
  // the feasible ones as flat records, in scoring order.
  const DotOptimizer estimator(p);
  const FastEvaluator evaluator(estimator);
  const std::vector<double>& sizes = p.schema->sizes_gb();
  TenantPool raw;
  raw.num_objects = n;
  const auto record = [&](const std::vector<int>& placement,
                          const CandidateEval& eval) {
    if (!eval.feasible) return;
    raw.placements.insert(raw.placements.end(), placement.begin(),
                          placement.end());
    raw.toc.push_back(eval.toc);
    raw.cost.push_back(eval.cost_cents_per_hour);
    raw.space.resize(raw.space.size() + static_cast<size_t>(m), 0.0);
    Layout::AddSpaceByClass(sizes, placement.data(),
                            raw.space.data() + raw.space.size() -
                                static_cast<size_t>(m));
  };
  if (config.pool_mode == FleetPoolMode::kEnumerate) {
    WalkLayouts(evaluator, 0, space, record);
    out.layouts_evaluated += space;
  } else {
    for (const std::vector<int>& c : searched) {
      record(c, evaluator.EvaluateQuick(c));
    }
    out.layouts_evaluated += static_cast<long long>(searched.size());
  }
  SortAndPrune(raw, sizes, m, &out);
  return out;
}

PoolAssignment AssignPools(const std::vector<FleetTenant>& tenants,
                           const FleetConfig& config) {
  PoolAssignment out;
  out.pool_of.assign(tenants.size(), -1);
  // Pool ids by schema fingerprint; fingerprinting hashes every object, so
  // each schema is hashed once and then maps straight to its bucket
  // (unordered_map values never move, so the bucket pointers stay valid).
  std::unordered_map<uint64_t, std::vector<int>> buckets;
  std::unordered_map<const Schema*, std::vector<int>*> bucket_of;
  for (size_t i = 0; i < tenants.size(); ++i) {
    const DotProblem& problem = tenants[i].problem;
    std::vector<int>* bucket = nullptr;
    int id = -1;
    if (config.share_pools) {
      const auto [it, fresh] = bucket_of.try_emplace(problem.schema, nullptr);
      if (fresh) it->second = &buckets[problem.schema->Fingerprint()];
      bucket = it->second;
      for (int pid : *bucket) {
        const size_t ref = static_cast<size_t>(
            out.reference[static_cast<size_t>(pid)]);
        if (SamePoolKey(tenants[ref].problem, problem, config)) {
          id = pid;
          ++out.cache_hits;
          break;
        }
      }
    }
    if (id < 0) {
      id = static_cast<int>(out.reference.size());
      out.reference.push_back(static_cast<int>(i));
      if (bucket != nullptr) bucket->push_back(id);
    }
    out.pool_of[i] = id;
  }
  return out;
}

}  // namespace dot
