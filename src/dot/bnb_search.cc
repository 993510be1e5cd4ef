#include "dot/bnb_search.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/check.h"
#include "common/clock.h"
#include "common/thread_pool.h"
#include "dot/eval_tables.h"
#include "dot/layout.h"
#include "dot/sla.h"
#include "storage/pricing.h"

namespace dot {

namespace {

constexpr long long kCountSaturated = std::numeric_limits<long long>::max();

long long SaturatingAdd(long long a, long long b) {
  if (a > kCountSaturated - b) return kCountSaturated;
  return a + b;
}

/// Best feasible candidate under the BetterCandidate total order: one scan
/// shard's, or the branch-and-bound walk's.
struct Winner {
  bool found = false;
  double toc = std::numeric_limits<double>::infinity();
  std::vector<int> placement;
};

// ---------------------------------------------------------------------------
// ExactStrategy::kEnumerate — the paper's Exhaustive Search comparator.
// ---------------------------------------------------------------------------

DotResult EnumerateSearch(const DotProblem& problem, long long max_layouts,
                          double start_ms) {
  const int n = problem.schema->NumObjects();
  const int m = problem.box->NumClasses();
  const long long total = LayoutSpaceSize(n, m);

  DotResult result;
  if (total > max_layouts) {
    // A guard trip is an expected outcome on large schemas, not a
    // programmer error: report it as a Status so callers can fall back to
    // branch-and-bound (or shrink the instance) instead of aborting.
    result.status = Status::OutOfRange(
        "exhaustive enumeration over " + std::to_string(m) + "^" +
        std::to_string(n) + " = " +
        (total == kCountSaturated ? std::string("> 9.2e18")
                                  : std::to_string(total)) +
        " layouts exceeds the guard (" + std::to_string(max_layouts) +
        "); use ExactStrategy::kBranchAndBound or raise max_layouts");
    result.optimize_ms = NowMs() - start_ms;
    return result;
  }

  DotOptimizer estimator(problem);  // reuse estimateTOC / targets
  result.targets = estimator.targets();
  const FastEvaluator fast(estimator);

  // Shard the mixed-radix layout space [0, M^N) (placement[o] =
  // (index / M^o) mod M — digit 0 least significant, the serial odometer's
  // order) across the pool. Oversplit relative to the lane count for load
  // balance. The shard count (and thus the boundaries) DOES vary with the
  // thread count — determinism comes solely from the merge below being a
  // minimum under the BetterCandidate total order, which picks the same
  // winner for any partition of the space. Do not replace the reduction
  // with a first-found or shard-order rule. The fast path keeps this safe:
  // every scalar a candidate is scored from is a fixed-order sum over
  // tables, so its value cannot depend on which shard (or thread)
  // evaluated it.
  ThreadPool pool(problem.options.num_threads);
  const int num_shards =
      static_cast<int>(std::min<long long>(total, 8LL * pool.num_threads()));
  std::vector<Winner> per_shard(static_cast<size_t>(num_shards));

  pool.ParallelForShards(
      0, total, num_shards,
      [&](int shard, int64_t shard_begin, int64_t shard_end) {
        Winner local;
        WalkLayouts(fast, shard_begin, shard_end,
                    [&](const std::vector<int>& placement,
                        const CandidateEval& eval) {
                      if (eval.feasible &&
                          (!local.found ||
                           BetterCandidate(eval.toc, placement, local.toc,
                                           local.placement))) {
                        local.found = true;
                        local.toc = eval.toc;
                        local.placement = placement;
                      }
                    });
        per_shard[static_cast<size_t>(shard)] = std::move(local);
      });

  Winner best;
  for (Winner& shard : per_shard) {
    if (!shard.found) continue;
    if (!best.found || BetterCandidate(shard.toc, shard.placement, best.toc,
                                       best.placement)) {
      best = std::move(shard);
    }
  }

  result.layouts_evaluated = total;
  result.plan_cache_hits = fast.plan_cache_hits();
  result.plan_cache_misses = fast.plan_cache_misses();
  if (best.found) {
    // Quick evaluations carry no PerfEstimate; re-score the winner through
    // the full path (bit-identical toc/cost, now with the estimate filled).
    CandidateEval eval = EvaluateOneWith(
        estimator, Layout(problem.schema, problem.box, best.placement));
    result.placement = std::move(best.placement);
    result.toc_cents_per_task = eval.toc;
    result.layout_cost_cents_per_hour = eval.cost_cents_per_hour;
    result.estimate = std::move(eval.estimate);
  } else {
    result.status = Status::Infeasible(
        "no layout satisfies the capacity and SLA constraints");
  }
  result.optimize_ms = NowMs() - start_ms;
  return result;
}

// ---------------------------------------------------------------------------
// ExactStrategy::kBranchAndBound
// ---------------------------------------------------------------------------

struct BnbStats {
  long long expanded = 0;
  long long pruned_bound = 0;
  long long pruned_infeasible = 0;
  long long layouts_pruned = 0;  ///< saturating: Σ leaf counts under prunes
  long long leaves = 0;
};

/// The branch-and-bound walk: one depth-first search from the root on the
/// calling thread, with one incumbent carried across the whole tree, so
/// every leaf found early prunes everything after it. Per-depth space
/// snapshots (pure functions of the assignment path, so backtracking
/// cannot accumulate floating-point drift), one bound cursor, and
/// best-first child ordering. Pruning compares admissible bounds through
/// the kBoundSafety margin, so a subtree is cut only when no completion can
/// beat the incumbent or be feasible; ties are never cut, which preserves
/// the lexicographic tie-break bit for bit. The assignment order and every
/// table depend only on the problem, so the counters are deterministic.
class BnbWalker {
 public:
  /// Derives the assignment order and the per-depth tables, and carves the
  /// per-depth snapshot and probe arrays from the walker's arena.
  BnbWalker(const DotProblem& problem, const FastEvaluator& fast);

  /// Searches the whole tree once, pruning against `incumbent` (a seed
  /// TOC, or +inf) from the first node on.
  void Run(double incumbent) {
    incumbent_ = incumbent;
    Dfs(0);
  }

  const BnbStats& stats() const { return stats_; }
  const Winner& best() const { return best_; }
  std::uint64_t arena_bytes_peak() const { return arena_.bytes_peak(); }

 private:
  /// Admissible TOC lower bound of one child, kept as the unreduced ratio
  /// toc_num / toc_den so the hot loop never divides: pruning and
  /// ordering compare ratios by cross-multiplication (both sides are
  /// positive when a bound exists). The "no bound" case — no cursor, or
  /// an unbounded optimistic throughput — is the ratio 0 / 1, which sorts
  /// before every real bound and never prunes, exactly like the literal
  /// toc_lb = 0 it replaces.
  struct Probe {
    double toc_num = 0.0;
    double toc_den = 1.0;
    int cls = 0;
  };

  double* UsedRow(int depth) {
    return used_ + static_cast<size_t>(depth) * static_cast<size_t>(m_);
  }

  /// Commits class `cls` for the depth-d object: placement, the depth+1
  /// space snapshot, and the bound cursor.
  void AssignLevel(int depth, int cls) {
    const int obj = order_[static_cast<size_t>(depth)];
    placement_[static_cast<size_t>(obj)] = cls;
    const double* cur = UsedRow(depth);
    double* next = UsedRow(depth + 1);
    for (int j = 0; j < m_; ++j) next[j] = cur[j];
    next[cls] += size_at_depth_[static_cast<size_t>(depth)];
    if (cursor_ != nullptr) cursor_->Assign(obj, placement_);
  }

  void PruneInfeasible(int child_depth) {
    stats_.pruned_infeasible += 1;
    stats_.layouts_pruned = SaturatingAdd(
        stats_.layouts_pruned,
        leaves_below_[static_cast<size_t>(child_depth)]);
  }

  void PruneBound(int child_depth) {
    stats_.pruned_bound += 1;
    stats_.layouts_pruned = SaturatingAdd(
        stats_.layouts_pruned,
        leaves_below_[static_cast<size_t>(child_depth)]);
  }

  /// Completion-cost lower bound of the child that adds the depth-d
  /// object (of `size` GB) to class `cls` on top of parent row `cur`.
  /// The linear model prices the child as the parent's priced total (a
  /// per-node hoist, passed in) plus this one object — the same value as
  /// re-pricing the child row up to ULP re-association, which the ε
  /// margin on every compare this feeds absorbs. The discrete model is
  /// not linear in used space, so it materializes the child row and takes
  /// the generic path.
  double ChildCostLowerBound(double parent_cost, const double* cur, int cls,
                             double size, int child_depth) {
    const double remaining = suffix_min_cost_[static_cast<size_t>(child_depth)];
    if (linear_cost_) {
      return parent_cost + class_price_[static_cast<size_t>(cls)] * size +
             remaining;
    }
    double* next = UsedRow(child_depth);  // scratch until AssignLevel
    for (int j = 0; j < m_; ++j) next[j] = cur[j];
    next[cls] += size;
    return CompletionCostLowerBoundCentsPerHour(
        *problem_.box, next, m_, remaining, problem_.cost_model);
  }

  void ConsiderLeaf(double toc) {
    if (!best_.found ||
        BetterCandidate(toc, placement_, best_.toc, best_.placement)) {
      best_.found = true;
      best_.toc = toc;
      best_.placement = placement_;
    }
    incumbent_ = std::min(incumbent_, toc);
  }

  /// Expands the node with `depth` objects assigned (depth < n).
  void Dfs(int depth) {
    stats_.expanded += 1;

    const int obj = order_[static_cast<size_t>(depth)];
    const double size = size_at_depth_[static_cast<size_t>(depth)];
    const double* cur = UsedRow(depth);
    Probe* probes = probes_ + static_cast<size_t>(depth + 1) *
                                  static_cast<size_t>(m_);

    if (depth + 1 == n_) {
      for (int cls = 0; cls < m_; ++cls) {
        // Assigned objects never move again, so a class already at or
        // over its (strict) capacity dooms every completion. Deflated:
        // the snapshot is an assignment-order sum while the exact fit
        // rule sums in object order, and a few ULPs must not prune a
        // fitting leaf.
        if ((cur[cls] + size) * (1 - kBoundSafety) >=
            capacity_[static_cast<size_t>(cls)]) {
          PruneInfeasible(depth + 1);
          continue;
        }

        // Leaf: exact evaluation through the same kernels the enumerating
        // search uses — bit-identical toc, fit, and feasibility.
        placement_[static_cast<size_t>(obj)] = cls;
        CandidateEval eval;
        if (cursor_ != nullptr) {
          cursor_->Assign(obj, placement_);
          eval = fast_.EvaluateWithScore(placement_,
                                         cursor_->Optimistic(placement_));
          cursor_->Unassign(obj);
        } else {
          eval = fast_.EvaluateQuick(placement_);
        }
        stats_.leaves += 1;
        if (eval.feasible) ConsiderLeaf(eval.toc);
      }
      return;
    }

    // Interior children, three passes over the classes. Per-class prune
    // decisions match interleaving the passes class by class; only the
    // order the prune counters tick in changes, and counters are totals.
    // Each child differs from this node in one class, so per-node totals
    // over the parent row turn every per-child check into an O(1) delta:
    // free space as parent free minus this class's shrinkage, priced
    // space as parent cost plus this object's price. The deltas
    // re-associate sums the one-row-per-child spelling computed left to
    // right, which moves compared values by ULPs — every compare they
    // feed carries the kBoundSafety margin (~1e-9, nine orders above ULP
    // noise), so no fitting or tying completion can be cut.
    const double remaining_size =
        suffix_size_[static_cast<size_t>(depth + 1)];
    double parent_free = 0.0;
    for (int j = 0; j < m_; ++j) {
      pfree_[j] = std::max(0.0, capacity_[static_cast<size_t>(j)] - cur[j]);
      parent_free += pfree_[j];
    }

    // Pass 1: space feasibility.
    int live = 0;
    for (int cls = 0; cls < m_; ++cls) {
      mask_[cls] = 0;
      const double used_cls = cur[cls] + size;
      if (used_cls * (1 - kBoundSafety) >= capacity_[static_cast<size_t>(
                                               cls)]) {
        PruneInfeasible(depth + 1);
        continue;
      }
      // The unassigned volume must fit in the remaining free space.
      const double free_gb =
          parent_free - pfree_[cls] +
          std::max(0.0, capacity_[static_cast<size_t>(cls)] - used_cls);
      if (remaining_size * (1 - kBoundSafety) >= free_gb * (1 + kBoundSafety)) {
        PruneInfeasible(depth + 1);
        continue;
      }
      mask_[cls] = 1;
      ++live;
    }

    // Pass 2: one batched optimistic-completion probe over the surviving
    // classes — an upper bound on every completion's throughput, and a
    // definite verdict when even the optimistic completion misses a
    // target. Without a bound cursor there is no throughput bound, TOC =
    // cost/throughput cannot be bounded either (cost alone bounds
    // nothing), and the search degrades to capacity pruning — skip the
    // cost kernel entirely.
    if (cursor_ != nullptr && live > 0) {
      cursor_->ProbeClassesRatio(obj, placement_, m_, mask_, qps_, tpden_);
    }

    // Pass 3: SLA and bound pruning; survivors become child probes.
    // Division-free: the TOC bound cost_lb / tp is compared against the
    // incumbent as cost_lb vs incumbent·(1+ε)·tp. The ε safety margin is
    // ~1e-9 relative while cross-multiplication re-rounds by at most a
    // few ULPs (~1e-16), so no completion that ties or beats the
    // incumbent can ever be cut by the changed rounding — admissibility
    // is preserved, only microscopically-marginal prunes may differ from
    // the division spelling.
    const double inc_scaled = incumbent_ * (1 + kBoundSafety);
    double parent_cost = 0.0;
    if (cursor_ != nullptr && live > 0 && linear_cost_) {
      for (int j = 0; j < m_; ++j) {
        parent_cost += class_price_[static_cast<size_t>(j)] * cur[j];
      }
    }
    live = 0;
    for (int cls = 0; cls < m_; ++cls) {
      if (mask_[cls] == 0) continue;
      double toc_num = 0.0;
      double toc_den = 1.0;
      if (cursor_ != nullptr) {
        const QuickPerf& qp = qps_[cls];
        if (!qp.sla_ok) {
          PruneInfeasible(depth + 1);
          continue;
        }
        if (qp.tasks_per_hour > 0) {
          // Admissible TOC lower bound: assigned space priced exactly,
          // every unassigned object at its guaranteed marginal minimum,
          // over the optimistic throughput tp_num / tp_den:
          // toc = cost_lb·tp_den / tp_num.
          const double cost_lb =
              ChildCostLowerBound(parent_cost, cur, cls, size, depth + 1);
          toc_num = cost_lb * tpden_[cls];
          toc_den = qp.tasks_per_hour;
          if (toc_num > inc_scaled * toc_den) {
            PruneBound(depth + 1);
            continue;
          }
        }
      }
      probes[live].toc_num = toc_num;
      probes[live].toc_den = toc_den;
      probes[live].cls = cls;
      ++live;
    }

    // Best-first child order: most promising bound first (class index
    // breaks exact bound ties deterministically), so a near-optimal
    // incumbent appears early and the later siblings get pruned by the
    // re-check below.
    std::sort(probes, probes + live, [](const Probe& a, const Probe& b) {
      const double lhs = a.toc_num * b.toc_den;
      const double rhs = b.toc_num * a.toc_den;
      return lhs != rhs ? lhs < rhs : a.cls < b.cls;
    });
    for (int i = 0; i < live; ++i) {
      // Incumbent may have improved since the probe; same cross-multiplied
      // compare as pass 3 (incumbent_ changes between iterations, so the
      // scaled incumbent cannot be hoisted here).
      if (probes[i].toc_num >
          incumbent_ * (1 + kBoundSafety) * probes[i].toc_den) {
        PruneBound(depth + 1);
        continue;
      }
      AssignLevel(depth, probes[i].cls);
      Dfs(depth + 1);
      if (cursor_ != nullptr) cursor_->Unassign(obj);
    }
  }

  const DotProblem& problem_;
  const FastEvaluator& fast_;
  int n_ = 0;
  int m_ = 0;
  /// Assignment order: order_[d] is the object assigned at depth d,
  /// descending space/I-O weight (normalized cost spread + time spread).
  std::vector<int> order_;
  std::vector<double> size_at_depth_;    ///< size_gb of order_[d]
  std::vector<double> suffix_min_cost_;  ///< [d] Σ_{i>=d} min marginal cost
  std::vector<double> suffix_size_;      ///< [d] Σ_{i>=d} size_gb
  std::vector<double> capacity_;         ///< per class, c_j
  std::vector<double> class_price_;      ///< per class, p_j (hoisted)
  bool linear_cost_ = false;             ///< cost model has no discrete part
  std::vector<long long> leaves_below_;  ///< [d] = M^(N-d), saturating
  Arena arena_;                 ///< backs the per-depth arrays below
  std::vector<int> placement_;  ///< vector: the scorer API's currency
  double* used_ = nullptr;      ///< (n+1) × m space snapshots
  Probe* probes_ = nullptr;     ///< (n+1) × m child-probe scratch
  unsigned char* mask_ = nullptr;  ///< per-class space-feasibility, one node
  QuickPerf* qps_ = nullptr;       ///< per-class batched probe results
  double* pfree_ = nullptr;        ///< per-class parent free space, one node
  double* tpden_ = nullptr;        ///< per-class probe ratio denominators
  std::unique_ptr<FastScorer::BoundCursor> cursor_;  ///< null: no bound
  double incumbent_ = std::numeric_limits<double>::infinity();
  BnbStats stats_;
  Winner best_;
};

BnbWalker::BnbWalker(const DotProblem& problem, const FastEvaluator& fast)
    : problem_(problem),
      fast_(fast),
      n_(problem.schema->NumObjects()),
      m_(problem.box->NumClasses()),
      placement_(static_cast<size_t>(n_), 0) {
  const FastScorer* scorer = fast.scorer();
  if (scorer != nullptr) cursor_ = scorer->MakeBoundCursor();

  capacity_.reserve(static_cast<size_t>(m_));
  class_price_.reserve(static_cast<size_t>(m_));
  linear_cost_ = !problem.cost_model.discrete;
  double max_price = 0.0;
  double min_price = std::numeric_limits<double>::infinity();
  for (const StorageClass& sc : problem.box->classes) {
    capacity_.push_back(sc.capacity_gb());
    class_price_.push_back(sc.price_cents_per_gb_hour());
    max_price = std::max(max_price, sc.price_cents_per_gb_hour());
    min_price = std::min(min_price, sc.price_cents_per_gb_hour());
  }

  // Assignment order: descending space/I-O weight. An object's weight is
  // its guaranteed cost spread (size × price spread) plus its workload-time
  // spread across classes, each normalized to the largest in the schema —
  // the objects whose placement moves the bound the most are decided first,
  // so both prunes bite near the root. Any order is correct; this one is
  // fast.
  std::vector<double> cost_spread(static_cast<size_t>(n_), 0.0);
  std::vector<double> time_spread(static_cast<size_t>(n_), 0.0);
  double max_cost_spread = 0.0;
  double max_time_spread = 0.0;
  for (int o = 0; o < n_; ++o) {
    cost_spread[static_cast<size_t>(o)] =
        problem.schema->object(o).size_gb * (max_price - min_price);
    if (scorer != nullptr) {
      time_spread[static_cast<size_t>(o)] = scorer->ObjectTimeSpreadMs(o);
    }
    max_cost_spread =
        std::max(max_cost_spread, cost_spread[static_cast<size_t>(o)]);
    max_time_spread =
        std::max(max_time_spread, time_spread[static_cast<size_t>(o)]);
  }
  order_.resize(static_cast<size_t>(n_));
  for (int o = 0; o < n_; ++o) order_[static_cast<size_t>(o)] = o;
  std::vector<double> weight(static_cast<size_t>(n_), 0.0);
  for (int o = 0; o < n_; ++o) {
    double w = 0.0;
    if (max_cost_spread > 0) {
      w += cost_spread[static_cast<size_t>(o)] / max_cost_spread;
    }
    if (max_time_spread > 0) {
      w += time_spread[static_cast<size_t>(o)] / max_time_spread;
    }
    weight[static_cast<size_t>(o)] = w;
  }
  std::sort(order_.begin(), order_.end(), [&](int a, int b) {
    const double wa = weight[static_cast<size_t>(a)];
    const double wb = weight[static_cast<size_t>(b)];
    return wa != wb ? wa > wb : a < b;
  });

  size_at_depth_.resize(static_cast<size_t>(n_));
  for (int d = 0; d < n_; ++d) {
    size_at_depth_[static_cast<size_t>(d)] =
        problem.schema->object(order_[static_cast<size_t>(d)]).size_gb;
  }
  suffix_min_cost_.assign(static_cast<size_t>(n_) + 1, 0.0);
  suffix_size_.assign(static_cast<size_t>(n_) + 1, 0.0);
  for (int d = n_ - 1; d >= 0; --d) {
    suffix_min_cost_[static_cast<size_t>(d)] =
        suffix_min_cost_[static_cast<size_t>(d) + 1] +
        MinObjectCostCentsPerHour(*problem.box,
                                  size_at_depth_[static_cast<size_t>(d)],
                                  problem.cost_model);
    suffix_size_[static_cast<size_t>(d)] =
        suffix_size_[static_cast<size_t>(d) + 1] +
        size_at_depth_[static_cast<size_t>(d)];
  }
  leaves_below_.resize(static_cast<size_t>(n_) + 1);
  for (int d = 0; d <= n_; ++d) {
    leaves_below_[static_cast<size_t>(d)] = LayoutSpaceSize(n_ - d, m_);
  }

  const size_t cells = static_cast<size_t>(n_ + 1) * static_cast<size_t>(m_);
  used_ = arena_.AllocateArray<double>(cells);
  std::fill(used_, used_ + cells, 0.0);
  probes_ = arena_.AllocateArray<Probe>(cells);
  mask_ = arena_.AllocateArray<unsigned char>(static_cast<size_t>(m_));
  qps_ = arena_.AllocateArray<QuickPerf>(static_cast<size_t>(m_));
  pfree_ = arena_.AllocateArray<double>(static_cast<size_t>(m_));
  tpden_ = arena_.AllocateArray<double>(static_cast<size_t>(m_));
}

DotResult BranchAndBoundSearch(
    const DotProblem& problem, double start_ms,
    const std::vector<std::vector<int>>* warm_starts) {
  const int n = problem.schema->NumObjects();
  const int m = problem.box->NumClasses();
  DOT_CHECK(n >= 1 && m >= 1);

  DotResult result;
  DotOptimizer estimator(problem);
  result.targets = estimator.targets();

  const FastEvaluator fast(estimator);

  // Deterministic incumbent seeds, evaluated through the same path the
  // leaves use: the M uniform layouts plus the DOT heuristic's answer when
  // profiles are available (the paper's own argument that DOT lands within
  // a few percent of the optimum makes it a near-perfect warm start). Only
  // the TOC is kept — the winning *placement* is always rediscovered
  // in-tree, because no subtree whose bound ties the incumbent is ever
  // pruned.
  double seed = std::numeric_limits<double>::infinity();
  for (int cls = 0; cls < m; ++cls) {
    const std::vector<int> uniform = UniformPlacement(n, cls);
    const CandidateEval eval = fast.EvaluateQuick(uniform);
    if (eval.feasible) seed = std::min(seed, eval.toc);
  }
  if (problem.profiles != nullptr) {
    const DotResult dot = estimator.Optimize();
    if (dot.status.ok()) seed = std::min(seed, dot.toc_cents_per_task);
  }
  // Caller-supplied warm starts (the advisor's incumbent layout and cached
  // candidate pool): same evaluation path, same only-the-TOC-is-kept rule,
  // so they tighten pruning without being able to change the result.
  if (warm_starts != nullptr) {
    for (const std::vector<int>& w : *warm_starts) {
      if (static_cast<int>(w.size()) != n) continue;
      bool in_range = true;
      for (int cls : w) in_range = in_range && cls >= 0 && cls < m;
      if (!in_range) continue;
      const CandidateEval eval = fast.EvaluateQuick(w);
      if (eval.feasible) {
        seed = std::min(seed, eval.toc);
        ++result.warm_start_hits;
      }
    }
  }

  BnbWalker walker(problem, fast);
  walker.Run(seed);
  const BnbStats& stats = walker.stats();
  const Winner& best = walker.best();

  result.nodes_expanded = stats.expanded;
  result.nodes_pruned_bound = stats.pruned_bound;
  result.nodes_pruned_infeasible = stats.pruned_infeasible;
  result.layouts_pruned = stats.layouts_pruned;
  result.layouts_evaluated = stats.leaves;
  result.arena_bytes_peak = static_cast<long long>(walker.arena_bytes_peak());
  result.plan_cache_hits = fast.plan_cache_hits();
  result.plan_cache_misses = fast.plan_cache_misses();

  if (best.found) {
    // Re-score the winner through the full path (bit-identical toc/cost,
    // now with the PerfEstimate filled) — exactly what the enumerating
    // search does with its winner.
    const CandidateEval eval = EvaluateOneWith(
        estimator, Layout(problem.schema, problem.box, best.placement));
    DOT_CHECK(eval.feasible) << "winner infeasible on full re-score";
    result.placement = best.placement;
    result.toc_cents_per_task = eval.toc;
    result.layout_cost_cents_per_hour = eval.cost_cents_per_hour;
    result.estimate = eval.estimate;
  } else {
    result.status = Status::Infeasible(
        "no layout satisfies the capacity and SLA constraints");
  }
  result.optimize_ms = NowMs() - start_ms;
  return result;
}

}  // namespace

DotResult ExactSearch(const DotProblem& problem, ExactStrategy strategy,
                      long long max_layouts,
                      const std::vector<std::vector<int>>* warm_starts) {
  DOT_CHECK(problem.schema != nullptr && problem.box != nullptr &&
            problem.workload != nullptr);
  const double start_ms = NowMs();
  switch (strategy) {
    case ExactStrategy::kEnumerate:
      // The enumerating search scores every layout anyway; a tighter
      // incumbent seed would not change what it touches.
      return EnumerateSearch(problem, max_layouts, start_ms);
    case ExactStrategy::kBranchAndBound:
      return BranchAndBoundSearch(problem, start_ms, warm_starts);
  }
  DOT_CHECK(false) << "unknown ExactStrategy";
  return DotResult{};
}

}  // namespace dot
