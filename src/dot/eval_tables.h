#ifndef DOTPROV_DOT_EVAL_TABLES_H_
#define DOTPROV_DOT_EVAL_TABLES_H_

#include <memory>
#include <vector>

#include "dot/layout.h"
#include "dot/optimizer.h"
#include "dot/sla.h"
#include "workload/workload.h"

namespace dot {

/// Verdict of one candidate-layout evaluation. Pure data: producing one has
/// no side effects, so evaluations can run on any thread and be committed
/// later by the (deterministic) search driver.
struct CandidateEval {
  /// Σ s_o < c_j on every class (strict — an exactly-full class does not
  /// fit; the Layout::ComputeCapacityFit rule).
  bool fits = false;
  /// fits && meets every performance target.
  bool feasible = false;
  /// estimateTOC, cents/task; +inf when the candidate is infeasible.
  double toc = 0.0;
  /// C(L) in cents/hour (0 when the candidate does not fit).
  double cost_cents_per_hour = 0.0;
  /// Total over-capacity volume, GB (the optimizer's escape gradient).
  double violation_gb = 0.0;
  /// Workload estimate; meaningful only when `fits`.
  PerfEstimate estimate;
};

/// Total order used everywhere a best layout is selected: lower TOC wins,
/// exact TOC ties broken by the lexicographically lowest placement. Because
/// the order is total and depends only on (toc, placement), any reduction
/// over any partition of candidates — per-shard minima merged in shard
/// order, or a serial scan — picks the same winner, which is what makes the
/// sharded exact searches bit-identical to the serial path at every thread
/// count.
bool BetterCandidate(double toc_a, const std::vector<int>& placement_a,
                     double toc_b, const std::vector<int>& placement_b);

/// The full-path evaluation rule: capacity fit, then estimateTOC with the
/// full PerfEstimate materialized. The one implementation of the rule —
/// FastEvaluator falls back to it, and every engine re-scores its winner
/// (and the epoch planner scores its pool) through it.
CandidateEval EvaluateOneWith(const DotOptimizer& estimator,
                              const Layout& layout);

/// The candidate evaluator every search scores layouts through
/// (DESIGN.md §4).
///
/// The searches consume only {toc, cost, feasibility, violation} per
/// candidate, yet the full path re-plans every query template and
/// heap-allocates an N-object PerfEstimate each time. When the fast path is
/// enabled this class scores a candidate from precomputed per-object tables
/// instead:
///
///   * space/capacity/cost: a fixed-order sum of per-object sizes into a
///     stack buffer, priced by the same span kernels Layout uses;
///   * workload time: the model's FastScorer (per-object device-time tables
///     for OLTP, a footprint-keyed plan cache for DSS, and for HTAP a
///     composite of both plus the interference tables).
///
/// Every value is bit-identical to what EvaluateOneWith/EstimateToc would
/// produce — the fast path reorganizes the arithmetic, it never
/// approximates — so search decisions (and therefore results) are unchanged
/// and only the committed winner needs a full re-score to fill in its
/// PerfEstimate.
class FastEvaluator {
 public:
  /// Builds the tables once for the run. The fast path stays disabled
  /// (enabled() == false) when the problem sets `use_fast_eval = false` or
  /// the workload model offers no FastScorer; EvaluateQuick then returns
  /// the full-path verdict.
  explicit FastEvaluator(const DotOptimizer& estimator);
  ~FastEvaluator();

  bool enabled() const { return scorer_ != nullptr; }

  const DotProblem& problem() const { return estimator_.problem(); }

  /// Scores one candidate. With the fast path enabled no PerfEstimate is
  /// materialized (CandidateEval::estimate stays empty); disabled, this is
  /// EvaluateOneWith. Either way toc/cost/feasibility/violation are the
  /// full path's, bit for bit. Thread-safe.
  CandidateEval EvaluateQuick(const std::vector<int>& placement) const;

  /// Exact-search leaf path (branch-and-bound leaves, exhaustive-scan
  /// steps): the same fit/cost kernels as
  /// EvaluateQuick, but the workload score is supplied by the caller (the
  /// bound cursor's Optimistic(), which is exact at a fully assigned
  /// placement). Bit-identical to EvaluateQuick whenever `qp` equals what
  /// the scorer would produce. Requires enabled(). Thread-safe.
  CandidateEval EvaluateWithScore(const std::vector<int>& placement,
                                  const QuickPerf& qp) const;

  /// The underlying workload scorer (null when the fast path is disabled);
  /// the exact searches build their BoundCursors from it (one for the
  /// branch-and-bound walk, one per scan shard).
  const FastScorer* scorer() const { return scorer_.get(); }

  /// Plan-cache traffic of the underlying scorer (0/0 when the fast path
  /// is disabled or the model has no plan cache, e.g. OLTP).
  long long plan_cache_hits() const;
  long long plan_cache_misses() const;

  /// Stack budget for the per-class space accumulator; no real box comes
  /// close (Table 2 has 3-4 classes).
  static constexpr int kMaxClasses = 32;

 private:
  /// Fills fits/violation/cost; false (with toc = +inf) when over capacity.
  bool FitAndCost(const std::vector<int>& placement,
                  CandidateEval* eval) const;
  /// Applies the workload score: TOC, SLA feasibility.
  CandidateEval Finish(CandidateEval eval, const QuickPerf& qp) const;

  const DotOptimizer& estimator_;
  std::unique_ptr<FastScorer> scorer_;
};

/// placement[o] = (index / M^o) mod M for an N-digit, radix-M space.
std::vector<int> DecodeLayoutIndex(long long index, int num_objects,
                                   int num_classes);

/// The odometer walk over layout indices [begin, end) of the problem's
/// N-digit, radix-M space (DecodeLayoutIndex's order, digit 0 least
/// significant): calls `visit(placement, eval)` once per layout, in index
/// order, with the verdict EvaluateQuick would return, bit for bit. The one
/// walker: the exhaustive scan's shards and the fleet's enumerated pools
/// both run on it.
///
/// With the fast path on, the scorer's bound cursor rides the odometer.
/// Digit 0 is assigned last, so a step that rolls digits 0..k unassigns
/// them in LIFO order and re-assigns k..0; every step is a fully assigned
/// leaf, where Optimistic() is exact (the BoundCursor leaf contract,
/// workload.h). For DSS only the templates whose footprint holds a rolled
/// digit re-resolve. With the fast path off every step is EvaluateQuick.
template <typename Visit>
void WalkLayouts(const FastEvaluator& fast, long long begin, long long end,
                 const Visit& visit) {
  if (begin >= end) return;
  const int n = fast.problem().schema->NumObjects();
  const int m = fast.problem().box->NumClasses();
  std::vector<int> placement = DecodeLayoutIndex(begin, n, m);
  const std::vector<int>& current = placement;
  std::unique_ptr<FastScorer::BoundCursor> cursor;
  if (fast.scorer() != nullptr) cursor = fast.scorer()->MakeBoundCursor();
  if (cursor != nullptr) {
    for (int o = n - 1; o >= 0; --o) cursor->Assign(o, placement);
  }
  for (long long idx = begin; idx < end; ++idx) {
    visit(current,
          cursor != nullptr
              ? fast.EvaluateWithScore(placement,
                                       cursor->Optimistic(placement))
              : fast.EvaluateQuick(placement));
    // Advance the odometer; `top` is the highest digit that changed —
    // almost always 0.
    int top = 0;
    while (top < n) {
      const size_t d = static_cast<size_t>(top);
      if (++placement[d] < m) break;
      placement[d] = 0;
      ++top;
    }
    // The last step (the only one that can wrap all N digits) leaves the
    // cursor alone.
    if (cursor == nullptr || idx + 1 == end) continue;
    for (int d = 0; d <= top; ++d) cursor->Unassign(d);
    for (int d = top; d >= 0; --d) cursor->Assign(d, placement);
  }
}

/// M^N, the size of the N-digit, radix-M layout space, saturating at
/// LLONG_MAX instead of wrapping: 3^40 and the like must produce a clean
/// refusal from a `> cap` guard, not undefined behaviour.
long long LayoutSpaceSize(int num_objects, int num_classes);

}  // namespace dot

#endif  // DOTPROV_DOT_EVAL_TABLES_H_
