#include "dot/candidate_evaluator.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/check.h"
#include "dot/eval_tables.h"

namespace dot {

bool BetterCandidate(double toc_a, const std::vector<int>& placement_a,
                     double toc_b, const std::vector<int>& placement_b) {
  if (toc_a != toc_b) return toc_a < toc_b;
  return placement_a < placement_b;
}

std::vector<int> DecodeLayoutIndex(long long index, int num_objects,
                                   int num_classes) {
  DOT_CHECK(index >= 0 && num_objects >= 0 && num_classes >= 1);
  std::vector<int> placement(static_cast<size_t>(num_objects), 0);
  for (int o = 0; o < num_objects && index != 0; ++o) {
    placement[static_cast<size_t>(o)] = static_cast<int>(index % num_classes);
    index /= num_classes;
  }
  DOT_CHECK(index == 0) << "layout index out of range for the M^N space";
  return placement;
}

long long LayoutSpaceSize(int num_objects, int num_classes) {
  DOT_CHECK(num_objects >= 0 && num_classes >= 1);
  constexpr long long kMax = std::numeric_limits<long long>::max();
  long long total = 1;
  for (int o = 0; o < num_objects; ++o) {
    if (total > kMax / num_classes) return kMax;
    total *= num_classes;
  }
  return total;
}

CandidateEvaluator::CandidateEvaluator(const DotOptimizer& estimator,
                                       ThreadPool* pool)
    : estimator_(estimator), pool_(pool) {
  DOT_CHECK(pool_ != nullptr);
  if (estimator_.problem().options.use_fast_eval) {
    auto fast = std::make_unique<FastEvaluator>(estimator_);
    if (fast->enabled()) fast_ = std::move(fast);
  }
}

CandidateEvaluator::~CandidateEvaluator() = default;

CandidateEval CandidateEvaluator::EvaluateOne(const Layout& layout) const {
  return EvaluateOneWith(estimator_, layout);
}

CandidateEval CandidateEvaluator::EvaluateOneWith(
    const DotOptimizer& estimator, const Layout& layout) {
  CandidateEval eval;
  const Layout::CapacityFit fit = layout.ComputeCapacityFit();
  eval.fits = fit.fits;
  eval.violation_gb = fit.violation_gb;
  if (!eval.fits) {
    eval.toc = std::numeric_limits<double>::infinity();
    return eval;
  }
  // EstimateToc owns the SLA verdict: MeetsTargets on the point forecast,
  // the chance constraint under an ensemble.
  bool sla_ok = false;
  eval.toc = estimator.EstimateToc(layout, &eval.estimate,
                                   &eval.cost_cents_per_hour, &sla_ok);
  eval.feasible = sla_ok;
  if (!eval.feasible) eval.toc = std::numeric_limits<double>::infinity();
  return eval;
}

CandidateEval CandidateEvaluator::EvaluateQuick(const Layout& layout) const {
  if (fast_ == nullptr) return EvaluateOne(layout);
  return fast_->EvaluateQuick(layout.placement());
}

std::vector<CandidateEval> CandidateEvaluator::EvaluateBatch(
    const std::vector<Layout>& candidates) const {
  std::vector<CandidateEval> evals(candidates.size());
  pool_->ParallelFor(0, static_cast<int64_t>(candidates.size()),
                     [&](int64_t i) {
                       evals[static_cast<size_t>(i)] =
                           EvaluateOne(candidates[static_cast<size_t>(i)]);
                     });
  return evals;
}

std::vector<CandidateEval> CandidateEvaluator::EvaluateBatchQuick(
    const std::vector<Layout>& candidates) const {
  std::vector<CandidateEval> evals(candidates.size());
  pool_->ParallelFor(0, static_cast<int64_t>(candidates.size()),
                     [&](int64_t i) {
                       evals[static_cast<size_t>(i)] =
                           EvaluateQuick(candidates[static_cast<size_t>(i)]);
                     });
  return evals;
}

long long CandidateEvaluator::plan_cache_hits() const {
  return fast_ != nullptr ? fast_->plan_cache_hits() : 0;
}

long long CandidateEvaluator::plan_cache_misses() const {
  return fast_ != nullptr ? fast_->plan_cache_misses() : 0;
}

CandidateEvaluator::SpaceScan CandidateEvaluator::ScanLayoutSpace(
    long long space_begin, long long space_end) const {
  const DotProblem& problem = estimator_.problem();
  const int n = problem.schema->NumObjects();
  const int m = problem.box->NumClasses();

  SpaceScan out;
  if (space_begin >= space_end) return out;

  // Oversplit relative to the lane count for load balance. The shard count
  // (and thus the boundaries) DOES vary with the thread count — determinism
  // comes solely from the merge below being a minimum under the
  // BetterCandidate total order, which picks the same winner for any
  // partition of the space. Do not replace the reduction with a
  // first-found or shard-order rule. The fast path keeps this safe: every
  // scalar a candidate is scored from is a fixed-order sum over tables, so
  // its value cannot depend on which shard (or thread) evaluated it.
  const int num_shards = static_cast<int>(std::min<long long>(
      space_end - space_begin, 8LL * pool_->num_threads()));
  std::vector<SpaceScan> per_shard(static_cast<size_t>(num_shards));

  pool_->ParallelForShards(
      space_begin, space_end, num_shards,
      [&](int shard, int64_t shard_begin, int64_t shard_end) {
        SpaceScan local;
        std::vector<int> placement = DecodeLayoutIndex(shard_begin, n, m);
        // Drive the scorer's bound cursor along the odometer. Digit 0 (the
        // least significant) is assigned last, so a step that rolls digits
        // 0..k unassigns them in LIFO order and re-assigns k..0; every step
        // is a fully assigned leaf, where Optimistic() is exact (the
        // BoundCursor leaf contract, workload.h). For DSS only the
        // templates whose footprint holds a rolled digit re-resolve.
        std::unique_ptr<FastScorer::BoundCursor> cursor;
        if (fast_ != nullptr) cursor = fast_->scorer()->MakeBoundCursor();
        if (cursor != nullptr) {
          for (int o = n - 1; o >= 0; --o) cursor->Assign(o, placement);
        }
        for (int64_t idx = shard_begin; idx < shard_end; ++idx) {
          local.evaluated += 1;
          CandidateEval eval;
          if (cursor != nullptr) {
            eval = fast_->EvaluateWithScore(placement,
                                            cursor->Optimistic(placement));
          } else {
            eval = EvaluateQuick(
                Layout(problem.schema, problem.box, placement));
          }
          if (eval.feasible) {
            if (!local.feasible_found ||
                BetterCandidate(eval.toc, placement, local.best.toc,
                                local.best_placement)) {
              local.feasible_found = true;
              local.best = std::move(eval);
              local.best_placement = placement;
            }
          }
          // Advance the M-ary odometer (digit 0 least significant); `top`
          // is the highest digit that changed — almost always 0.
          int top = 0;
          while (top < n) {
            const size_t d = static_cast<size_t>(top);
            if (++placement[d] < m) break;
            placement[d] = 0;
            ++top;
          }
          // A shard's last step (the only one that can wrap all N digits)
          // leaves the cursor alone.
          if (cursor == nullptr || idx + 1 == shard_end) continue;
          for (int d = 0; d <= top; ++d) cursor->Unassign(d);
          for (int d = top; d >= 0; --d) cursor->Assign(d, placement);
        }
        per_shard[static_cast<size_t>(shard)] = std::move(local);
      });

  for (SpaceScan& shard : per_shard) {
    out.evaluated += shard.evaluated;
    if (!shard.feasible_found) continue;
    if (!out.feasible_found ||
        BetterCandidate(shard.best.toc, shard.best_placement, out.best.toc,
                        out.best_placement)) {
      out.feasible_found = true;
      out.best = std::move(shard.best);
      out.best_placement = std::move(shard.best_placement);
    }
  }

  // Quick evaluations carry no PerfEstimate; re-score the winner through
  // the full path (bit-identical toc/cost, now with the estimate filled).
  if (out.feasible_found && fast_ != nullptr) {
    out.best =
        EvaluateOne(Layout(problem.schema, problem.box, out.best_placement));
  }
  return out;
}

}  // namespace dot
