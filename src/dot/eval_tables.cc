#include "dot/eval_tables.h"

#include <array>
#include <limits>

#include "common/check.h"
#include "dot/ensemble.h"
#include "dot/sla.h"
#include "storage/pricing.h"

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

CandidateEval EvaluateOneWith(const DotOptimizer& estimator,
                              const Layout& layout) {
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

FastEvaluator::FastEvaluator(const DotOptimizer& estimator)
    : estimator_(estimator) {
  const DotProblem& problem = estimator_.problem();
  // The one reader of use_fast_eval: off, every verdict takes the full
  // path (the fast-vs-full equivalence tests' oracle).
  if (!problem.options.use_fast_eval) return;
  if (problem.box->NumClasses() > kMaxClasses) {
    // Out of stack budget: stay disabled and use the full path — such a
    // box must still optimize, just not fast.
    return;
  }
  const PerfTargets& targets = estimator_.targets();
  if (targets.kind != problem.workload->sla_kind()) {
    // A targets_override of the other kind (e.g. throughput targets over a
    // DSS workload) is degenerate but legal — MeetsTargets just finds every
    // candidate infeasible. The scorers assume matching caps, so leave the
    // fast path disabled and let the full path produce that verdict.
    return;
  }
  if (problem.ensemble != nullptr) {
    // Robust mode: K child scorers under the ensemble aggregation. Null
    // (some scenario model offers no fast scorer) leaves the fast path
    // disabled, exactly like a point forecast without one.
    scorer_ = MakeEnsembleScorer(*problem.workload, *problem.ensemble,
                                 problem.ensemble_objective,
                                 problem.io_scale_hint, targets);
    return;
  }
  scorer_ = problem.workload->MakeFastScorer(
      problem.io_scale_hint, targets.query_caps_ms, targets.min_tpmc,
      kDefaultSlaTolerance);
}

FastEvaluator::~FastEvaluator() = default;

bool FastEvaluator::FitAndCost(const std::vector<int>& placement,
                               CandidateEval* eval) const {
  const DotProblem& problem = estimator_.problem();
  std::array<double, kMaxClasses> used{};
  Layout::AddSpaceByClass(problem.schema->sizes_gb(), placement.data(),
                          used.data());
  const Layout::CapacityFit fit =
      Layout::FitFromSpace(*problem.box, used.data());
  eval->fits = fit.fits;
  eval->violation_gb = fit.violation_gb;
  if (!eval->fits) {
    // Like EvaluateOneWith, skip estimation for over-capacity candidates.
    eval->toc = std::numeric_limits<double>::infinity();
    return false;
  }
  eval->cost_cents_per_hour = LayoutCostCentsPerHour(
      *problem.box, used.data(), problem.box->NumClasses(),
      problem.cost_model);
  return true;
}

CandidateEval FastEvaluator::Finish(CandidateEval eval,
                                    const QuickPerf& qp) const {
  DOT_CHECK(qp.tasks_per_hour > 0) << "estimate produced zero throughput";
  eval.toc = eval.cost_cents_per_hour / qp.tasks_per_hour;
  eval.feasible = qp.sla_ok;
  if (!eval.feasible) eval.toc = std::numeric_limits<double>::infinity();
  return eval;
}

CandidateEval FastEvaluator::EvaluateQuick(
    const std::vector<int>& placement) const {
  if (scorer_ == nullptr) {
    const DotProblem& problem = estimator_.problem();
    return EvaluateOneWith(estimator_,
                           Layout(problem.schema, problem.box, placement));
  }
  CandidateEval eval;
  if (!FitAndCost(placement, &eval)) return eval;
  return Finish(eval, scorer_->Score(placement));
}

CandidateEval FastEvaluator::EvaluateWithScore(
    const std::vector<int>& placement, const QuickPerf& qp) const {
  DOT_CHECK(scorer_ != nullptr);
  CandidateEval eval;
  if (!FitAndCost(placement, &eval)) return eval;
  return Finish(eval, qp);
}

long long FastEvaluator::plan_cache_hits() const {
  return scorer_ != nullptr ? scorer_->cache_hits() : 0;
}

long long FastEvaluator::plan_cache_misses() const {
  return scorer_ != nullptr ? scorer_->cache_misses() : 0;
}

}  // namespace dot
