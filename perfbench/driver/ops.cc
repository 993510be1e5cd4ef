#include "ops.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/str_util.h"

namespace perfbench {

namespace {

using namespace dot;
using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

std::string PlacementString(const std::vector<int>& placement) {
  std::string s;
  for (int c : placement) s += static_cast<char>('0' + c);
  return s;
}

/// The status check: anything but OK or Infeasible fails the op.
bool StatusPasses(const Status& s) {
  return s.ok() || s.code() == StatusCode::kInfeasible;
}

/// Everything a single-shot result must repeat bit for bit: verdict,
/// placement, TOC and the five search counters.
std::string SingleShotFingerprint(const SolveResult& r) {
  return StrPrintf("%s|%s|%a|%lld|%lld|%lld|%lld|%lld",
                   StatusCodeName(r.status.code()),
                   PlacementString(r.placement).c_str(), r.toc_cents_per_task,
                   r.dot.layouts_evaluated, r.dot.nodes_expanded,
                   r.dot.nodes_pruned_bound, r.dot.nodes_pruned_infeasible,
                   r.dot.layouts_pruned);
}

std::string DecisionFingerprint(const AdvisorDecision& d,
                                const std::vector<int>& layout) {
  return StrPrintf("%d:%d:%d:%a:%a:%d:", d.window, d.replanned ? 1 : 0,
                   d.migrated ? 1 : 0, d.deviation, d.statistic,
                   d.model_index) +
         PlacementString(layout);
}

std::string FleetFingerprint(const FleetPlan& plan) {
  std::string fp = StrPrintf(
      "%s|%a|%a|%a|%d|%d|%d|%d|%d|%lld|", StatusCodeName(plan.status.code()),
      plan.total_toc_cents_per_task, plan.total_cost_cents_per_hour,
      plan.independent_toc_cents_per_task, plan.pool_builds,
      plan.pool_cache_hits, plan.price_iterations_run, plan.exchange_moves,
      plan.improve_moves, plan.layouts_evaluated);
  for (const FleetTenantChoice& c : plan.tenants) {
    fp += PlacementString(c.placement) + ",";
  }
  return fp;
}

uint64_t Fnv1a(const std::string& s, uint64_t h = 1469598103934665603ULL) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Feeds exactly one recorded event: one advisor window per Run call.
class OneEventFeed : public TraceFeed {
 public:
  explicit OneEventFeed(const TraceEvent* event) : event_(event) {}
  bool Next(TraceEvent* event) override {
    if (event_ == nullptr) return false;
    *event = *event_;
    event_ = nullptr;
    return true;
  }

 private:
  const TraceEvent* event_;
};

constexpr size_t kMaxFailureNotes = 8;
/// Set-ups run between rounds this often, so that set-up time is sampled
/// across the whole run: setup_s is the fastest, and on a shared host a
/// set-up runs at full speed only in the quiet stretches.
constexpr double kSetUpPeriodS = 0.5;
constexpr int kQuickBagLayouts = 64;

}  // namespace

struct Runner::SingleShot {
  SolveResult result;
  std::string fp;
};

struct Runner::Session {
  std::unique_ptr<Advisor> advisor;
  size_t next_window = 0;
  bool first = false;
};

Runner::Runner(Family* family, Tracer* tracer, uint64_t seed)
    : f_(family), tracer_(tracer), seed_(seed) {
  heuristic_.resize(f_->instances.size());
  exact_.resize(f_->instances.size());
  fleet_fp_.resize(f_->fleet.budgets.size());
  fleet_toc_.resize(f_->fleet.budgets.size());
  fleet_placements_.resize(f_->fleet.budgets.size());
}

Runner::~Runner() = default;

void Runner::Fail(OpKind kind, long long item, const std::string& why) {
  failed_items_.insert({static_cast<int>(kind), item});
  if (out_.failures.size() < kMaxFailureNotes) out_.failures.push_back(why);
}

void Runner::RunTimed(double seconds, const std::function<void()>& set_up) {
  const Clock::time_point t0 = Clock::now();
  Clock::time_point last_set_up = t0;
  const Round& round = f_->round;
  size_t slot = 0;
  for (;;) {
    // A pass drives every instance and every budget point equally often,
    // so passes weigh alike whichever budget points the seed placed where.
    const bool whole_pass =
        next_instance_ % f_->instances.size() == 0 &&
        next_budget_ % f_->fleet.budgets.size() == 0;
    if (whole_pass) slot = 0;
    const bool covered = next_instance_ >= f_->core_instances &&
                         next_budget_ >= f_->fleet.budgets.size() &&
                         first_session_done_;
    // Stop on a whole pass: every run then weighs each instance and each
    // budget point alike, whichever order the seed put them in.
    if (covered && whole_pass && MsSince(t0) >= 1000.0 * seconds) break;
    if (MsSince(last_set_up) >= 1000.0 * kSetUpPeriodS) {
      set_up();
      last_set_up = Clock::now();
    }
    const Clock::time_point r0 = Clock::now();
    const double cpu0 = CpuSeconds();
    const long long ops0 = out_.attempted;
    for (int i = 0; i < round.pairs; ++i) {
      RunPair(next_instance_++ % f_->instances.size());
    }
    for (int i = 0; i < round.advisor_steps; ++i) AdvisorStep();
    for (int i = 0; i < round.fleet_ops; ++i) {
      RunFleetOp(next_budget_++ % f_->fleet.budgets.size());
    }
    out_.rounds.Add(slot++, MsSince(r0) / 1000.0, CpuSeconds() - cpu0,
                    static_cast<double>(out_.attempted - ops0));
  }
}

void Runner::RunPair(size_t idx) {
  const Instance& inst = f_->instances[idx];
  const long long op = next_op_++;
  Span op_span(tracer_, "op.pair", op);
  SolveSpec hspec;
  hspec.method = SolveMethod::kDotHeuristic;
  SolveSpec espec;
  espec.method = SolveMethod::kExact;

  SolveResult h;
  {
    Span span(tracer_, "dot.solve_heuristic", op);
    const Clock::time_point t0 = Clock::now();
    h = Solve(inst.problem, hspec);
    out_.heuristic.Add(MsSince(t0), idx);
  }
  SolveResult e;
  double exact_ms = 0.0;
  {
    Span span(tracer_, "dot.solve_exact", op);
    const Clock::time_point t0 = Clock::now();
    e = Solve(inst.problem, espec);
    exact_ms = MsSince(t0);
    out_.exact.Add(exact_ms, idx);
  }

  const long long item = static_cast<long long>(idx);
  auto record = [&](OpKind kind, SolveResult* r,
                    std::unique_ptr<SingleShot>* first) {
    ++out_.attempted;
    ++ops_per_item_[{static_cast<int>(kind), item}];
    const char* what = kind == OpKind::kExact ? "exact" : "heuristic";
    if (!StatusPasses(r->status)) {
      Fail(kind, item,
           StrPrintf("%s op on %s: status %s", what, inst.label.c_str(),
                     r->status.ToString().c_str()));
      return;
    }
    std::string fp = SingleShotFingerprint(*r);
    if (*first == nullptr) {
      *first = std::make_unique<SingleShot>();
      (*first)->fp = std::move(fp);
      (*first)->result = std::move(*r);
    } else if (fp != (*first)->fp) {
      Fail(kind, item,
           StrPrintf("%s op on %s: result differs from its first run", what,
                     inst.label.c_str()));
    }
  };
  // Per-op layer samples are the traced run's only: the untraced run keeps
  // nothing per op but its latencies, so its peak RSS does not grow with
  // the op count. Counters are read before record() may move the result.
  if (tracer_->enabled()) {
    auto add = [this](const char* name, double value) {
      out_.layer_samples[name].push_back(value);
    };
    if (StatusPasses(e.status)) {
      const DotResult& d = e.dot;
      const double space =
          std::pow(static_cast<double>(inst.problem.box->NumClasses()),
                   inst.problem.schema->NumObjects());
      add("dot.leaves", static_cast<double>(d.layouts_evaluated));
      add("dot.nodes_expanded", static_cast<double>(d.nodes_expanded));
      add("dot.nodes_pruned_bound",
          static_cast<double>(d.nodes_pruned_bound));
      add("dot.nodes_pruned_infeasible",
          static_cast<double>(d.nodes_pruned_infeasible));
      add("dot.prune_ratio", static_cast<double>(d.layouts_pruned) / space);
      add("dot.arena_bytes_peak", static_cast<double>(d.arena_bytes_peak));
      add("exact.nodes",
          static_cast<double>(d.nodes_expanded + d.nodes_pruned_bound +
                              d.nodes_pruned_infeasible +
                              d.layouts_evaluated));
      add("exact.solve_ms", exact_ms);
      add("exact.cache_hits", static_cast<double>(d.plan_cache_hits));
      add("exact.cache_misses", static_cast<double>(d.plan_cache_misses));
    }
    if (StatusPasses(h.status)) {
      add("dot.heuristic_layouts",
          static_cast<double>(h.dot.layouts_evaluated));
    }
    const std::vector<int>& winner = e.status.ok() ? e.placement : h.placement;
    ProbeLayers(inst, winner, op);
    if (StatusPasses(e.status)) {
      // Search self time: the exact op minus what the probes price its
      // per-call fixed costs at (target derivation and table build; a
      // one-lane op spawns no pool).
      add("dot.search_ms", exact_ms -
                               out_.layer_samples["dot.targets_ms"].back() -
                               out_.layer_samples["dot.tables_ms"].back());
    }
  }
  record(OpKind::kHeuristic, &h, &heuristic_[idx]);
  record(OpKind::kExact, &e, &exact_[idx]);
}

void Runner::ProbeLayers(const Instance& inst, const std::vector<int>& winner,
                         long long op) {
  {
    // The pool a min(4, nproc)-lane engine call would spawn and join.
    const int lanes = std::min(4, ThreadPool::ResolveThreadCount(0));
    Span span(tracer_, "common.pool_spawn_join", op);
    { ThreadPool pool(lanes); }
    out_.layer_samples["common.pool_spawn_join_us"].push_back(span.Close());
  }
  std::unique_ptr<DotOptimizer> optimizer;
  {
    Span span(tracer_, "dot.targets", op);
    optimizer = std::make_unique<DotOptimizer>(inst.problem);
    out_.layer_samples["dot.targets_ms"].push_back(span.Close() / 1000.0);
  }
  std::unique_ptr<FastEvaluator> evaluator;
  {
    Span span(tracer_, "dot.tables", op);
    evaluator = std::make_unique<FastEvaluator>(*optimizer);
    out_.layer_samples["dot.tables_ms"].push_back(span.Close() / 1000.0);
  }
  if (evaluator->enabled()) {
    Rng rng(seed_ * 1000003ULL + static_cast<uint64_t>(op));
    const int m = inst.problem.box->NumClasses();
    std::vector<std::vector<int>> bag(kQuickBagLayouts);
    for (std::vector<int>& layout : bag) {
      layout.resize(static_cast<size_t>(inst.problem.schema->NumObjects()));
      for (int& c : layout) c = static_cast<int>(rng.NextBounded(m));
    }
    Span span(tracer_, "dot.quick_bag", op);
    double sink = 0.0;
    for (const std::vector<int>& layout : bag) {
      sink += evaluator->EvaluateQuick(layout).cost_cents_per_hour;
    }
    const double us = span.Close();
    if (sink >= 0.0 && us > 0.0) {
      out_.layer_samples["dot.quick_layouts_per_s"].push_back(
          kQuickBagLayouts * 1e6 / us);
    }
  }
  if (winner.empty()) return;
  if (inst.dss != nullptr) {
    Span span(tracer_, "query.plan", op);
    for (const QuerySpec& q : inst.dss->templates()) {
      inst.dss->planner().PlanQuery(q, winner);
    }
    out_.layer_samples["query.plan_us"].push_back(
        span.Close() / static_cast<double>(inst.dss->templates().size()));
  }
  {
    Span span(tracer_, "workload.estimate", op);
    inst.problem.workload->Estimate(winner);
    out_.layer_samples["workload.estimate_ms"].push_back(span.Close() / 1000.0);
  }
}

void Runner::AdvisorStep() {
  const AdvisorInputs& a = f_->advisor;
  for (;;) {
    if (session_ == nullptr || session_->next_window >= a.trace.events.size()) {
      const bool first = session_ == nullptr;
      session_ = std::make_unique<Session>();
      session_->first = first;
      session_->advisor = std::make_unique<Advisor>(a.problem, a.config);
      const Status init = session_->advisor->Init();
      if (!init.ok()) {
        ++out_.attempted;
        ++ops_per_item_[{static_cast<int>(OpKind::kReplan), -1}];
        Fail(OpKind::kReplan, -1, "advisor init: " + init.ToString());
        first_session_done_ = true;
        session_.reset();
        return;
      }
    }
    const size_t w = session_->next_window++;
    const long long op = next_op_++;
    OneEventFeed feed(&a.trace.events[w]);
    AdvisorRun r;
    double ms = 0.0;
    {
      Span span(tracer_, "advisor.run", op);
      const Clock::time_point t0 = Clock::now();
      r = session_->advisor->Run(&feed);
      ms = MsSince(t0);
    }
    const long long item = static_cast<long long>(w);
    ++out_.attempted;
    ++ops_per_item_[{static_cast<int>(OpKind::kReplan), item}];
    const bool last = session_->next_window == a.trace.events.size();
    if (session_->first && last) first_session_done_ = true;
    if (!r.status.ok() || r.decisions.size() != 1) {
      Fail(OpKind::kReplan, item,
           StrPrintf("advisor window %zu: status %s", w,
                     r.status.ToString().c_str()));
      if (last) return;
      continue;
    }
    const AdvisorDecision& d = r.decisions[0];
    const std::string fp = DecisionFingerprint(d, r.layout_by_window[0]);
    if (session_->first) {
      first_session_fp_.push_back(fp);
      first_session_layouts_.push_back(r.layout_by_window[0]);
      std::map<std::string, std::vector<double>>& samples = out_.layer_samples;
      samples["advisor.replanned"].push_back(d.replanned ? 1.0 : 0.0);
      samples["advisor.migrated"].push_back(d.migrated ? 1.0 : 0.0);
      samples["advisor.layouts_evaluated"].push_back(
          static_cast<double>(r.layouts_evaluated));
    } else if (w >= first_session_fp_.size() || fp != first_session_fp_[w]) {
      Fail(OpKind::kReplan, item,
           StrPrintf("advisor window %zu: decision differs from the first "
                     "session's",
                     w));
    }
    if (d.replanned) {
      out_.replan.Add(ms, w);
      return;
    }
    if (tracer_->enabled()) {
      out_.layer_samples["advisor.quiet_window_us"].push_back(1000.0 * ms);
    }
    if (last) return;
  }
}

void Runner::RunFleetOp(size_t idx) {
  const FleetInputs& fl = f_->fleet;
  FleetSpec fleet_spec;
  fleet_spec.tenants = &fl.tenants;
  fleet_spec.config = fl.config;
  fleet_spec.config.constraints.budget_cents_per_hour = fl.budgets[idx];
  DotProblem problem;
  problem.box = fl.box;
  problem.options.num_threads = kEngineThreads;
  SolveSpec spec;
  spec.method = SolveMethod::kFleet;
  spec.fleet = &fleet_spec;

  const long long op = next_op_++;
  SolveResult r;
  double ms = 0.0;
  {
    Span span(tracer_, "fleet.solve", op);
    const Clock::time_point t0 = Clock::now();
    r = Solve(problem, spec);
    ms = MsSince(t0);
  }
  out_.fleet.Add(ms, idx);
  const long long item = static_cast<long long>(idx);
  ++out_.attempted;
  ++ops_per_item_[{static_cast<int>(OpKind::kFleet), item}];
  if (!StatusPasses(r.status)) {
    Fail(OpKind::kFleet, item,
         StrPrintf("fleet op at budget %zu: status %s", idx,
                   r.status.ToString().c_str()));
    return;
  }
  const FleetPlan& plan = r.fleet;
  const size_t n = fl.tenants.size();
  if (r.status.ok()) {
    // The FleetPlan guarantees: budget feasibility, never-lose against the
    // independent baseline, one pool build or cache hit per tenant, and
    // totals accumulated in tenant order.
    const double budget = fl.budgets[idx];
    double toc_sum = 0.0;
    for (const FleetTenantChoice& c : plan.tenants) {
      toc_sum += c.toc_cents_per_task;
    }
    std::string why;
    if (budget > 0 && plan.total_cost_cents_per_hour > budget * (1 + 1e-9)) {
      why = "over budget";
    } else if (plan.independent_feasible &&
               plan.total_toc_cents_per_task >
                   plan.independent_toc_cents_per_task) {
      why = "lost to the independent baseline";
    } else if (static_cast<size_t>(plan.pool_builds +
                                   plan.pool_cache_hits) != n) {
      why = "pool_builds + pool_cache_hits != tenants";
    } else if (plan.tenants.size() != n ||
               toc_sum != plan.total_toc_cents_per_task) {
      why = "total TOC is not the tenant-order sum";
    }
    if (!why.empty()) {
      Fail(OpKind::kFleet, item, StrPrintf("fleet op at budget %zu: %s", idx,
                                           why.c_str()));
    }
  }
  if (r.status.ok() && tracer_->enabled()) {
    auto add = [this](const char* name, double value) {
      out_.layer_samples[name].push_back(value);
    };
    add("fleet.pool_builds", plan.pool_builds);
    add("fleet.pool_cache_hits", plan.pool_cache_hits);
    add("fleet.price_iterations", plan.price_iterations_run);
    add("fleet.exchange_moves", plan.exchange_moves);
    add("fleet.improve_moves", plan.improve_moves);
    if (fl.binding[idx] && ms > 0.0) {
      add("fleet.tenant_prices_per_s",
          static_cast<double>(n) * plan.price_iterations_run / (ms / 1000.0));
    }
  }
  std::string fp = FleetFingerprint(plan);
  if (fleet_fp_[idx].empty()) {
    fleet_fp_[idx] = std::move(fp);
    fleet_toc_[idx] = r.status.ok() ? plan.total_toc_cents_per_task : -1.0;
    for (const FleetTenantChoice& c : plan.tenants) {
      fleet_placements_[idx].push_back(c.placement);
    }
  } else if (fp != fleet_fp_[idx]) {
    Fail(OpKind::kFleet, item,
         StrPrintf("fleet op at budget %zu: plan differs from its first run",
                   idx));
  }
}

void Runner::CheckSingleShots() {
  double log_ratio_sum = 0.0;
  int ratio_n = 0;
  double exact_toc_sum = 0.0;
  int resolves = 0;
  for (size_t i = 0; i < f_->instances.size(); ++i) {
    const Instance& inst = f_->instances[i];
    const long long item = static_cast<long long>(i);
    // Re-score every returned placement on the full estimator.
    DotProblem full = inst.problem;
    full.options.use_fast_eval = false;
    const DotOptimizer oracle(full);
    for (OpKind kind : {OpKind::kHeuristic, OpKind::kExact}) {
      const auto& slot = kind == OpKind::kExact ? exact_[i] : heuristic_[i];
      if (slot == nullptr || !slot->result.status.ok()) continue;
      PerfEstimate est;
      bool sla_ok = false;
      const double toc =
          oracle.EstimateToc(slot->result.placement, &est, nullptr, &sla_ok);
      if (toc != slot->result.toc_cents_per_task || !sla_ok) {
        Fail(kind, item,
             StrPrintf("%s op on %s: full re-score gives TOC %a (SLA %s), "
                       "op returned %a",
                       kind == OpKind::kExact ? "exact" : "heuristic",
                       inst.label.c_str(), toc, sla_ok ? "met" : "missed",
                       slot->result.toc_cents_per_task));
      }
    }
    if (heuristic_[i] == nullptr || exact_[i] == nullptr) continue;
    const SolveResult& h = heuristic_[i]->result;
    const SolveResult& e = exact_[i]->result;
    if (h.status.ok() && !e.status.ok()) {
      Fail(OpKind::kExact, item,
           "exact op on " + inst.label + ": infeasible where the heuristic "
           "found a layout");
    } else if (h.status.ok() && e.status.ok()) {
      if (h.toc_cents_per_task < e.toc_cents_per_task) {
        Fail(OpKind::kExact, item,
             "exact op on " + inst.label + ": heuristic TOC below the optimum");
      }
    }
    if (i >= f_->core_instances) continue;
    if (h.status.ok() && e.status.ok()) {
      log_ratio_sum += std::log(h.toc_cents_per_task / e.toc_cents_per_task);
      exact_toc_sum += e.toc_cents_per_task;
      ++ratio_n;
    }
    // A seeded quarter of the core's exact ops is re-solved at min(4,
    // nproc) lanes: same placement, TOC and all five search counters.
    const std::string key = StrPrintf(
        "%llu/%zu", static_cast<unsigned long long>(seed_), i);
    if (resolves < 6 && Fnv1a(key) % 4 == 0) {
      ++resolves;
      DotProblem parallel = inst.problem;
      parallel.options.num_threads =
          std::min(4, ThreadPool::ResolveThreadCount(0));
      const SolveResult s = Solve(parallel);
      if (SingleShotFingerprint(s) != exact_[i]->fp) {
        Fail(OpKind::kExact, item,
             "exact op on " + inst.label + ": multi-lane re-solve differs");
      }
    }
  }
  // Geometric mean: ratios compose multiplicatively, and an arithmetic
  // mean would be set by the single worst instance of the seed.
  out_.toc_vs_exact = ratio_n > 0 ? std::exp(log_ratio_sum / ratio_n) : 0.0;
  if (f_->primary == OpKind::kExact || f_->primary == OpKind::kHeuristic) {
    out_.toc_objective = ratio_n > 0 ? exact_toc_sum / ratio_n : 0.0;
  }
}

void Runner::FailSession(const std::string& why) {
  Fail(OpKind::kReplan, -1, why);
  for (size_t w = 0; w < f_->advisor.trace.events.size(); ++w) {
    failed_items_.insert({static_cast<int>(OpKind::kReplan),
                          static_cast<long long>(w)});
  }
}

void Runner::CheckAdvisor() {
  const AdvisorInputs& a = f_->advisor;
  if (first_session_fp_.size() != a.trace.events.size()) {
    FailSession("first advisor session incomplete");
    return;
  }
  // One Run over the whole feed must decide exactly as the windowed session.
  Advisor whole(a.problem, a.config);
  RecordedTraceFeed feed(&a.trace);
  const AdvisorRun run = whole.Run(&feed);
  if (!run.status.ok() || run.decisions.size() != first_session_fp_.size()) {
    FailSession("whole-feed advisor run failed");
    return;
  }
  for (size_t w = 0; w < run.decisions.size(); ++w) {
    if (DecisionFingerprint(run.decisions[w], run.layout_by_window[w]) !=
        first_session_fp_[w]) {
      Fail(OpKind::kReplan, static_cast<long long>(w),
           StrPrintf("advisor window %zu: windowed session differs from one "
                     "Run over the feed",
                     w));
    }
  }

  TrackReplayConfig replay = a.replay;
  replay.migration_weight = whole.resolved_migration_weight();
  const TrackReplayResult real = ReplayLayoutTrack(
      a.spec, first_session_layouts_, *a.problem.schema, *a.problem.box,
      replay);
  if (!real.status.ok()) {
    FailSession("layout-track replay: " + real.status.ToString());
  } else if (f_->primary == OpKind::kReplan) {
    out_.toc_objective = real.total_objective;
  }

  // Detection lag: windows from each ground-truth change to the first
  // re-plan at or after it, for changes detected before the next one.
  const std::vector<double>& replanned =
      out_.layer_samples["advisor.replanned"];
  std::vector<double>& lags = out_.layer_samples["advisor.detection_lag"];
  const std::vector<int>& starts = a.phase_starts;
  for (size_t k = 0; k < starts.size(); ++k) {
    const size_t end =
        k + 1 < starts.size() ? starts[k + 1] : replanned.size();
    for (size_t w = starts[k]; w < end; ++w) {
      if (replanned[w] != 0.0) {
        lags.push_back(static_cast<double>(w - starts[k]));
        break;
      }
    }
  }
}

void Runner::CheckFleet() {
  const FleetInputs& fl = f_->fleet;
  // Every tenant's layout must be feasible for its own problem; verdicts
  // are cached per (problem, placement), since tenants share classes.
  std::map<std::string, bool> verdicts;
  double toc_sum = 0.0;
  int toc_n = 0;
  for (size_t b = 0; b < fl.budgets.size(); ++b) {
    if (fleet_toc_[b] < 0) continue;
    toc_sum += fleet_toc_[b];
    ++toc_n;
    for (size_t t = 0; t < fleet_placements_[b].size(); ++t) {
      const DotProblem& p = fl.tenants[t].problem;
      const std::vector<int>& placement = fleet_placements_[b][t];
      const std::string key =
          StrPrintf("%p/%p/%a/", static_cast<const void*>(p.schema),
                    static_cast<const void*>(p.workload), p.relative_sla) +
          PlacementString(placement);
      auto it = verdicts.find(key);
      if (it == verdicts.end()) {
        DotProblem full = p;
        full.options.use_fast_eval = false;
        const DotOptimizer oracle(full);
        PerfEstimate est;
        bool sla_ok = false;
        oracle.EstimateToc(placement, &est, nullptr, &sla_ok);
        const bool fits =
            Layout(p.schema, p.box, placement).ComputeCapacityFit().fits;
        it = verdicts.emplace(key, sla_ok && fits).first;
      }
      if (!it->second) {
        Fail(OpKind::kFleet, static_cast<long long>(b),
             StrPrintf("fleet op at budget %zu: tenant %zu infeasible", b, t));
        break;
      }
    }
  }
  if (f_->primary == OpKind::kFleet) {
    out_.toc_objective = toc_n > 0 ? toc_sum / toc_n : 0.0;
  }
}

RunOutput Runner::Finish() {
  CheckSingleShots();
  CheckAdvisor();
  CheckFleet();

  long long failed = 0;
  for (const auto& [key, count] : ops_per_item_) {
    if (failed_items_.count(key)) failed += count;
  }
  out_.failed = failed;

  uint64_t h = Fnv1a(f_->workload);
  for (size_t i = 0; i < f_->core_instances; ++i) {
    h = Fnv1a(heuristic_[i] ? heuristic_[i]->fp : "-", h);
    h = Fnv1a(exact_[i] ? exact_[i]->fp : "-", h);
  }
  for (const std::string& fp : first_session_fp_) h = Fnv1a(fp, h);
  for (const std::string& fp : fleet_fp_) h = Fnv1a(fp, h);
  out_.digest = StrPrintf("%016llx", static_cast<unsigned long long>(h));

  return std::move(out_);
}

}  // namespace perfbench
