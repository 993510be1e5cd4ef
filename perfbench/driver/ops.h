// The timed phase and the correctness checks: one closed-loop client
// driving dot::Solve (heuristic, exact, fleet) and Advisor::Run over a
// Family, timing each public call, then checking every result.
#ifndef PERFBENCH_DRIVER_OPS_H_
#define PERFBENCH_DRIVER_OPS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "families.h"
#include "spans.h"

namespace perfbench {

/// One op kind's latencies: each input's fastest op (input: instance,
/// advisor window or budget point) and the number of ops. The driver keeps
/// bests, not every op, so that its memory, and with it peak_rss_mb, does
/// not grow with the number of ops a faster program completes in a run.
struct Latencies {
  std::vector<double> best_ms;  ///< by input index; 0 until the input runs
  long long ops = 0;

  void Add(double latency_ms, size_t input_index) {
    if (input_index >= best_ms.size()) best_ms.resize(input_index + 1, 0.0);
    double& best = best_ms[input_index];
    if (best == 0.0 || latency_ms < best) best = latency_ms;
    ++ops;
  }
};

/// The timed phase's rounds, kept per slot (a round's place in its pass; a
/// slot drives the same instances and budget point in every pass): the
/// repeat with the least wall time per op and the one with the least
/// process CPU time per op. Bounded by the pass length, like Latencies.
struct Rounds {
  struct Best {
    double time_s = 0.0;
    double ops = 0.0;
  };
  std::vector<Best> fastest;  ///< wall seconds and ops, by slot
  std::vector<Best> leanest;  ///< process CPU seconds and ops, by slot

  void Add(size_t slot, double wall_s, double cpu_s, double ops) {
    if (slot >= fastest.size()) {
      fastest.resize(slot + 1);
      leanest.resize(slot + 1);
    }
    auto keep = [ops](Best* best, double time_s) {
      if (best->ops == 0.0 || time_s * best->ops < best->time_s * ops) {
        *best = {time_s, ops};
      }
    };
    keep(&fastest[slot], wall_s);
    keep(&leanest[slot], cpu_s);
  }
};

/// What the timed phase and the checks produced. Latencies and rounds are
/// bests over repeats and per-layer figures are raw samples; every other
/// statistic (medians, tails, rates) is computed by perfbench/stats.py.
struct RunOutput {
  Latencies exact;
  Latencies heuristic;
  Latencies replan;
  Latencies fleet;

  long long attempted = 0;
  long long failed = 0;
  std::vector<std::string> failures;  ///< first few check failures

  /// Set-ups between rounds are left out of the rounds' times.
  Rounds rounds;

  double toc_vs_exact = 0.0;
  double toc_objective = 0.0;
  std::string digest;

  /// Raw per-layer samples by series name: per-op counters and probe
  /// timings in the traced run only, the advisor's first session always.
  std::map<std::string, std::vector<double>> layer_samples;
};

class Runner {
 public:
  Runner(Family* family, Tracer* tracer, uint64_t seed);
  ~Runner();
  Runner(const Runner&) = delete;
  Runner& operator=(const Runner&) = delete;

  /// Runs rounds until `seconds` have elapsed and every input has been
  /// driven at least once (one pass over the instances and budget points,
  /// one whole advisor session), so the quality metrics and the digest
  /// always cover the same inputs. Calls `set_up` between rounds about
  /// twice a second, outside every op and pass timer, so set-up time is
  /// sampled across the whole run.
  void RunTimed(double seconds, const std::function<void()>& set_up);

  /// Runs the correctness checks on the first pass's results and fills
  /// everything in RunOutput but the latencies.
  RunOutput Finish();

 private:
  struct SingleShot;
  struct Session;

  void RunPair(size_t idx);
  void AdvisorStep();
  void RunFleetOp(size_t idx);
  void ProbeLayers(const Instance& inst, const std::vector<int>& winner,
                   long long op);
  void Fail(OpKind kind, long long item, const std::string& why);
  /// A session-level advisor failure fails every window op.
  void FailSession(const std::string& why);
  void CheckSingleShots();
  void CheckAdvisor();
  void CheckFleet();

  Family* f_;
  Tracer* tracer_;
  uint64_t seed_;
  long long next_op_ = 0;
  RunOutput out_;

  // First-pass results, one per instance / budget point.
  std::vector<std::unique_ptr<SingleShot>> heuristic_;
  std::vector<std::unique_ptr<SingleShot>> exact_;
  std::vector<std::string> fleet_fp_;
  std::vector<double> fleet_toc_;
  std::vector<std::vector<std::vector<int>>> fleet_placements_;
  size_t next_instance_ = 0;
  size_t next_budget_ = 0;

  std::unique_ptr<Session> session_;
  std::vector<std::string> first_session_fp_;
  std::vector<std::vector<int>> first_session_layouts_;
  bool first_session_done_ = false;

  /// Ops per (kind, item), so a check failing on an item marks every op
  /// that returned that item's result as failed.
  std::map<std::pair<int, long long>, long long> ops_per_item_;
  std::set<std::pair<int, long long>> failed_items_;
};

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_OPS_H_
