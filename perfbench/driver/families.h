// The benchmark's workloads: one seeded instance family each, built only
// through the library's public constructors. Every family carries inputs
// for all four operation kinds (heuristic and exact single-shot solves, an
// advisor session, a fleet solve), so every end-to-end metric is measured
// on every workload; the workload's namesake kind dominates its timed
// phase (see Family::round).
#ifndef PERFBENCH_DRIVER_FAMILIES_H_
#define PERFBENCH_DRIVER_FAMILIES_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dot/dot.h"
#include "spans.h"

namespace perfbench {

/// Engine threads (options.num_threads) of every solve the benchmark
/// times. On a shared 4-vCPU virtual machine, ops that spawn and join a
/// 4-lane pool stall whenever the hypervisor steals a vCPU: over ten seeds
/// full-TPC-H heuristic, re-plan and fleet tails spread 0.5-1.5 at 4 lanes,
/// against 0.1-0.2 at one lane. The multi-lane engine is still checked
/// (exact ops are re-solved at min(4, nproc) lanes) and its per-call pool
/// price is probed (common.pool_spawn_join_us).
constexpr int kEngineThreads = 1;

enum class OpKind { kHeuristic, kExact, kReplan, kFleet };

/// One single-shot provisioning instance; pointees live in its Family.
struct Instance {
  dot::DotProblem problem;
  /// The DSS model behind problem.workload (directly or as an HTAP
  /// bundle's analytic side); null for pure OLTP. The traced run plans
  /// its templates on each winner (query.plan_us).
  const dot::DssWorkloadModel* dss = nullptr;
  std::string label;
};

/// One always-on advisor session's inputs.
struct AdvisorInputs {
  dot::DotProblem problem;
  dot::AdvisorConfig config;
  dot::WorkloadTraceSpec spec;
  dot::WorkloadTrace trace;
  /// Windows at which the ground-truth workload changes (window 0 excluded):
  /// the reference for advisor.detection_lag_windows.
  std::vector<int> phase_starts;
  /// Pricing of the realized objective (ReplayLayoutTrack); its
  /// migration_weight is filled from the advisor after Init.
  dot::TrackReplayConfig replay;
};

/// One fleet's inputs: tenants over one shared box and the budget points
/// the fleet ops cycle through.
struct FleetInputs {
  const dot::BoxConfig* box = nullptr;
  std::vector<dot::FleetTenant> tenants;
  dot::FleetConfig config;
  int points = 0;               ///< how many budget points to resolve
  std::vector<double> budgets;  ///< cents/hour, one per fleet op in turn
  std::vector<bool> binding;    ///< budgets[i] below the unconstrained cost
};

/// How many units of each kind one round of the timed loop runs. A pair
/// is one heuristic op and one exact op on the same instance; an advisor
/// step drives the session window by window up to and including its next
/// re-plan.
struct Round {
  int pairs = 1;
  int advisor_steps = 1;
  int fleet_ops = 1;
};

struct Family {
  std::string workload;
  OpKind primary = OpKind::kExact;
  Round round;

  // Owners of everything the problems point into (stable addresses).
  std::vector<std::unique_ptr<dot::Schema>> schemas;
  std::vector<std::unique_ptr<dot::BoxConfig>> boxes;
  std::vector<std::unique_ptr<dot::WorkloadModel>> models;
  std::vector<dot::HtapBundle> htap;
  std::vector<std::unique_ptr<dot::WorkloadProfiles>> profiles;
  std::unique_ptr<dot::SyntheticFleet> synthetic;

  /// Single-shot instances in drive order. The timed loop walks the list
  /// in whole passes (its length is a multiple of Round::pairs); the first
  /// `core_instances` are always driven, and the quality metrics and the
  /// digest cover exactly those.
  std::vector<Instance> instances;
  size_t core_instances = 0;
  AdvisorInputs advisor;
  FleetInputs fleet;
};

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// Builds the named workload's family from `seed`, all but its fleet
/// budget points. Times the layer calls it makes (schema makers, model
/// constructors, profiling, trace recording, fleet generation) as spans of
/// op -1 on `tracer`. Returns null for an unknown workload name.
std::unique_ptr<Family> BuildFamily(const std::string& workload,
                                    uint64_t seed, Tracer* tracer);

/// Places the family's fleet.points budget points from one unconstrained
/// fleet solve: stratified between the cost floor and 1.25x the
/// unconstrained cost, so about a fifth of them are slack. Not part of the
/// timed set-up: it is the benchmark choosing where to probe, and its cost
/// follows the seeded tenant SLAs.
void ResolveBudgets(Family* f, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_FAMILIES_H_
