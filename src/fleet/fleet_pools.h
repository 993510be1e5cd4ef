#ifndef DOTPROV_FLEET_FLEET_POOLS_H_
#define DOTPROV_FLEET_FLEET_POOLS_H_

// Internal to the fleet planner: the shared candidate pools and which
// tenants draw from each. Exposed in a header only so the pool oracle test
// can pin them against an independent reference build.

#include <vector>

#include "common/status.h"
#include "dot/problem.h"
#include "fleet/fleet_planner.h"
#include "storage/storage_class.h"

namespace dot {

/// One shared candidate pool: the tenant's feasible frontier, sorted under
/// the BetterCandidate order (toc, then lexicographically lowest
/// placement), so index 0 is the solo optimum and ties anywhere resolve
/// to the lowest index. Records are flat arrays.
struct TenantPool {
  Status status = Status::OK();
  int num_objects = 0;
  /// [candidate * num_objects + object] -> storage class.
  std::vector<int> placements;
  std::vector<double> toc;
  std::vector<double> cost;
  /// [candidate * num_classes + class] space, GB.
  std::vector<double> space;
  long long layouts_evaluated = 0;

  int size() const { return static_cast<int>(toc.size()); }
  std::vector<int> Placement(int candidate) const;
};

/// Builds the pool of `tenant_problem` (scored under config.options on one
/// thread) by FleetConfig::pool_mode. kEnumerate walks the whole layout
/// space on the one odometer walker (dot/eval_tables.h); kSearch scores
/// the solo optimum plus the M uniform layouts. Either way the feasible
/// records are sorted and dominance-pruned: a candidate survives only if
/// no earlier one is no worse on cost and on every class's space.
TenantPool BuildPool(const DotProblem& tenant_problem, const BoxConfig* box,
                     const FleetConfig& config);

/// The pool of every tenant. Pool ids are assigned in first-occurrence
/// order over the tenants, so they — and everything downstream — do not
/// depend on threading.
struct PoolAssignment {
  std::vector<int> pool_of;    ///< tenant -> pool id
  std::vector<int> reference;  ///< pool id -> first tenant drawing from it
  int cache_hits = 0;          ///< tenants served by an earlier tenant's pool
};

/// Tenants share a pool when their schemas' fingerprints match and so do
/// the other scoring inputs: workload name; relative_sla, cost model and
/// tail SLA bits; io_scale_hint length and bits; the targets_override
/// pointer; and, for kSearch pools under the DOT search, the profiles
/// pointer. Doubles compare as raw bits (-0.0 differs from 0.0, a NaN
/// matches its own bits). Pointer-keyed inputs share only on identity —
/// conservative, never wrong. With config.share_pools off every tenant
/// gets its own pool.
PoolAssignment AssignPools(const std::vector<FleetTenant>& tenants,
                           const FleetConfig& config);

}  // namespace dot

#endif  // DOTPROV_FLEET_FLEET_POOLS_H_
