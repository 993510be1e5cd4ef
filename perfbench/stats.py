"""The benchmark's own statistics, kept apart from run.py so they can be
tested on their own (perfbench/tests/test_stats.py)."""

import statistics

# A tail percentile is only reported with at least this many values beyond
# it.
TAIL_BEYOND = 10


def median(values):
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def round_rates(rounds):
    """(ops_per_s, cpu_ms_per_op) of one pass whose every round ran at its
    best repeat.

    `rounds` holds the driver's per-slot bests: "fastest_s"/"fastest_ops",
    the repeat with the least wall time per op, and "leanest_cpu_s"/
    "leanest_ops", the one with the least process CPU time per op."""
    cols = [rounds[k] for k in ("fastest_s", "fastest_ops", "leanest_cpu_s",
                                "leanest_ops")]
    if not cols[0] or len({len(c) for c in cols}) != 1:
        raise ValueError("one best wall and CPU round per slot required")
    if min(cols[0]) <= 0 or min(cols[1]) <= 0 or min(cols[3]) <= 0:
        raise ValueError("a best round took no time or completed no ops")
    fastest_s, fastest_ops, leanest_cpu_s, leanest_ops = map(sum, cols)
    return fastest_ops / fastest_s, 1000.0 * leanest_cpu_s / leanest_ops


def tail(values):
    """The highest percentile with at least TAIL_BEYOND values beyond it.

    Returns (value, percentile, count). With n values sorted ascending that
    is the value at 1-based rank n - TAIL_BEYOND, i.e. percentile
    100 * (n - TAIL_BEYOND) / n. With n <= TAIL_BEYOND no percentile
    qualifies; the maximum is returned with percentile None so the report
    can say the tail is unsupported.
    """
    if not values:
        raise ValueError("tail of no samples")
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], None, n
    rank = n - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / n, n


def quartile_spread(values):
    """(Q3 - Q1) / median, with the quartiles of statistics.quantiles(n=4)."""
    if len(values) < 2:
        raise ValueError("quartile spread needs at least two values")
    q1, _, q3 = statistics.quantiles(values, n=4)
    m = statistics.median(values)
    if m == 0:
        raise ValueError("quartile spread of values with median 0")
    return (q3 - q1) / abs(m)


def failed_frac(attempted, failed):
    """Operations that failed a status or correctness check, over attempted."""
    if attempted < 1:
        raise ValueError("no operations attempted")
    if failed < 0 or failed > attempted:
        raise ValueError("failed must lie in [0, attempted]")
    return failed / attempted


def digests_agree(digests):
    """True when every run of one (workload, seed) produced one digest."""
    return len(digests) > 0 and len(set(digests)) == 1


# Per-layer metrics that are the median over ops (times, per-op rates) or
# the mean per op (counts) of one of the driver's raw sample series.
LAYER_MEDIANS = [
    ("common.pool_spawn_join_us", "us"),
    ("catalog.build_ms", "ms"),
    ("workload.model_build_ms", "ms"),
    ("workload.profile_ms", "ms"),
    ("fleet.generate_ms", "ms"),
    ("exec.trace_record_ms", "ms"),
    ("dot.targets_ms", "ms"),
    ("dot.tables_ms", "ms"),
    ("dot.quick_layouts_per_s", "1/s"),
    ("dot.search_ms", "ms"),
    ("query.plan_us", "us"),
    ("workload.estimate_ms", "ms"),
    ("advisor.quiet_window_us", "us"),
    ("fleet.tenant_prices_per_s", "1/s"),
]
LAYER_MEANS = [
    ("dot.leaves", "count"),
    ("dot.nodes_expanded", "count"),
    ("dot.nodes_pruned_bound", "count"),
    ("dot.nodes_pruned_infeasible", "count"),
    ("dot.prune_ratio", "ratio"),
    ("dot.heuristic_layouts", "count"),
    ("dot.arena_bytes_peak", "bytes"),
    ("fleet.pool_builds", "count"),
    ("fleet.pool_cache_hits", "count"),
    ("fleet.price_iterations", "count"),
    ("fleet.exchange_moves", "count"),
    ("fleet.improve_moves", "count"),
]


def layer_metrics(samples):
    """The per-layer metrics, {name: (value, unit)}, from the driver's raw
    per-layer samples {series: [values]}. A metric whose series is empty
    (the layer is not reached on the workload) reads 0."""
    def series(name):
        return samples.get(name, [])

    def share(num, den):
        return num / den if den else 0.0

    m = {}
    for name, unit in LAYER_MEDIANS:
        m[name] = (statistics.median(series(name)) if series(name) else 0.0,
                   unit)
    for name, unit in LAYER_MEANS:
        m[name] = (statistics.fmean(series(name)) if series(name) else 0.0,
                   unit)
    # Search rates over the exact ops' total wall time.
    solve_s = sum(series("exact.solve_ms")) / 1000.0
    m["dot.nodes_per_s"] = (share(sum(series("exact.nodes")), solve_s), "1/s")
    m["dot.leaves_per_s"] = (share(sum(series("dot.leaves")), solve_s), "1/s")
    hits = sum(series("exact.cache_hits"))
    misses = series("exact.cache_misses")
    m["workload.plan_cache_hit_ratio"] = (share(hits, hits + sum(misses)),
                                          "ratio")
    m["workload.plan_cache_misses_per_op"] = (
        statistics.fmean(misses) if misses else 0.0, "count")
    # The advisor's first session, one sample per window.
    replans = sum(series("advisor.replanned"))
    migrations = sum(series("advisor.migrated"))
    m["advisor.replans"] = (replans, "count")
    m["advisor.migrations"] = (migrations, "count")
    m["advisor.migrations_per_replan"] = (share(migrations, replans), "ratio")
    m["advisor.layouts_per_replan"] = (
        share(sum(series("advisor.layouts_evaluated")), replans), "count")
    lags = series("advisor.detection_lag")
    m["advisor.detection_lag_windows"] = (
        statistics.fmean(lags) if lags else 0.0, "windows")
    return m


def self_times(spans):
    """Per span name: (count, total_ms, self_ms).

    A span's self time is its duration minus the part of its interval that
    its direct children cover (children of one span never overlap: the
    benchmark is a single closed-loop client).
    """
    child_us = {}
    for s in spans:
        if s["parent"] >= 0:
            child_us[s["parent"]] = child_us.get(s["parent"], 0.0) + (
                s["end_us"] - s["start_us"])
    out = {}
    for s in spans:
        dur = s["end_us"] - s["start_us"]
        count, total, self_ms = out.get(s["name"], (0, 0.0, 0.0))
        out[s["name"]] = (count + 1, total + dur / 1000.0,
                          self_ms + (dur - child_us.get(s["id"], 0.0)) / 1000.0)
    return out
