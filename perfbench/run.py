#!/usr/bin/env python3
"""End-to-end benchmark of dotprov: builds the library and the driver from
the checkout's sources, runs one workload for --seconds and prints every
metric by name with its unit. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload tpcc-oltp --seed 1 --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics. --trace 1 runs the workload twice
with the same seed for half of --seconds each, untraced then traced, and
reports the per-layer metrics of the traced run plus the tracing overhead
between the two; its spans are written to .bench_build/perfbench/spans/.
See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
sys.path.insert(0, HERE)

import stats  # noqa: E402

WORKLOADS = ["tpcc-oltp", "htap-advisor", "fleet-budget"]
# The seed for day-to-day runs, and one kept out of tuning for later claims.
DEFAULT_SEED = 1
HELD_OUT_SEED = 1009
# Wall-clock budget for all driver processes of one invocation (a run must
# end within 180 s; the build before them is not counted).
DRIVER_BUDGET_S = 160

KINDS = ["exact", "heuristic", "replan", "fleet"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the driver; the library comes from ../src."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(cmd))


def run_driver(workload, seed, seconds, trace, deadline, spans_path=None):
    cmd = [DRIVER, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if spans_path:
        cmd += ["--spans", spans_path]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          timeout=max(1.0, deadline - time.monotonic()),
                          text=True)
    if proc.returncode != 0:
        raise RuntimeError("driver exited with %d" % proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(raw):
    """The end-to-end metrics of one untraced driver run, plus notes.

    Every op time is the best over repeats of the same work: on a shared
    virtual machine other tenants slow whole stretches of a run, so a
    run's median op read up to 1.6x its inputs' best repeats and swung
    0.2-0.35 (quartile spread) between identical runs. Set-up time is
    likewise the run's fastest set-up."""
    m = {}
    notes = []
    m["setup_s"] = (min(raw["setup_s"]), "s")
    for kind in KINDS:
        best = raw["best_ms"][kind]
        if not best:
            raise RuntimeError("no %s ops completed" % kind)
        m[kind + "_ms_p50"] = (stats.median(best), "ms")
        value, pct, n = stats.tail(best)
        m[kind + "_ms_tail"] = (value, "ms")
        notes.append("%s_ms_tail is p%s of %d inputs (%d ops)" % (
            kind, "%.1f" % pct if pct is not None else "100 (unsupported)",
            n, raw["ops"][kind]))
    ops_per_s, cpu_ms_per_op = stats.round_rates(raw["rounds"])
    m["ops_per_s"] = (ops_per_s, "1/s")
    m["cpu_ms_per_op"] = (cpu_ms_per_op, "ms")
    if raw["peak_rss_mb"] <= 0:
        raise RuntimeError("the driver could not read its peak RSS")
    m["peak_rss_mb"] = (raw["peak_rss_mb"], "MB")
    ops = raw["attempted"]
    m["ok_ops_frac"] = (1.0 - stats.failed_frac(ops, raw["failed"]), "ratio")
    m["toc_vs_exact"] = (raw["toc_vs_exact"], "ratio")
    m["toc_objective"] = (raw["toc_objective"], "cents/task")
    return m, notes


def per_layer(untraced, traced):
    """Per-layer metrics of the traced run, and the tracing overhead."""
    m = stats.layer_metrics(traced["layer_samples"])
    e_plain, _ = end_to_end(untraced)
    e_traced, _ = end_to_end(traced)
    m["trace.overhead_ops_per_s_frac"] = (
        1.0 - e_traced["ops_per_s"][0] / e_plain["ops_per_s"][0], "ratio")
    ratios = [e_traced[k + "_ms_p50"][0] / e_plain[k + "_ms_p50"][0]
              for k in KINDS]
    m["trace.overhead_p50_frac"] = (sum(ratios) / len(ratios) - 1.0, "ratio")
    return m


def print_env(raw):
    env = raw["env"]
    print("env: workload=%s seed=%s nproc=%s engine_threads=%s kernel=%s "
          "compiler=%s build=%s trace=%s cpu_steal=%.3f" % (
              env["workload"], env["seed"], env["nproc"],
              env["engine_threads"], env["kernel_level"], env["compiler"],
              env["build_type"], env["trace"], env["cpu_steal"]))


def print_metrics(title, metrics):
    print(title)
    for name in sorted(metrics):
        value, unit = metrics[name]
        print("  %-36s %.6g %s" % (name, value, unit))


def print_checks(raw):
    print("failed_ops_frac: %.6g (%d of %d ops)" % (
        stats.failed_frac(raw["attempted"], raw["failed"]), raw["failed"],
        raw["attempted"]))
    print("result_digest: %s" % raw["result_digest"])
    for why in raw["failures"]:
        print("  check failed: %s" % why)


def print_self_times(path):
    spans = []
    with open(path) as f:
        for line in f:
            spans.append(json.loads(line))
    print("spans (%d) by self time:" % len(spans))
    rows = sorted(stats.self_times(spans).items(), key=lambda kv: -kv[1][2])
    for name, (count, total_ms, self_ms) in rows:
        print("  %-28s n=%-7d total %10.1f ms  self %10.1f ms" % (
            name, count, total_ms, self_ms))


def save_record(workload, seed, trace, raw, metrics):
    """Keeps every result with the environment it was measured in."""
    out_dir = os.path.join(BUILD_DIR, "results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "%s-seed%d-trace%d.json" % (
        workload, seed, trace))
    with open(path, "w") as f:
        json.dump({"env": raw["env"], "result_digest": raw["result_digest"],
                   "metrics": {k: {"value": v, "unit": u}
                               for k, (v, u) in metrics.items()}}, f,
                  indent=1)


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="input seed (default %d; held out for claims: "
                             "%d)" % (DEFAULT_SEED, HELD_OUT_SEED))
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    try:
        build()
        deadline = time.monotonic() + DRIVER_BUDGET_S
        # A traced invocation runs twice, so each half gets half the time.
        seconds = args.seconds / 2 if args.trace else args.seconds
        plain = run_driver(args.workload, args.seed, seconds, 0, deadline)
        print_env(plain)
        e2e, notes = end_to_end(plain)
        attempted, failed = plain["attempted"], plain["failed"]
        correct = failed == 0
        if args.trace == 0:
            metrics = e2e
            print_metrics("end-to-end metrics:", e2e)
            for note in notes:
                print("  " + note)
            print_checks(plain)
            raw = plain
        else:
            spans_dir = os.path.join(BUILD_DIR, "spans")
            os.makedirs(spans_dir, exist_ok=True)
            spans_path = os.path.join(spans_dir, "%s-seed%d.jsonl" % (
                args.workload, args.seed))
            traced = run_driver(args.workload, args.seed, seconds, 1,
                                deadline, spans_path)
            metrics = per_layer(plain, traced)
            print_metrics("per-layer metrics (traced run):", metrics)
            print_checks(traced)
            print_self_times(spans_path)
            digests = [plain["result_digest"], traced["result_digest"]]
            if not stats.digests_agree(digests):
                print("result_digest differs between the untraced and the "
                      "traced run: %s" % digests)
                correct = False
            attempted += traced["attempted"]
            failed += traced["failed"]
            correct = correct and traced["failed"] == 0
            raw = traced
        save_record(args.workload, args.seed, args.trace, raw, metrics)
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as err:
        log("perfbench: %s" % err)
        return 1

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
