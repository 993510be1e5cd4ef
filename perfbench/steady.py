#!/usr/bin/env python3
"""Steadiness check: runs the benchmark on several seeds per workload and
prints, for every end-to-end metric, the median and the quartile spread
(Q3 - Q1) / median over those runs next to the metric's bound in
BENCHMARK.json. A spread above a third of the bound is flagged; one above
the bound fails the check. Seeds run from 1.

    python3 perfbench/steady.py --seeds 10 [--workload tpcc-oltp ...]

Runs of one workload whose environment (nproc, engine threads, kernel
level, compiler, build type) differs from its first run's are refused:
figures from different kernel levels or core counts are never compared.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402

ENV_KEYS = ["nproc", "engine_threads", "kernel_level", "compiler",
            "build_type"]


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=400)
    if proc.returncode != 0:
        raise RuntimeError("%s seed %d: exit %d" % (workload, seed,
                                                    proc.returncode))
    lines = proc.stdout.strip().splitlines()
    env = next(line for line in lines if line.startswith("env: "))
    return dict(kv.split("=", 1) for kv in env[5:].split()), json.loads(
        lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    ok = True
    for workload in workloads:
        values = {name: [] for name in bounds}
        first_env = None
        for seed in range(1, args.seeds + 1):
            env, result = run_once(workload, seed, bench["run_seconds"])
            env = {k: env.get(k) for k in ENV_KEYS}
            if first_env is None:
                first_env = env
            if env != first_env:
                print("refusing to compare runs across environments: %s vs "
                      "%s" % (env, first_env))
                return 1
            if not result["correct"]:
                print("%s seed %d: incorrect (%d of %d ops failed)" % (
                    workload, seed, result["failed"], result["attempted"]))
                ok = False
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print("== %s (%d seeds)" % (workload, args.seeds))
        for name, bound in bounds.items():
            spread = stats.quartile_spread(values[name])
            flag = "" if spread <= bound / 3 else "  <-- above bound/3"
            if spread > bound:
                ok = False
            print("  %-20s median %-12.6g spread %6.3f  bound %.3f%s" % (
                name, stats.median(values[name]), spread, bound, flag))
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
