#!/usr/bin/env python3
"""Self-test of the repository benchmark.

Runs every workload briefly (a one-second timed window) at two
seeds, untraced and traced, and checks that each run is correct (the
traced loop's digest equals the Simulator's, and at the default seed
both equal the recorded digest) and prints exactly the metrics
BENCHMARK.json names, each with its unit. From the repository root:

    python3 perfbench/selftest.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = (1, 2)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in SEEDS:
            for trace in (0, 1):
                label = "%s seed=%d trace=%d" % (workload, seed, trace)
                proc = subprocess.run(
                    [sys.executable, os.path.join(HERE, "run.py"),
                     "--workload", workload, "--seed", str(seed),
                     "--seconds", "1", "--trace", str(trace)],
                    cwd=ROOT, capture_output=True, text=True, timeout=300)
                if proc.returncode != 0:
                    problems.append("%s: exit %d\n%s" % (
                        label, proc.returncode, proc.stderr[-2000:]))
                    continue
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                got = {name: m["unit"]
                       for name, m in result["metrics"].items()}
                recorded = seed == 1
                if not result["correct"] or result["failed"]:
                    problems.append("%s: failed checks\n%s"
                                    % (label, proc.stderr[-2000:]))
                if result["attempted"] != (3 if recorded else 2):
                    problems.append("%s: %d checks made"
                                    % (label, result["attempted"]))
                if got != expected[trace]:
                    problems.append("%s: metrics differ from "
                                    "BENCHMARK.json: %s"
                                    % (label, sorted(
                                        set(got.items()) ^
                                        set(expected[trace].items()))))
                print("%-32s %s" % (label, "ok" if result["correct"]
                                    else "FAILED"), flush=True)
    for problem in problems:
        print("selftest: " + problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
