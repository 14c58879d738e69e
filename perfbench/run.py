#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

Builds the simulator library and the benchmark driver from source
(Release, into .bench_build/perfbench), runs one workload, checks its
outputs and prints, as the last line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
per-layer ledger. Earlier stdout lines carry provenance and a readable
table. Usage, from the repository root:

    python3 perfbench/run.py --workload mc_x1 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --list
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD_DIR, "flexon_perfbench")
DIGESTS = os.path.join(HERE, "digests.json")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def run_process(cmd, timeout, capture):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(
        cmd, cwd=ROOT, start_new_session=True,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError("%s timed out after %d s" % (cmd[0], timeout))
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        raise BenchError("%s exited with code %d"
                         % (" ".join(cmd[:2]), proc.returncode))
    return out


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("simulator sources (src/) not found next to "
                         "perfbench/")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_process(["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"],
                    BUILD_TIMEOUT_S, capture=False)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_process(["cmake", "--build", BUILD_DIR, "--target",
                 "flexon_perfbench", "-j", jobs],
                BUILD_TIMEOUT_S, capture=False)


def source_fingerprint():
    """sha256 over the simulator and benchmark sources (no git needed)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        return run_process(["git", "rev-parse", "HEAD"], 30,
                           capture=True).strip()
    except (BenchError, OSError):
        return None


def checks_for(result):
    """(name, passed) pairs for this run's correctness checks."""
    checks = [("traced digest equals untraced digest",
               result["digest_traced"] == result["digest_untraced"]),
              ("no non-finite membranes in the timed window",
               result["health_nan_events"] == 0)]
    with open(DIGESTS) as f:
        recorded = json.load(f)
    entry = recorded["workloads"].get(result["workload"])
    if entry and result["seed"] == recorded["default_seed"]:
        checks.append(("digest equals the recorded default-seed digest",
                       (result["check_steps"], result["digest_untraced"])
                       == (entry["check_steps"], entry["digest"])))
    return checks


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list", action="store_true",
                        help="print the workloads and exit")
    args = parser.parse_args()
    if not args.list and not args.workload:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        build()
        if args.list:
            print(run_process([DRIVER, "--list"], RUN_TIMEOUT_S,
                              capture=True), end="")
            return 0
        cmd = [DRIVER, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        out = run_process(cmd, RUN_TIMEOUT_S, capture=True)
        result = json.loads(out.strip().splitlines()[-1])
    except (BenchError, OSError, ValueError, IndexError) as err:
        log("perfbench: %s" % err)
        return 1

    provenance = {
        "commit": git_commit(),
        "source_sha256": source_fingerprint(),
        "build_type": result["build_type"],
        "cxx_flags": result["cxx_flags"].strip(),
        "compiler": result["compiler"],
        "nproc": result["nproc"],
        "cpu_model": result["cpu_model"],
        "l3_bytes": result["l3_bytes"],
        "workload": result["workload"],
        "threads": result["threads"],
        "seed": result["seed"],
        "seconds": result["seconds"],
        "timed_steps": result["timed_steps"],
        "check_steps": result["check_steps"],
        "setup_reps": result["setup_reps"],
        "neurons": result["neurons"],
        "synapses": result["synapses"],
        "digest": result["digest_untraced"],
    }
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    for name, metric in result["metrics"].items():
        print("  %-40s %16.6g %s" % (name, metric["value"], metric["unit"]))

    checks = checks_for(result)
    failed = [name for name, ok in checks if not ok]
    for name in failed:
        log("perfbench: check failed: %s" % name)
    print(json.dumps({"correct": not failed, "attempted": len(checks),
                      "failed": len(failed),
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
