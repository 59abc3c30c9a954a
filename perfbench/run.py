#!/usr/bin/env python3
"""Builds the structride benchmark program and makes one measured run.

Run from the repository root:

    python3 perfbench/run.py --workload nyc-dense --seed 1 --seconds 20 --trace 0

The first call compiles perfbench/ (and the library it drives) from the
checkout's sources into .bench_build/perfbench; later calls only rebuild
what changed. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. The exit code is 0 only when
every output check passed and no operation failed. With --trace 1 a Chrome
trace-event file is also written to .bench_build/perfbench/traces/.
perfbench/NOTES.md describes the workloads and the metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("nyc-dense", "nyc-fleet-4shard", "nyc-stream")
BUILD_TIMEOUT_S = 840
# A run (set-up, --seconds of repetitions, the last repetition's overshoot)
# must end well inside three minutes; a hung child is killed at this bound.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build():
    """Configures once and (re)builds the benchmark; False on any failure."""
    if not os.path.isfile(os.path.join(ROOT, "sim", "engine.h")):
        log(f"no structride sources under {ROOT}")
        return False
    if shutil.which("cmake") is None:
        log("cmake not found")
        return False
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(log_path, "w") as out:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                    timeout=max(1, deadline - time.monotonic()),
                                    check=False).returncode
            except subprocess.TimeoutExpired:
                rc = -1
            if rc != 0:
                out.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                log(f"build step failed: {' '.join(cmd)}")
                return False
    return os.path.isfile(BINARY)


def unique_keys(pairs):
    """json object hook that refuses a key given twice."""
    keys = [k for k, _ in pairs]
    if len(keys) != len(set(keys)):
        raise ValueError(f"duplicate key in {keys}")
    return dict(pairs)


def parse_result(line):
    """One result line as a dict, or None when it is not a valid result."""
    try:
        result = json.loads(line, object_pairs_hook=unique_keys)
    except ValueError:
        return None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return None
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink the workload (smoke tests only)")
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60 or not 0 < args.scale <= 1:
        parser.error("need --seed >= 0, 1 <= --seconds <= 60, 0 < --scale <= 1")

    if not build():
        return 2

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", repr(args.scale)]
    if args.trace:
        trace_dir = os.path.join(BUILD_DIR, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-file",
                os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json")]
    # The program reads no STRUCTRIDE_* knob on purpose; keep any set in the
    # caller's shell (a graph file override, say) from changing the inputs.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("STRUCTRIDE_")}
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s and was killed")
        return 1
    lines = proc.stdout.strip().splitlines()
    result = parse_result(lines[-1]) if lines else None
    if result is None:
        log(f"no result line (exit code {proc.returncode})")
        return 1
    print(lines[-1], flush=True)
    ok = (proc.returncode == 0 and result["correct"] is True
          and result["failed"] == 0)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
