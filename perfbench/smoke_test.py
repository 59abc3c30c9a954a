#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

Runs every workload in BENCHMARK.json at a tiny size, untraced and traced,
and checks that each run passes its own output checks and emits every
metric BENCHMARK.json declares for that mode exactly once, with its unit,
and nothing else. Run from the repository root:

    python3 perfbench/smoke_test.py

Exits nonzero on the first mismatch.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
from run import parse_result  # noqa: E402  (refuses duplicate keys)

SCALE = "0.02"


def check(workload, trace, declared):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--scale", SCALE]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=600, check=False)
    lines = proc.stdout.strip().splitlines()
    result = parse_result(lines[-1]) if lines else None
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0 or result is None:
        return [f"{where}: exit {proc.returncode}, result {result!r}"]
    errors = []
    if not (result["correct"] is True and result["failed"] == 0
            and isinstance(result["attempted"], int)
            and result["attempted"] >= 1):
        errors.append(f"{where}: bad verdict {result!r}")
    metrics = result["metrics"]
    for name, unit in declared.items():
        got = metrics.get(name)
        if got is None:
            errors.append(f"{where}: metric {name} missing")
        elif set(got) != {"value", "unit"} or got["unit"] != unit:
            errors.append(f"{where}: metric {name} is {got!r}, want unit {unit}")
        elif not (isinstance(got["value"], (int, float))
                  and math.isfinite(got["value"])):
            errors.append(f"{where}: metric {name} value {got['value']!r}")
    for name in sorted(set(metrics) - set(declared)):
        errors.append(f"{where}: undeclared metric {name}")
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    modes = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
             1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    errors = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, declared in modes.items():
            errs = check(workload, trace, declared)
            print(f"{workload} --trace {trace}: "
                  f"{'ok' if not errs else 'FAILED'}", flush=True)
            errors += errs
    for e in errors:
        print(e, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
