#!/usr/bin/env python3
"""Diff two STRUCTRIDE_JSON_DIR result directories and gate CI on them.

Usage:
    compare_bench.py BASELINE_DIR CANDIDATE_DIR [options]

Both directories are scanned for BENCH_*.json files (the format written by
bench/harness.cc's WriteJsonAtExit; files without "rows", such as Google
Benchmark's own JSON, are skipped). Rows are matched across the two
directories by (bench, dataset, series, point) and checked two ways:

  * Every field a document lists under "outcome_fields" (the outcome class
    of the metrics table in sim/run_metrics.h) must be *exactly* equal:
    these are deterministic outcomes, and any drift means the two builds
    computed different dispatches. This is how CI pins
    concurrent_shards=on against the STRUCTRIDE_CONC_SHARDS=0 serial
    reference across two bench invocations. A document with rows but no
    "outcome_fields" list is an error (exit 2).
  * running_time_s may regress by at most --max-regress-pct percent
    (default 10) on rows slower than --min-time seconds (default 0.05 —
    timing noise dominates below that).

Optionally --min-speedup R requires candidate rows matching
--speedup-filter to be at least R times faster than the same baseline row
(the CI serial-vs-concurrent shard cell: baseline dir ran with
STRUCTRIDE_CONC_SHARDS=0). The filter failing to match any row is itself a
failure, so a renamed bench point cannot silently skip the gate.

--config FILE supplies per-cell overrides as JSON, so one invocation can
hold different rows to different bars (a qps bench is noisier than a replay
bench). Format:

    {"cells": [
        {"match": "svc_sustained_qps", "max_regress_pct": 30,
         "min_time": 0.2},
        {"match": "abl_sharding / SARD", "min_speedup": 1.3}
    ]}

Each row resolves against the FIRST cell whose "match" substring occurs in
"bench / series / point"; its max_regress_pct / min_time / min_speedup
replace the global flags for that row. A config cell that matches no row at
all is a failure (same no-silent-skip rule as --speedup-filter).

Exit status: 0 when every gate passes, 1 otherwise (and a summary of every
violation on stderr), 2 when an input cannot be used. Baseline rows missing
from the candidate fail; rows only in the candidate are reported but do not
fail (new benches land first).
"""

import argparse
import glob
import json
import os
import sys

def load_rows(directory):
    """Returns {(bench, dataset, series, point): (row, outcome_fields)} over
    all BENCH_*.json files. The dataset is part of the key because
    multi-city benches reuse the same (series, point) labels per city."""
    rows = {}
    paths = sorted(glob.glob(os.path.join(directory, "BENCH_*.json")))
    if not paths:
        sys.stderr.write("compare_bench: no BENCH_*.json in %s\n" % directory)
        sys.exit(2)
    for path in paths:
        try:
            with open(path) as f:
                doc = json.load(f)
        except (OSError, ValueError) as e:
            sys.stderr.write("compare_bench: cannot read %s: %s\n" % (path, e))
            sys.exit(2)
        if "rows" not in doc:
            continue
        outcome_fields = doc.get("outcome_fields")
        if not isinstance(outcome_fields, list):
            sys.stderr.write(
                "compare_bench: no outcome_fields list in %s\n" % path)
            sys.exit(2)
        bench = doc.get("bench", os.path.basename(path))
        for row in doc["rows"]:
            key = (bench, row.get("dataset", ""), row.get("series", ""),
                   row.get("point", ""))
            if key in rows:
                sys.stderr.write(
                    "compare_bench: duplicate row %r in %s\n" % (key, path))
                sys.exit(2)
            rows[key] = (row, outcome_fields)
    return rows


def fmt(key):
    return "%s / %s / %s / %s" % key


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline")
    ap.add_argument("candidate")
    ap.add_argument("--max-regress-pct", type=float, default=10.0,
                    help="max running_time_s regression in percent "
                         "(default 10)")
    ap.add_argument("--min-time", type=float, default=0.05,
                    help="ignore timing on rows faster than this many "
                         "seconds in the baseline (default 0.05)")
    ap.add_argument("--min-speedup", type=float, default=None,
                    help="require candidate to be at least R x faster than "
                         "baseline on rows matching --speedup-filter")
    ap.add_argument("--speedup-filter", default="",
                    help="substring of 'series / point' selecting the rows "
                         "the --min-speedup gate applies to (default: all)")
    ap.add_argument("--config", default=None, metavar="FILE",
                    help="JSON file of per-cell gate overrides (see "
                         "module docstring)")
    args = ap.parse_args()

    config_cells = []
    if args.config is not None:
        try:
            with open(args.config) as f:
                doc = json.load(f)
        except (OSError, ValueError) as e:
            sys.stderr.write(
                "compare_bench: cannot read --config %s: %s\n"
                % (args.config, e))
            sys.exit(2)
        for cell in doc.get("cells", []):
            if not isinstance(cell, dict) or "match" not in cell:
                sys.stderr.write(
                    "compare_bench: every config cell needs a \"match\" "
                    "string: %r\n" % (cell,))
                sys.exit(2)
            unknown = set(cell) - {
                "match", "max_regress_pct", "min_time", "min_speedup"}
            if unknown:
                sys.stderr.write(
                    "compare_bench: unknown config keys %r in %r\n"
                    % (sorted(unknown), cell["match"]))
                sys.exit(2)
            config_cells.append(dict(cell, hits=0))

    def cell_for(key):
        """First config cell whose match occurs in the row's full label."""
        label = fmt(key)
        for cell in config_cells:
            if cell["match"] in label:
                cell["hits"] += 1
                return cell
        return None

    base = load_rows(args.baseline)
    cand = load_rows(args.candidate)

    failures = []
    regressions = 0
    compared = 0
    speedup_rows = 0

    for key, (brow, bfields) in sorted(base.items()):
        if key not in cand:
            failures.append("missing in candidate: %s" % fmt(key))
            continue
        crow, cfields = cand[key]
        compared += 1
        for field in dict.fromkeys(bfields + cfields):
            bval, cval = brow.get(field), crow.get(field)
            if bval != cval:
                failures.append(
                    "parity drift on %s: %s %r -> %r"
                    % (fmt(key), field, bval, cval))
        cell = cell_for(key)
        max_regress = args.max_regress_pct
        min_time = args.min_time
        min_speedup = args.min_speedup
        speedup_gated = args.min_speedup is not None and \
            args.speedup_filter in "%s / %s / %s" % (key[1], key[2], key[3])
        if cell is not None:
            max_regress = cell.get("max_regress_pct", max_regress)
            min_time = cell.get("min_time", min_time)
            if "min_speedup" in cell:
                min_speedup = cell["min_speedup"]
                speedup_gated = True
        bt = brow.get("running_time_s", 0.0)
        ct = crow.get("running_time_s", 0.0)
        if bt >= min_time and ct > bt * (1 + max_regress / 100):
            regressions += 1
            failures.append(
                "time regression on %s: %.3fs -> %.3fs (+%.1f%% > %.1f%%)"
                % (fmt(key), bt, ct, 100 * (ct / bt - 1), max_regress))
        if speedup_gated:
            speedup_rows += 1
            speedup = bt / ct if ct > 0 else float("inf")
            marker = "ok" if speedup >= min_speedup else "FAIL"
            print("speedup %s: %.3fs / %.3fs = %.2fx (need %.2fx) [%s]"
                  % (fmt(key), bt, ct, speedup, min_speedup, marker))
            if speedup < min_speedup:
                failures.append(
                    "speedup %.2fx < %.2fx on %s"
                    % (speedup, min_speedup, fmt(key)))

    for key in sorted(set(cand) - set(base)):
        print("note: new row (not in baseline): %s" % fmt(key))

    if args.min_speedup is not None and speedup_rows == 0:
        failures.append(
            "--min-speedup set but --speedup-filter %r matched no rows"
            % args.speedup_filter)
    for cell in config_cells:
        if cell["hits"] == 0:
            failures.append(
                "--config cell %r matched no rows" % cell["match"])

    print("compare_bench: %d rows compared, %d timing regressions, "
          "%d gate failures" % (compared, regressions, len(failures)))
    if failures:
        for msg in failures:
            sys.stderr.write("FAIL: %s\n" % msg)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
