#!/usr/bin/env python3
"""Compare benchmark runs of a parent commit and a change.

    python3 perfbench/compare.py --parent p1.json p2.json ... \\
        --change c1.json c2.json ... [--claim pr-webuk:job_s ...]

Each file is one run, written by `perfbench/run.py --seed N --out FILE`.
The i-th parent file is paired with the i-th change file; a pair must
share its seed, and every file its run length and scale, or the files
are refused. Every end-to-end metric of BENCHMARK.json is judged on
every workload, with the bound BENCHMARK.json fixes for it:

  regressed   the change's median is worse than the parent's by more
              than the bound
  unresolved  not regressed, but the parent's own spread (interquartile
              range over median) is wider than the bound and not every
              change run beats every parent run; or a claimed metric
              that did not meet the claim rule
  improved    a claimed metric (--claim WORKLOAD:METRIC, or METRIC for
              every workload) whose change wins at least 9 of 10 pairs
              (ties count for neither) and whose medians differ by more
              than the parent's interquartile range
  unchanged   otherwise

One row per workload, then one line per metric. Exits 1 on any
regression or any rise in the share of failed jobs, 2 when the files
are refused. Stdlib only.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
ORDER = ["regressed", "unresolved", "improved", "unchanged"]


def refuse(message):
    print(f"compare.py: {message}", file=sys.stderr)
    sys.exit(2)


def read_files(paths):
    files = []
    for path in paths:
        data = json.loads(Path(path).read_text())
        if "workloads" not in data:
            refuse(f"{path} was not written by run.py --out")
        files.append((path, data))
    return files


def check_settings(parent, change):
    """Runs are comparable only with equal settings: one run length and
    scale for all, and one seed per pair."""
    if len(parent) != len(change):
        refuse(f"{len(parent)} parent runs but {len(change)} change runs; "
               "pass them in pairs")
    first_path, first = parent[0]
    for path, data in parent + change:
        for key in ("seconds", "scale_shift"):
            if data[key] != first[key]:
                refuse(f"{path} has {key} {data[key]}, "
                       f"{first_path} has {first[key]}")
    for (p_path, p), (c_path, c) in zip(parent, change):
        if p["seed"] != c["seed"]:
            refuse(f"{p_path} has seed {p['seed']} but its pair {c_path} "
                   f"has seed {c['seed']}")


def collect(files):
    """{workload: {"values": {metric: [v per run]}, "attempted", "failed"}}"""
    runs = {}
    for _, data in files:
        for workload, rec in data["workloads"].items():
            w = runs.setdefault(workload,
                                {"values": {}, "attempted": 0, "failed": 0})
            w["attempted"] += rec["attempted"]
            w["failed"] += rec["failed"]
            for name, m in rec.get("end_to_end", {}).items():
                w["values"].setdefault(name, []).append(m["value"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def judge(parent, change, better, bound, claimed):
    """Verdict and a one-line explanation for one workload and metric."""
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (c_med - p_med) / p_med if p_med else 0.0
    spread = (q3 - q1) / p_med if p_med else 0.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    all_better = all(sign * (c - p) < 0 for p in parent for c in change)
    detail = (f"parent {p_med:.6g} change {c_med:.6g} "
              f"({abs(worse):.2%} {'worse' if worse > 0 else 'better'}) "
              f"spread {spread:.2%} bound {bound:.0%} wins {wins}/{len(pairs)}")
    if worse > bound:
        return "regressed", detail
    if claimed:
        if (len(pairs) >= 10 and wins >= 0.9 * len(pairs) and worse < 0
                and abs(c_med - p_med) > q3 - q1):
            return "improved", detail
        return "unresolved", detail
    if spread > bound and not all_better:
        return "unresolved", detail
    return "unchanged", detail


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--parent", nargs="+", required=True)
    ap.add_argument("--change", nargs="+", required=True)
    ap.add_argument("--claim", action="append", default=[],
                    help="WORKLOAD:METRIC or METRIC the change claims")
    args = ap.parse_args()

    spec = json.loads(SPEC.read_text())
    parent_files, change_files = read_files(args.parent), read_files(args.change)
    check_settings(parent_files, change_files)
    parent, change = collect(parent_files), collect(change_files)
    failed = False
    for workload in [w["name"] for w in spec["workloads"]]:
        p, c = parent.get(workload), change.get(workload)
        if p is None or c is None:
            print(f"{workload:14s} missing from "
                  f"{'parent' if p is None else 'change'} runs")
            continue
        lines, verdicts = [], []
        for m in spec["end_to_end"]:
            name = m["name"]
            pv, cv = p["values"].get(name), c["values"].get(name)
            if not pv or not cv:
                lines.append(f"    {name:14s} missing")
                verdicts.append("unresolved")
                continue
            claimed = (name in args.claim
                       or f"{workload}:{name}" in args.claim)
            verdict, detail = judge(pv, cv, m["better"], m["bound"], claimed)
            verdicts.append(verdict)
            lines.append(f"    {name:14s} {verdict:10s} {detail}")
        p_rate = p["failed"] / max(p["attempted"], 1)
        c_rate = c["failed"] / max(c["attempted"], 1)
        errors = f"failed {c['failed']}/{c['attempted']} " \
                 f"(parent {p['failed']}/{p['attempted']})"
        if c_rate > p_rate:
            verdicts.append("regressed")
            errors += " ROSE"
        row = min(verdicts, key=ORDER.index)
        failed = failed or row == "regressed"
        print(f"{workload:14s} {row:10s} {errors}")
        print("\n".join(lines))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
