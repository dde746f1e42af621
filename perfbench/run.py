#!/usr/bin/env python3
"""Benchmark of the channel engine: builds it, prepares inputs, runs one
workload (or all of them), checks every job's output and prints every
metric by name and unit.

One workload, one pass (what BENCHMARK.json's "command" runs):

    python3 perfbench/run.py --workload pr-webuk --seed 0 --seconds 10 --trace 0

The last line on standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. Everything else goes to
standard error.

All four workloads, untraced then traced, with a combined result file
that perfbench/compare.py reads:

    python3 perfbench/run.py --seed 0 --out result.json

A quick check that every workload builds, runs and verifies (CI):

    python3 perfbench/run.py --smoke

Run from anywhere inside a checkout of the repository; the build goes to
$CARGO_TARGET_DIR/perfbench-<hash of the checkout's path>, where
CARGO_TARGET_DIR defaults to .bench_build under the checkout root.
Stdlib only.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["pr-webuk", "sv-twitter", "scc-wiki", "pr-wiki-tcp"]
TCP_WORKLOADS = {"pr-wiki-tcp": 4}  # rank processes
DATA_DIRS_KEPT = 4  # prepared inputs kept per workload (newest first)


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def fail(message, code=2):
    log(f"run.py: {message}")
    sys.exit(code)


def build_dir():
    """One build directory per checkout, even when CARGO_TARGET_DIR is an
    absolute directory that several checkouts share: a CMake build tree
    keeps building the sources it was first configured from."""
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    checkout = hashlib.sha256(str(ROOT).encode()).hexdigest()[:12]
    return base / f"perfbench-{checkout}"


def source_id():
    """A hash of the sources that are built or read: identifies the code a
    record measured, and keys the prepared inputs, whose generator, oracle
    and snapshot format are part of that code. Uncommitted edits count."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for sub in ("src", "tools", "bench", "perfbench"):
        files += [p for p in (ROOT / sub).rglob("*") if p.is_file()
                  and p.suffix in (".cpp", ".hpp", ".txt")]
    for path in sorted(files):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def run_checked(cmd, timeout):
    """Run cmd with its output on stderr; on timeout, kill every process
    of its session (pgch_launch puts ranks in their own process groups)
    and wait for them."""
    proc = subprocess.Popen([str(c) for c in cmd], stdout=sys.stderr,
                            stderr=sys.stderr, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"run.py: timed out after {timeout} s: {cmd[0]}")
        kill_session(proc.pid)
        proc.wait()
        return -1


def kill_session(sid):
    def members():
        pids = []
        for entry in Path("/proc").iterdir():
            if not entry.name.isdigit():
                continue
            try:
                stat = (entry / "stat").read_text()
            except OSError:
                continue
            # Field 6 (session id) follows the parenthesized command name.
            if int(stat.rsplit(")", 1)[1].split()[3]) == sid:
                pids.append(int(entry.name))
        return pids

    for sig in (signal.SIGTERM, signal.SIGKILL):
        for pid in members():
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        deadline = time.time() + 5
        while members() and time.time() < deadline:
            time.sleep(0.1)


def build(out):
    if not (out / "CMakeCache.txt").exists():
        if run_checked(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"], 300) != 0:
            fail("cmake configure failed", 1)
    if run_checked(["cmake", "--build", out, "-j", "4"], 850) != 0:
        fail("build failed", 1)
    return out / "bench_suite", out / "repo" / "pgch_launch"


def prepare(suite, out, workload, seed, scale, source):
    """Generate the workload's snapshot and oracle output once per
    (seed, scale, sources); keep the newest few, delete older ones. Seed 0
    must be the legacy stand-in of bench/bench_common.hpp."""
    data = out / "data"
    target = data / f"{workload}-seed{seed}-scale{scale}-{source}"
    if not (target / "oracle.bin").exists():
        tmp = data / (target.name + ".tmp")
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        if run_checked([suite, "prepare", "--workload", workload, "--seed",
                        seed, "--scale", scale, "--dir", tmp], 170) != 0:
            fail(f"preparing {workload} failed", 1)
        legacy = out / "legacy_check"
        if seed == 0 and legacy.exists():
            if run_checked([legacy, "--workload", workload, "--scale",
                            scale], 170) != 0:
                fail(f"{workload}: seed 0 is not the legacy stand-in", 1)
        elif seed == 0:
            log("run.py: legacy_check not built (no google-benchmark "
                "library); seed 0 is not compared with bench_common.hpp")
        shutil.rmtree(target, ignore_errors=True)
        tmp.rename(target)
    os.utime(target)
    kept = sorted((d for d in data.glob(f"{workload}-seed*") if d.is_dir()
                   and not d.name.endswith(".tmp")),
                  key=lambda d: d.stat().st_mtime, reverse=True)
    for old in kept[DATA_DIRS_KEPT:]:
        shutil.rmtree(old, ignore_errors=True)
    return target


def free_port_base(ranks):
    """A port base whose `ranks` consecutive loopback ports are free,
    different on every run (TIME_WAIT from a previous run would refuse
    the same ports), and below the kernel's ephemeral range, so no
    rank's outgoing connection can take a port another rank listens on."""
    try:
        low = int(Path("/proc/sys/net/ipv4/ip_local_port_range")
                  .read_text().split()[0])
    except (OSError, ValueError, IndexError):
        low = 32768
    rng = random.Random()
    for _ in range(200):
        base = rng.randrange(10000, max(low, 10000 + ranks + 1) - ranks)
        sockets = []
        try:
            for port in range(base, base + ranks):
                s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                sockets.append(s)
                s.bind(("127.0.0.1", port))
            return base
        except OSError:
            continue
        finally:
            for s in sockets:
                s.close()
    fail("no free loopback ports", 1)


def run_workload(tools, out, workload, seed, scale, seconds, jobs, trace,
                 source):
    suite, launch = tools
    data = prepare(suite, out, workload, seed, scale, source)
    results = out / "results"
    results.mkdir(parents=True, exist_ok=True)
    record_path = results / f"{workload}-trace{trace}.json"
    record_path.unlink(missing_ok=True)
    cmd = [suite, "run", "--workload", workload, "--seed", seed, "--scale",
           scale, "--dir", data, "--out", record_path, "--trace", trace,
           "--source", source]
    cmd += ["--jobs", jobs] if jobs else ["--seconds", seconds]
    if trace:
        traces = out / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-file", traces / f"trace-{workload}.json"]
    if workload in TCP_WORKLOADS:
        ranks = TCP_WORKLOADS[workload]
        cmd = [launch, "-n", ranks, "--transport", "tcp", "--port-base",
               free_port_base(ranks), "--"] + cmd
    code = run_checked(cmd, 120 + (seconds if not jobs else 0))
    try:
        record = json.loads(record_path.read_text())
    except (OSError, ValueError):
        record = {"attempted": 1, "failed": 1, "metrics": {},
                  "errors": [f"no result record (exit {code})"]}
    if code != 0 and not record.get("errors"):
        record["errors"] = [f"exit code {code}"]
    return record


def metric_names(spec, trace):
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def report(workload, trace, record, names):
    log(f"== {workload} ({'traced' if trace else 'untraced'} pass): "
        f"{record['attempted']} jobs, {record['failed']} failed")
    for err in record.get("errors", []):
        log(f"   ERROR {err}")
    for name in names:
        m = record["metrics"].get(name)
        if m is None:
            log(f"   {name:34s} missing")
            continue
        log(f"   {name:34s} {m['value']:<14.6g} {m['unit']:<12s}"
            f"(q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, min {m['min']:.6g}, "
            f"max {m['max']:.6g}, n {m['n']})")


def correct(record, names):
    return (record["failed"] == 0 and not record.get("errors")
            and all(n in record["metrics"] for n in names))


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS,
                   help="run one workload and pass (default: all, both)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=None,
                   help="measured seconds per pass (default: run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="write the combined result file here")
    p.add_argument("--smoke", action="store_true",
                   help="scale -3, 2 jobs per pass, all workloads, both "
                        "passes")
    args = p.parse_args()

    if not ((ROOT / "CMakeLists.txt").is_file()
            and (ROOT / "src" / "core" / "worker.hpp").is_file()):
        fail(f"{ROOT} holds no engine sources: run from a checkout of the "
             "repository")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    scale, jobs = (-3, 2) if args.smoke else (0, 0)
    single = args.workload and not args.smoke
    passes = ([(args.workload, args.trace)] if single else
              [(w, t) for t in (0, 1) for w in WORKLOADS])

    out = build_dir()
    tools = build(out)
    source = source_id()
    combined = {"seed": args.seed, "seconds": seconds, "scale_shift": scale,
                "source": source, "workloads": {}}
    ok = True
    for workload, trace in passes:
        record = run_workload(tools, out, workload, args.seed, scale,
                              seconds, jobs, trace, source)
        names = metric_names(spec, trace)
        report(workload, trace, record, names)
        ok = ok and correct(record, names)
        entry = combined["workloads"].setdefault(
            workload, {"attempted": 0, "failed": 0})
        entry["attempted"] += record["attempted"]
        entry["failed"] += record["failed"]
        entry["config"] = record.get("config", {})
        entry["end_to_end" if trace == 0 else "per_layer"] = {
            n: record["metrics"][n] for n in names if n in record["metrics"]}

    if args.out:
        Path(args.out).write_text(json.dumps(combined, indent=1) + "\n")
        log(f"wrote {args.out}")
    if single:
        print(json.dumps({
            "correct": correct(record, names),
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {n: {"value": record["metrics"][n]["value"],
                            "unit": record["metrics"][n]["unit"]}
                        for n in names if n in record["metrics"]},
        }), flush=True)
    else:
        log("all workloads verified" if ok else "VERIFICATION FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
