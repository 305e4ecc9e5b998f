"""Benchmark of markoffmodp: one command, three workloads.

    python3 bench/run.py --workload certify-d5|desk-scale|reduce-mix \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every operation runs in a fresh
interpreter (bench/child.py), one after another (a closed loop, one client,
single-threaded).  Operations repeat until the next one would end after
`--seconds`; at least one runs.  The metrics are medians over them.  Times
are reference seconds (refclock.py): wall time scaled by the speed of the
CPU at the time, sampled while the program runs.  The report line carries
the wall-clock figures beside them (`raw_wall_s`, `raw_setup_s`).

--trace 0 prints the end-to-end metrics; --trace 1 wraps the layer
functions (layers.py) and prints per-layer metrics instead.  End-to-end
numbers come only from untraced runs.  The line before the result carries
provenance, the workload's own stage names and the gate failures.  The last
line is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "markoffmodp"
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 7
# every run ends well within the 180 s a run may take
RUN_LIMIT_S = 170.0
WORKLOADS = ("certify-d5", "desk-scale", "reduce-mix")


def loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def provenance():
    rev = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


class Runner:
    def __init__(self, workload, seed, started):
        self.workload = workload
        self.seed = seed
        self.started = started
        self.children = []
        # successive operations take turns on the CPUs this process may use
        self.cpus = sorted(os.sched_getaffinity(0))

    def child(self, mode, index):
        """Run one child to completion; returns its JSON result or None."""
        run_id = f"{self.workload}-s{self.seed}-{os.getpid()}-{index}-{mode}"
        load_before = loadavg()
        spawned = time.monotonic()
        limit = max(1.0, RUN_LIMIT_S - (spawned - self.started))
        cpu = self.cpus[index % len(self.cpus)]
        cmd = [sys.executable, str(HERE / "child.py"), self.workload, str(self.seed),
               repr(spawned), mode, str(OUT_DIR), run_id, str(cpu)]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=limit)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            error = None if result else (proc.stderr.strip().splitlines() or ["no output"])[-1]
        except subprocess.TimeoutExpired:
            # subprocess.run kills the child and waits for it before raising
            result, error = None, f"timed out after {limit:.0f} s"
        except ValueError as exc:
            result, error = None, f"unreadable child output: {exc!r}"
        self.children.append({"mode": mode, "cpu": cpu, "seconds": time.monotonic() - spawned,
                              "loadavg_before": load_before, "loadavg_after": loadavg(),
                              "error": error})
        return result

    def ops(self, mode, seconds):
        """Closed loop: repeat the operation until the next one would overrun."""
        results = []
        while True:
            t0 = time.monotonic()
            results.append(self.child(mode, len(results)))
            if results[-1] is None or "stages" not in results[-1]:
                break
            took = time.monotonic() - t0
            elapsed = time.monotonic() - self.started
            if elapsed + took > min(seconds, RUN_LIMIT_S - 10):
                break
        return results


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.monotonic()
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no package source at {PACKAGE}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    runner = Runner(args.workload, args.seed, started)
    results = runner.ops("traced" if args.trace else "plain", args.seconds)
    done = [r for r in results if r is not None and "stages" in r]
    if not done:
        print(f"error: no operation completed: {runner.children[-1]['error']}", file=sys.stderr)
        return 1

    attempted = failed = 0
    failures = {}
    for r in results:
        if r is None:  # crashed or timed out: count one failed operation
            attempted += 1
            failed += 1
            continue
        attempted += r["operations"]
        failed += r["failed"]
        failures.update(r.get("failures", {}))

    if args.trace:
        metrics = {name: {"value": statistics.median(r["layers"][name] for r in done),
                          "unit": unit_of(name)}
                   for name in done[0]["layers"]}
        named = {}
    else:
        setups = [r["setup_s"] for r in done]
        raw_setups = [r["raw_setup_s"] for r in done]
        while len(setups) < SETUP_SAMPLES and time.monotonic() - started < RUN_LIMIT_S - 10:
            r = runner.child("setup", len(runner.children))
            if r is None:
                break
            setups.append(r["setup_s"])
            raw_setups.append(r["raw_setup_s"])
        metrics = {
            "wall_s": {"value": statistics.median(r["wall_s"] for r in done), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in done), "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
        named = {stage: {"value": statistics.median(r["stages"][stage] for r in done), "unit": "s"}
                 for stage in done[0]["stages"]}
        named["raw_wall_s"] = {"value": statistics.median(r["raw_wall_s"] for r in done), "unit": "s"}
        named["raw_setup_s"] = {"value": statistics.median(raw_setups), "unit": "s"}
        named["probe_share"] = {"value": statistics.median(r["probe_share"] for r in done),
                                "unit": "ratio"}
        named["setup_samples_s"] = setups
    named["fail_ratio"] = {"value": failed / attempted, "unit": "ratio"}

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(),
        "named_metrics": named,
        "children": runner.children,
        "samples": [{"units": r["units"], "raw_units": r.get("raw_units")} for r in done],
        "failures": dict(list(failures.items())[:20]),
    }
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def unit_of(layer_metric):
    if layer_metric == "certify.minor_eval_useful_ratio":
        return "ratio"
    if layer_metric == "certify.cert_bytes":
        return "bytes"
    return "s" if layer_metric.endswith("_s") else "count"


if __name__ == "__main__":
    sys.exit(main())
