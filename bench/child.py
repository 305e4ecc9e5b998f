"""One benchmark operation in a fresh interpreter, so that the package's
module-level memos start cold, as they do for a command-line user.

run.py starts it as
    python3 bench/child.py <workload> <seed> <spawned> <mode> <out_dir> <run_id> <cpu>
where `spawned` is the parent's time.monotonic() at the spawn (the clock is
system-wide on Linux, so set-up time includes interpreter start), `mode`
is `setup` (stop once the inputs are ready), `plain` or `traced`, and the
child pins itself to CPU `cpu`.  The last line of standard output is one
JSON object.

Untraced children time set-up and the timed region on the reference clock
(refclock.py) and report wall time beside it (`raw_*`).  Traced children
run without it, and their times are wall time.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def main(argv):
    perf_start, mono_start = time.perf_counter(), time.monotonic()
    workload, seed, spawned, mode, out_dir, run_id, cpu = argv
    os.sched_setaffinity(0, {int(cpu)})
    clock = None
    if mode != "traced":
        from refclock import RefClock

        clock = RefClock()
        clock.start()
    sys.path.insert(0, str(SRC))
    import markoffmodp

    if Path(markoffmodp.__file__).resolve().parent != SRC / "markoffmodp":
        raise SystemExit(f"markoffmodp imported from {markoffmodp.__file__}, not from {SRC}")
    from workloads import WORKLOADS

    wl = WORKLOADS[workload](out_dir)
    wl.prepare(int(seed))
    recorder = None
    if mode == "traced":
        import layers
        from spans import Recorder

        recorder = Recorder(run_id)
        layers.install(recorder)
    ready = time.perf_counter()
    # interpreter start-up, before this process could time itself
    before = mono_start - float(spawned)
    out = {"raw_setup_s": before + ready - perf_start, "operations": wl.operations}
    if mode == "setup":
        clock.stop()
        out["setup_s"] = before * clock.rates[0] + clock.elapsed(perf_start, ready)
        print(json.dumps(out))
        return
    if recorder:
        recorder.recording = True
    try:
        units = wl.run()
    except Exception as exc:  # noqa: BLE001 - an exception is a failed operation
        out["failures"] = {"run": f"{type(exc).__name__}: {exc}"}
        out["failed"] = wl.operations
        print(json.dumps(out))
        return
    finally:
        if clock:
            clock.stop()
        if recorder:
            recorder.recording = False
    raw = {stage: {unit: t1 - t0 for unit, (t0, t1) in times.items()}
           for stage, times in units.items()}
    out["units"] = raw
    if clock:
        out["setup_s"] = before * clock.rates[0] + clock.elapsed(perf_start, ready)
        out["raw_units"] = raw
        out["raw_wall_s"] = sum(sum(times.values()) for times in raw.values())
        out["units"] = {stage: {unit: clock.elapsed(t0, t1) for unit, (t0, t1) in times.items()}
                        for stage, times in units.items()}
        spans = [span for times in units.values() for span in times.values()]
        out["probe_share"] = clock.probe_share(min(spans)[0], max(t1 for _, t1 in spans))
    out["stages"] = {stage: sum(times.values()) for stage, times in out["units"].items()}
    out["wall_s"] = sum(out["stages"].values())
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    counters = wl.counters()
    if recorder:
        out["layers"] = layers.layer_metrics(recorder.spans, out["wall_s"], counters)
        out["layers"]["trace.overhead_s"] = len(recorder.spans) * recorder.span_cost()
        recorder.write(Path(out_dir) / f"spans-{run_id}.jsonl")
    try:
        failures = wl.gate()
    except Exception as exc:  # noqa: BLE001 - a gate that cannot run fails the operation
        failures = {"gate": f"{type(exc).__name__}: {exc}"}
    out["failures"] = failures
    out["failed"] = min(len(failures), wl.operations)
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
