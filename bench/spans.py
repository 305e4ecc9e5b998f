"""In-memory span recorder for the traced benchmark run.

The recorder replaces a function in the namespace of the module that calls
it with a wrapper that records one span per call: name, start, end, the
span that was open when it was called, and an optional note derived from
the result.  Spans stay in memory; `write` dumps them as JSON lines and
`summarize` derives call counts and self times.  Nothing under `src/` is
edited: the wrappers are installed at run time and only in traced runs.
"""

from __future__ import annotations

import functools
import json
import time
import types


class Recorder:
    def __init__(self, run_id):
        self.run_id = run_id
        self.recording = False
        # each span is [name, start, end, parent index or -1, note]
        self.spans = []
        self._stack = []

    def wrap(self, module, attr, name, note=None):
        """Replace `module.attr` with a span-recording wrapper.

        `note`, when given, maps the call's result to a small JSON value
        stored with the span (a degree, a flag).
        """
        fn = getattr(module, attr)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[4] = note(out)
            return out

        setattr(module, attr, traced)

    @staticmethod
    def span_cost(calls=50000):
        """Seconds one recorded span adds to a call, measured on a no-op."""
        target = types.SimpleNamespace(f=lambda: None)
        t0 = time.perf_counter()
        for _ in range(calls):
            target.f()
        plain = time.perf_counter() - t0
        probe = Recorder("calibration")
        probe.recording = True
        probe.wrap(target, "f", "noop")
        t0 = time.perf_counter()
        for _ in range(calls):
            target.f()
        return max(0.0, (time.perf_counter() - t0 - plain) / calls)

    def write(self, path):
        with open(path, "w") as fh:
            for i, (name, start, end, parent, note) in enumerate(self.spans):
                fh.write(json.dumps({"run": self.run_id, "id": i, "name": name, "start": start,
                                     "end": end, "parent": parent, "note": note}) + "\n")


def summarize(spans):
    """Per span name: call count, self time and the notes.

    Self time is a span's duration minus the durations of its direct
    children, so the self times of all spans add up to the durations of
    the root spans.
    """
    self_s = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            self_s[parent] -= end - start
    out = {}
    for i, (name, _, _, _, note) in enumerate(spans):
        s = out.setdefault(name, {"calls": 0, "self_s": 0.0, "notes": []})
        s["calls"] += 1
        s["self_s"] += self_s[i]
        if note is not None:
            s["notes"].append(note)
    return out


def root_time(spans):
    """Summed duration of the spans that no other span encloses."""
    return sum(end - start for _, start, end, parent, _ in spans if parent < 0)
