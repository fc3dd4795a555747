"""Span recorder that times calls into the package from outside it.

Each traced function is wrapped at the name its caller looks it up by (a
module attribute such as ``viapt.prompt_engine.jacobi_svd_batch``, or a class
attribute such as ``viapt.numerics.rng.RngState.gaussian``), so the package
itself is not edited. A span records name, start, end and parent; its self
time is its duration minus the time covered by its child spans. Spans are
kept in memory and written out once, when the run ends.

A target whose module or attribute no longer exists is reported as absent,
not as an error, so a later rename shows up in the output instead of
breaking the run.
"""
from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []          # [name, start, end, parent index or -1, phase, self s]
        self.counts = defaultdict(int)   # (phase, counter name) -> total
        self.absent = []
        self.phase = None        # spans and counts are kept only while set
        self._stack = []         # [span index, child-covered seconds]
        self._installed = []     # (owner, attribute, original)

    # -- recording ------------------------------------------------------------

    def _enter(self, name):
        idx = len(self.spans)
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, self.phase, None])
        self._stack.append([idx, 0.0])

    def _exit(self):
        idx, covered = self._stack.pop()
        span = self.spans[idx]
        span[2] = self.clock()
        span[5] = span[2] - span[1] - covered
        if self._stack:
            self._stack[-1][1] += span[2] - span[1]

    def count(self, name, n):
        if self.phase is not None:
            self.counts[(self.phase, name)] += int(n)

    def untimed(self, fn, *args):
        """Run fn outside any span: its time is charged to no layer."""
        t0 = self.clock()
        try:
            return fn(*args)
        finally:
            if self._stack:
                self._stack[-1][1] += self.clock() - t0

    def wrap(self, name, fn, counter=None):
        """fn wrapped in a span; counter(tracer, args, kwargs) adds counts."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.phase is None:
                return fn(*args, **kwargs)
            if counter is not None:
                self.untimed(counter, self, args, kwargs)
            self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()
        return traced

    # -- installation -----------------------------------------------------------

    def install(self, targets):
        """targets: (span name, [(module, dotted attribute)], counter or None).

        Every lookup site of one span name shares the span name; a span name
        none of whose sites resolves is recorded as absent.
        """
        for name, sites, counter in targets:
            found = False
            for module_name, attr in sites:
                try:
                    owner = importlib.import_module(module_name)
                    *path, leaf = attr.split(".")
                    for part in path:
                        owner = getattr(owner, part)
                    original = getattr(owner, leaf)
                except (ImportError, AttributeError):
                    continue
                found = True
                self._installed.append((owner, leaf, original))
                setattr(owner, leaf, self.wrap(name, original, counter))
            if not found:
                self.absent.append(name)

    def uninstall(self):
        for owner, leaf, original in reversed(self._installed):
            setattr(owner, leaf, original)
        self._installed.clear()

    # -- results ----------------------------------------------------------------

    def self_times(self, phase):
        """{span name: (total self seconds, calls)} over one phase."""
        out = defaultdict(lambda: [0.0, 0])
        for name, _, _, _, ph, self_s in self.spans:
            if ph == phase:
                out[name][0] += self_s
                out[name][1] += 1
        return {k: (v[0], v[1]) for k, v in out.items()}

    def durations(self, phase):
        """{span name: total seconds} over the outermost spans of one phase."""
        out = defaultdict(float)
        for name, start, end, parent, ph, _ in self.spans:
            if ph == phase and parent < 0:
                out[name] += end - start
        return dict(out)

    def to_json(self):
        return {
            "spans": [{"name": n, "start": s, "end": e, "parent": p, "phase": ph, "self": x}
                      for n, s, e, p, ph, x in self.spans],
            "counts": [{"phase": ph, "name": n, "value": v}
                       for (ph, n), v in sorted(self.counts.items())],
            "absent": list(self.absent),
        }

    def merge_json(self, blob):
        """Append spans and counts recorded by another process."""
        offset = len(self.spans)
        for s in blob["spans"]:
            parent = s["parent"] + offset if s["parent"] >= 0 else -1
            self.spans.append([s["name"], s["start"], s["end"], parent, s["phase"], s["self"]])
        for c in blob["counts"]:
            self.counts[(c["phase"], c["name"])] += c["value"]
        for name in blob["absent"]:
            if name not in self.absent:
                self.absent.append(name)

    def write(self, path):
        with open(path, "w") as f:
            json.dump(self.to_json(), f)
