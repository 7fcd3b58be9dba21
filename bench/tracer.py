"""Call tracing for the benchmark's traced runs.

The wrappers live here, in the benchmark, not in the library: ``Tracer.install``
replaces a library function with a timing wrapper in every ``tiltvae`` module
namespace that holds it, so callers that look the name up at call time (the
module that defines it and every module that imported it) go through the
wrapper. ``Tracer.uninstall`` puts the originals back.

Three kinds of wrapper:

- ``SPAN``: coarse calls. Each call appends one span (name, start, end,
  parent span index, run id) to an in-memory list.
- ``COUNT``: the hottest functions (about a million calls per sweep). Only a
  call count and accumulated time, no span.
- ``TIMED``: a count plus every call's duration, for percentiles.

Every kind also adds its duration to the enclosing wrapped call, so each name
gets a self time: its busy time minus the time spent in wrapped calls it made.
"""

import importlib
import json
import sys
import time
from dataclasses import dataclass

SPAN, COUNT, TIMED = "span", "count", "timed"


@dataclass(frozen=True)
class Target:
    name: str        # metric prefix, e.g. "tilted.fit"
    module: str      # defining module under tiltvae, e.g. "tilted"
    qualname: str    # attribute path inside it, e.g. "TiltedPrior.fit"
    kind: str
    rows: object = None   # f(args, kwargs, result) -> rows handled by the call
    flops: object = None  # f(args, kwargs, result) -> floating-point operations
    watch: str = ""       # record how many calls of this target each call made


class Stats:
    __slots__ = ("calls", "busy", "self_s", "rows", "flops", "durations", "inner")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_s = 0.0
        self.rows = 0
        self.flops = 0
        self.durations = []
        self.inner = []


class Tracer:
    """Process-local recorder of calls into ``targets``; records nothing
    until ``install`` is called, and nothing after ``uninstall``."""

    def __init__(self, targets):
        self.targets = targets
        self.stats = {}
        self.spans = []
        self.absent = {}
        self.run_id = ""
        # Child-time accumulators of the wrapped calls now running; the
        # bottom entry collects time spent outside any wrapped call.
        self._frames = [[0.0]]
        self._open_spans = []
        self._restore = []

    # ------------------------------------------------------------------
    # installation

    def install(self):
        for t in self.targets:
            self.stats.setdefault(t.name, Stats())
        for t in self.targets:
            try:
                self._install_one(t)
            except (ImportError, AttributeError, KeyError) as exc:
                self.absent[t.name] = f"tiltvae.{t.module}.{t.qualname} not found ({exc})"

    def _install_one(self, t):
        module = importlib.import_module(f"tiltvae.{t.module}")
        *owner_path, attr = t.qualname.split(".")
        if owner_path:
            owner = module
            for part in owner_path:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr]
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(self._wrap(t, raw.__func__))
            else:
                new = self._wrap(t, raw)
            setattr(owner, attr, new)
            self._restore.append((owner, attr, raw))
            return
        original = getattr(module, attr)
        wrapper = self._wrap(t, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "tiltvae" or mod_name.startswith("tiltvae.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._restore.append((mod, key, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    # ------------------------------------------------------------------
    # wrappers

    def _wrap(self, t, fn):
        st = self.stats[t.name]
        frames = self._frames
        perf = time.perf_counter
        if t.kind == COUNT:
            def counted(*args, **kwargs):
                frame = [0.0]
                frames.append(frame)
                t0 = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = perf() - t0
                    frames.pop()
                    frames[-1][0] += dt
                    st.calls += 1
                    st.busy += dt
                    st.self_s += dt - frame[0]
            return counted

        spans, open_spans = self.spans, self._open_spans
        watched = self.stats[t.watch] if t.watch else None
        is_span, is_timed = t.kind == SPAN, t.kind == TIMED

        def traced(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            if is_span:
                parent = open_spans[-1] if open_spans else None
                index = len(spans)
                spans.append(None)
                open_spans.append(index)
            before = watched.calls if watched is not None else 0
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                frames.pop()
                frames[-1][0] += dt
                st.calls += 1
                st.busy += dt
                st.self_s += dt - frame[0]
                if is_span:
                    open_spans.pop()
                    spans[index] = (t.name, t0, t0 + dt, parent, self.run_id)
                if is_timed:
                    st.durations.append(dt)
                if watched is not None:
                    st.inner.append(watched.calls - before)
            if t.rows is not None:
                st.rows += self._work(t, "rows", t.rows, args, kwargs, result)
            if t.flops is not None:
                st.flops += self._work(t, "flops", t.flops, args, kwargs, result)
            return result

        return traced

    def _work(self, t, what, count, args, kwargs, result):
        # The counters read the arguments' structure, which a later refactor
        # may change: report the count as absent rather than stop the run.
        try:
            return count(args, kwargs, result)
        except Exception as exc:
            self.absent.setdefault(f"{t.name}.{what}", f"cannot count {what}: {exc!r}")
            return 0

    def wrapped(self, name, fn):
        """``fn`` wrapped as one more span target, for harness-side calls."""
        self.stats.setdefault(name, Stats())
        return self._wrap(Target(name, "", name, SPAN), fn)

    def write_spans(self, path):
        """Write the in-memory spans as JSON lines, once, at the end."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, run_id) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "run": run_id}))
                fh.write("\n")

