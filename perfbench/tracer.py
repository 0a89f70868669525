"""In-memory span tracer installed around funnelcap's public functions.

The tracer never edits the package: it wraps each traced function and
rebinds every module attribute that refers to the original, so calls made
through ``funnelcap.simulator.eval_dynamics``, ``funnelcap.cli.simulate`` or
``funnelcap.simulate`` all pass through the same wrapper.  Spans are kept in
flat arrays (one entry per finished call) and written out once, at exit.

A span's self time is its duration minus the durations of its direct child
spans.  Calls are synchronous in one thread, so children never overlap and
that difference is the part of the interval no child covers.
"""

from __future__ import annotations

import os
import sys
import time
from array import array

# Layer functions timed as spans: (module, function, size probe).  The size
# probe turns (args, result) into the layer's work count, recorded as the
# metric suffix named by its first element.
SPANS = (
    ("config", "load_scenario", None),
    ("controller", "cascade", None),
    ("plant", "eval_dynamics", None),
    ("simulator", "simulate", ("samples", lambda args, result: result.samples)),
    ("simulator", "monitor", None),
    ("simulator", "write_trajectory_csv", ("bytes", lambda args, result: os.path.getsize(args[1]))),
    ("simulator", "write_events_csv", None),
    ("simulator", "write_monitor_csv", None),
    ("feasibility", "check_feasibility", None),
    ("feasibility", "check_point", None),
    ("feasibility", "feasible_region", ("cells", lambda args, result: result.feasible.size)),
    ("feasibility", "region_to_csv", ("bytes", lambda args, result: os.path.getsize(args[1]))),
)

# Functions only counted: their time already sits inside the callers' spans.
COUNTS = (("funnel", "funnel_value"),)


class Tracer:
    """Span store for one process.  ``request`` tags the spans that follow
    (the scenario or prescription being processed)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_id = array("i")
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.req = array("i")
        self.request = 0
        self.counts: dict[str, int] = {}
        self.sizes: dict[str, float] = {}
        self._stack = [-1]
        self._next = 0

    def wrap(self, name: str, fn, size=None):
        """Return ``fn`` wrapped so that each call records one span."""
        nid = len(self.names)
        self.names.append(name)
        stack = self._stack
        clock = time.perf_counter
        ids, nids, starts, ends, parents, reqs = (
            self.span_id.append, self.name_id.append, self.start.append,
            self.end.append, self.parent.append, self.req.append,
        )
        tracer = self
        size_key, size_fn = (None, None) if size is None else (f"{name}.{size[0]}", size[1])
        if size is not None:
            self.sizes[size_key] = 0

        def wrapper(*args, **kwargs):
            sid = tracer._next
            tracer._next = sid + 1
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                ids(sid)
                nids(nid)
                starts(t0)
                ends(t1)
                parents(parent)
                reqs(tracer.request)
            if size_fn is not None:
                tracer.sizes[size_key] += size_fn(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, name: str, fn):
        """Return ``fn`` wrapped so that each call only bumps a counter."""
        counts = self.counts
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every traced function and rebind it wherever it was imported."""
        import funnelcap
        import funnelcap.cli  # its imported names are rebound too

        # Keyed by id: each wrapper holds its original, so no id is reused.
        wrappers = {}
        for module, func, size in SPANS:
            original = getattr(sys.modules[f"funnelcap.{module}"], func)
            wrappers[id(original)] = self.wrap(f"{module}.{func}", original, size)
        for module, func in COUNTS:
            original = getattr(sys.modules[f"funnelcap.{module}"], func)
            wrappers[id(original)] = self.count(f"{module}.{func}", original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "funnelcap" or mod_name.startswith("funnelcap.")):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    setattr(mod, attr, wrappers[id(value)])
        funnelcap.cli.main = self.wrap("cli.main", funnelcap.cli.main)

    def arrays(self):
        """Spans as numpy arrays indexed by span id."""
        import numpy as np

        order = np.argsort(np.frombuffer(self.span_id, dtype=np.int32), kind="stable")
        return {
            "name": np.frombuffer(self.name_id, dtype=np.int32)[order],
            "start": np.frombuffer(self.start, dtype=np.float64)[order],
            "end": np.frombuffer(self.end, dtype=np.float64)[order],
            "parent": np.frombuffer(self.parent, dtype=np.int32)[order],
            "request": np.frombuffer(self.req, dtype=np.int32)[order],
        }

    def summary(self) -> dict:
        """Per-layer calls, busy and self time, plus the nesting check."""
        import numpy as np

        a = self.arrays()
        dur = a["end"] - a["start"]
        child = a["parent"] >= 0
        covered = np.zeros(dur.size)
        np.add.at(covered, a["parent"][child], dur[child])
        self_s = dur - covered
        nested = bool(
            np.all(a["start"][child] >= a["start"][a["parent"][child]])
            and np.all(a["end"][child] <= a["end"][a["parent"][child]])
        )
        k = len(self.names)
        calls = np.bincount(a["name"], minlength=k)
        busy = np.bincount(a["name"], weights=dur, minlength=k)
        own = np.bincount(a["name"], weights=self_s, minlength=k)
        layers = {}
        for i, name in enumerate(self.names):
            layers[f"{name}.calls"] = int(calls[i])
            layers[f"{name}.busy_s"] = float(busy[i])
            layers[f"{name}.self_s"] = float(own[i])
        for name, n in self.counts.items():
            layers[f"{name}.calls"] = n
        layers.update(self.sizes)
        return {
            "layers": layers,
            "spans": int(dur.size),
            "nested": nested,
            "min_self_s": float(self_s.min()) if self_s.size else 0.0,
        }

    def write(self, path) -> None:
        """Write all spans and the layer names to ``path`` (numpy .npz)."""
        import numpy as np

        np.savez(path, names=np.array(self.names), **self.arrays())
