"""Span tracing of lengrp's public functions, installed from outside.

``Tracer.install()`` replaces every public function of the layer modules at
every namespace that holds it (``lengrp.finite_order`` and
``lengrp.spectral.finite_order`` as well as ``lengrp.matrices.finite_order``),
plus a few methods as class attributes.  No file of the package changes.

Each call becomes a span (name, start, end, parent) kept in memory, timed on
``time.perf_counter`` like the end-to-end metrics; self time is the span's
duration minus the time covered by its child spans, summed online so the
numbers stay exact when the span list is capped.  Hot methods
that are generators or called hundreds of thousands of times (``neighbors``,
``mat_pow``) are counted, not spanned.
"""
from __future__ import annotations

import importlib
import inspect
import json
import resource
import time
from collections import defaultdict

LAYERS = ("polynomials", "matrices", "spectral", "groups", "lengths", "classify", "cli")
SPAN_CAP = 200_000


def import_times(stderr: str) -> dict[str, float]:
    """Cumulative seconds per imported module from ``-X importtime`` output."""
    out: dict[str, float] = {}
    for line in stderr.splitlines():
        parts = line[len("import time:"):].split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
            out.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
    return out


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.dropped = 0
        self.phase = "setup"
        # stats[phase][name] = [calls, total_s, self_s]
        self.stats = {"setup": defaultdict(lambda: [0, 0.0, 0.0]),
                      "run": defaultdict(lambda: [0, 0.0, 0.0])}
        self.counters = {"setup": defaultdict(float), "run": defaultdict(float)}
        self.bfs_ball_peak_mb = 0.0
        self._stack: list[list] = []  # [name, start, child_time, span index]
        self._active: dict[str, int] = defaultdict(int)

    # -- recording ---------------------------------------------------------

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[self.phase][key] += amount

    def _enter(self, name: str) -> list:
        parent = self._stack[-1][3] if self._stack else -1
        idx = -1
        if len(self.spans) < SPAN_CAP:
            idx = len(self.spans)
            self.spans.append((name, 0.0, 0.0, parent))
        else:
            self.dropped += 1
        frame = [name, time.perf_counter(), 0.0, idx]
        self._stack.append(frame)
        self._active[name] += 1
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        name, start, child, idx = frame
        self._stack.pop()
        self._active[name] -= 1
        dur = end - start
        if idx >= 0:
            self.spans[idx] = (name, start, end, self.spans[idx][3])
        st = self.stats[self.phase][name]
        st[0] += 1
        st[1] += dur
        st[2] += dur - child
        if self._stack:
            self._stack[-1][2] += dur

    def active(self, name: str) -> bool:
        return self._active[name] > 0

    def span(self, name: str, fn, after=None):
        def traced(*args, **kwargs):
            frame = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def counted(self, name: str, fn, also=None):
        def traced(*args, **kwargs):
            self.count(name + ".calls")
            if also is not None:
                also()
            return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap lengrp's public functions everywhere they are bound."""
        import lengrp

        modules = [lengrp] + [importlib.import_module(f"lengrp.{m}") for m in LAYERS]
        specials = {
            "groups.bfs_ball": self._bfs_ball,
            "lengths.unit_eigen_seminorm": self._seminorm,
            "classify.build_dossier": self._dossier,
        }
        for layer in LAYERS:
            mod = importlib.import_module(f"lengrp.{layer}")
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                make = specials.get(name)
                wrapped = make(name, fn) if make else self.span(name, fn)
                for holder in modules:
                    if vars(holder).get(attr) is fn:
                        setattr(holder, attr, wrapped)

        from lengrp.groups import HeisenbergGroup, SdpGroup
        from lengrp.lengths import HeisWordOracle
        from lengrp.matrices import IntMatrix

        def in_finite_order():
            if self.active("matrices.finite_order"):
                self.count("matrices.finite_order.mat_pow_calls")

        IntMatrix.mat_pow = self.counted("matrices.IntMatrix.mat_pow",
                                         IntMatrix.mat_pow, also=in_finite_order)
        HeisenbergGroup.neighbors = self.counted("groups.HeisenbergGroup.neighbors",
                                                 HeisenbergGroup.neighbors)
        SdpGroup.neighbors = self.counted("groups.SdpGroup.neighbors", SdpGroup.neighbors)

        def path_hit(result):
            self.count(f"lengths.{result.path}_hits")

        HeisWordOracle.word_length = self.span("lengths.HeisWordOracle.word_length",
                                               HeisWordOracle.word_length, after=path_hit)

    def _bfs_ball(self, name, fn):
        """Span plus stored states and peak memory growth of each call.

        Memory is the rise of the process's peak RSS across the call:
        tracemalloc would slow the call several-fold and distort its time.
        """
        inner = self.span(name, fn)

        def traced(*args, **kwargs):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            table = inner(*args, **kwargs)
            grown = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024
            self.bfs_ball_peak_mb = max(self.bfs_ball_peak_mb, grown)
            self.count("groups.bfs_ball.states", table.ball_size)
            return table

        traced.__wrapped__ = fn
        return traced

    def _seminorm(self, name, fn):
        """Span the build, and span every evaluation of the returned seminorm."""
        def after(evaluator):
            evaluator.func = self.span("lengths.seminorm_eval", evaluator.func)

        return self.span(name, fn, after=after)

    def _dossier(self, name, fn):
        def after(dossier):
            table = dossier.evidence.get("stable_length") or {}
            self.count("classify.estimates", len(table))
            self.count("classify.partial_entries",
                       sum(1 for entry in table.values() if entry.get("partial")))

        return self.span(name, fn, after=after)

    # -- output ------------------------------------------------------------

    def summary(self) -> dict:
        return {
            "stats": {phase: {k: list(v) for k, v in d.items()}
                      for phase, d in self.stats.items()},
            "counters": {phase: dict(d) for phase, d in self.counters.items()},
            "bfs_ball_peak_mb": self.bfs_ball_peak_mb,
            "spans": len(self.spans),
            "dropped": self.dropped,
        }

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "dropped": self.dropped, "spans": self.spans}, fh)
