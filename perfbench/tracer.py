"""In-memory span tracer for the benchmark's traced run.

The tracer wraps library functions from the outside: each wrapper is put on
every name that binds the function in a ``scopesets`` module, because
``from .x import f`` copies the binding.  A wrapper records one span (id,
parent id, operation id, name, start, end) and accumulates calls and self
time, where self time is the span's duration minus the time its child spans
cover.  Counting hooks on ``IndexSet.__init__``, ``Field.__post_init__``,
``Rng.generator`` and ``numpy.linalg.eigh`` add counts without spans.

Nothing here runs unless a traced run installs it; untraced runs never import
a wrapper.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import sys
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# Functions whose calls and self time are recorded, as "<module>.<function>".
TRACED = (
    "dist.t_cdf",
    "sim.run_simulation",
    "quantile.iid_quantile",
    "quantile.mc_oracle_quantile",
    "quantile.multiplier_bootstrap_quantile",
    "hypotests.hommel_adjust",
    "hypotests.bh_reject_mask",
    "hypotests.t_pvalues",
    "hypotests.lrt",
    "hypotests.let_",
    "insig.insig_report",
    "preimage.plugin_preimage_sets",
    "preimage.resolve_k",
    "excursion.partition3",
    "excursion.contour_regions",
    "excursion.scope_event",
    "domain.load_field",
    "scheffe.extract_limit_cdf",
    "cli.main",
)

# Counts kept per operation: (metric name, unit).
COUNTS = (
    ("dist.rng_streams", "count/op"),
    ("sim.draw_bytes", "B/op"),
    ("quantile.eigh_calls", "count/op"),
    ("domain.index_sets_built", "count/op"),
    ("domain.fields_built", "count/op"),
)

# Solvers whose working matrix is (chunk rows) x |union of the touch sets|;
# the value names the argument that carries the sets.
_CHUNKED = {
    "quantile.mc_oracle_quantile": ("neg_set", "pos_set"),
    "quantile.multiplier_bootstrap_quantile": ("sets",),
}


def _union_size(fn, names, args, kwargs) -> int:
    try:
        bound = inspect.signature(fn).bind(*args, **kwargs).arguments
        if names == ("sets",):
            sets = bound["sets"]
            parts = (sets.plus, sets.minus)
        else:
            parts = tuple(bound[n] for n in names)
        return int(np.union1d(*(p.members for p in parts)).size)
    except (TypeError, KeyError, AttributeError):
        return 0


class _DrawRecorder:
    """Generator stand-in that reports the size of every array it draws."""

    __slots__ = ("_gen", "_tracer")

    def __init__(self, gen, tracer):
        self._gen = gen
        self._tracer = tracer

    def __getattr__(self, attr):
        value = getattr(self._gen, attr)
        if not callable(value):
            return value

        def draw(*args, **kwargs):
            out = value(*args, **kwargs)
            if isinstance(out, np.ndarray):
                self._tracer.drew(out)
            return out

        return draw


class Tracer:
    """Spans and counts for one traced phase of a run."""

    def __init__(self, span_cap: int = 50_000):
        self.stats = {name: [0, 0.0] for name in TRACED}
        self.counts = {name: 0 for name, _ in COUNTS}
        self.chunk_bytes_max = 0
        self.spans = []
        self.span_cap = span_cap
        self.dropped = 0
        self.missing = []
        self.op = 0
        self._stack = []  # frames: [id, parent, start, child_s, name, union]
        self._next_id = 0
        self._undo = []

    # --- spans -----------------------------------------------------------

    def _enter(self, name: str, union: int = 0) -> list:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        frame = [sid, parent, perf_counter(), 0.0, name, union]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, stat: list | None) -> None:
        end = perf_counter()
        self._stack.pop()
        dur = end - frame[2]
        if stat is not None:
            stat[0] += 1
            stat[1] += dur - frame[3]
        if self._stack:
            self._stack[-1][3] += dur
        if len(self.spans) < self.span_cap:
            self.spans.append((frame[0], frame[1], self.op, frame[4], frame[2], end))
        else:
            self.dropped += 1

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around calls into a layer."""
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame, None)

    def drew(self, arr: np.ndarray) -> None:
        if not self._stack:
            return
        frame = self._stack[-1]
        if frame[4] == "sim.run_simulation":
            self.counts["sim.draw_bytes"] += arr.nbytes
        elif frame[4] in _CHUNKED and arr.ndim >= 1:
            rows = int(arr.shape[0])
            self.chunk_bytes_max = max(self.chunk_bytes_max, rows * frame[5] * 8)

    # --- installation ----------------------------------------------------

    def _patch(self, obj, attr: str, value) -> None:
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def _wrap(self, name: str, fn):
        tracer = self
        stat = self.stats[name]
        chunked = _CHUNKED.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            union = _union_size(fn, chunked, args, kwargs) if chunked else 0
            frame = tracer._enter(name, union)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(frame, stat)

        return traced

    def _count_calls(self, counter: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Put wrappers on every binding of the traced functions."""
        import scopesets

        modules = [scopesets] + [
            importlib.import_module(f"scopesets.{m.name}")
            for m in pkgutil.iter_modules(scopesets.__path__)
        ]
        for name in TRACED:
            mod_name, fn_name = name.split(".")
            mod = sys.modules.get(f"scopesets.{mod_name}")
            fn = getattr(mod, fn_name, None)
            if fn is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, fn)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        self._patch(m, attr, wrapper)

        domain = sys.modules["scopesets.domain"]
        dist = sys.modules["scopesets.dist"]
        hooks = (
            (getattr(domain, "IndexSet", None), "__init__", "domain.index_sets_built"),
            (getattr(domain, "Field", None), "__post_init__", "domain.fields_built"),
            (np.linalg, "eigh", "quantile.eigh_calls"),
        )
        for obj, attr, counter in hooks:
            if obj is None or not hasattr(obj, attr):
                self.missing.append(counter)
                continue
            self._patch(obj, attr, self._count_calls(counter, getattr(obj, attr)))

        rng_cls = getattr(dist, "Rng", None)
        if rng_cls is None or not hasattr(rng_cls, "generator"):
            self.missing.append("dist.rng_streams")
        else:
            make = rng_cls.generator
            tracer = self

            @functools.wraps(make)
            def generator(rng):
                tracer.counts["dist.rng_streams"] += 1
                return _DrawRecorder(make(rng), tracer)

            self._patch(rng_cls, "generator", generator)

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, old = self._undo.pop()
            setattr(obj, attr, old)

    # --- output ----------------------------------------------------------

    def metrics(self, ops: int, speed: float) -> dict:
        """Per-operation layer metrics: {name: (value, unit)}.

        ``speed`` rescales self times to nominal speed, as the runner does
        for stage times.
        """
        ops = max(1, ops)
        out = {}
        for name in TRACED:
            calls, self_s = self.stats[name]
            out[f"{name}.calls"] = (calls / ops, "count/op")
            out[f"{name}.self_s"] = (self_s * speed / ops, "s/op")
        for name, unit in COUNTS:
            out[name] = (self.counts[name] / ops, unit)
        out["quantile.chunk_bytes_max"] = (float(self.chunk_bytes_max), "B")
        return out

    def write_spans(self, path) -> None:
        """Write the kept spans as JSON lines, one span per line."""
        with open(path, "w") as fh:
            for sid, parent, op, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op,
                                     "name": name, "start": start, "end": end}) + "\n")
