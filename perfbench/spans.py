"""Span tracing of the package's layers from outside the package.

``installed(tracer)`` replaces the public functions of each layer module with
timing wrappers for the duration of a ``with`` block and restores them
afterwards; nothing inside ``src/`` changes.  Each call appends a span (name,
parent, start, end, work size) to in-memory arrays.
A layer's self time is its spans' durations minus their child spans'.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
from array import array
from time import perf_counter

import numpy as np


def _eval_bytes(n: int) -> int:
    """Bytes one ``FrequencyIntegrals.eval`` moves, computed from array sizes.

    Six (n, n) float64 matrix x complex128 vector products per time point;
    numpy up-casts the matrix to complex128 on every product: read 8 n^2,
    write 16 n^2, then read 16 n^2 plus the vectors (16 n in, 16 n out).
    """
    return 6 * (40 * n * n + 32 * n)


class Tracer:
    """In-memory span store of one traced job."""

    def __init__(self) -> None:
        self.names: list = []
        self._index: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.size = array("q")
        self._stack = [-1]

    def _name(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def wrap(self, name: str, fn, size=None):
        """``fn`` recording a span named ``name`` per call.

        ``size(args, kwargs, result)`` gives the span's work count (pixels,
        time points, modes or bytes), taken from argument or result shapes.
        """
        nid = self._name(name)
        stack, name_id, parent, start, end, sizes = (
            self._stack, self.name_id, self.parent, self.start, self.end,
            self.size)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            sizes.append(0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if size is not None:
                sizes[idx] = size(args, kwargs, result)
            return result

        return traced

    def summary(self) -> dict:
        """Per span name: ``calls``, ``wall_s``, ``self_s``, ``size_sum`` and
        ``size_max``."""
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        par = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        size = np.frombuffer(self.size, dtype=np.int64)
        child = np.zeros_like(dur)
        has_parent = par >= 0
        np.add.at(child, par[has_parent], dur[has_parent])
        own = dur - child
        out = {}
        for i, name in enumerate(self.names):
            mine = nid == i
            out[name] = {"calls": int(mine.sum()),
                         "wall_s": float(dur[mine].sum()),
                         "self_s": float(own[mine].sum()),
                         "size_sum": int(size[mine].sum()),
                         "size_max": int(size[mine].max(initial=0))}
        return out

    def write(self, path) -> None:
        """Write the spans as gzipped CSV ``id,parent,name,start_s,end_s,size``."""
        with gzip.open(path, "wt", encoding="utf-8", newline="\n") as fh:
            fh.write("id,parent,name,start_s,end_s,size\n")
            for i, (n, p, s, e, z) in enumerate(zip(
                    self.name_id, self.parent, self.start, self.end,
                    self.size)):
                fh.write(f"{i},{p},{self.names[n]},{s!r},{e!r},{z}\n")


def _layer_targets():
    """``(owner, attribute, span name, size)`` for every traced entry point.

    Callers look these names up at call time (module attributes, or names a
    module imported into its own namespace), so replacing the attribute on
    the owner reroutes every call.
    """
    from dipolebounds import cli, detector, fields, fisher, qfi, scenarios

    def pixels(a, kw, r):
        return len(a[0])

    def time_points(a, kw, r):
        return int(np.size(a[2]))

    return [
        (cli, "resolve_config", "cli.resolve_config", None),
        (cli, "emit_outputs", "cli.emit", None),
        (scenarios, "crb_distance_sweep", "scenarios.sweep", None),
        (scenarios, "qfi_time_sweep", "scenarios.sweep", None),
        (scenarios, "size_scaling_sweep", "scenarios.sweep", None),
        (detector, "planar_grid", "detector.planar_grid",
         lambda a, kw, r: r.size),
        (fisher, "fi_matrix", "fisher.fi_matrix", None),
        (fisher, "crb_bounds", "fisher.crb_bounds", None),
        (fisher, "count_gradients", "fisher.count_gradients", None),
        (fisher, "poisson_fi", "fisher.poisson_fi", None),
        (fields, "incident_field", "fields.incident_field", pixels),
        (fields, "scattered_point", "fields.scattered_point", pixels),
        (fields, "scattered_regularized", "fields.scattered_regularized",
         pixels),
        (fields, "intensity_parts", "fields.intensity_parts", None),
        (qfi, "qfi_matrix", "qfi.qfi_matrix", time_points),
        (qfi, "nsc_series", "qfi.nsc_series", time_points),
        (qfi.FrequencyIntegrals, "__init__", "qfi.setup",
         lambda a, kw, r: a[1].grid.size),
        (qfi.FrequencyIntegrals, "eval", "qfi.eval",
         lambda a, kw, r: _eval_bytes(a[0].nodes.size)),
        (qfi, "pv_matrix", "quadrature.pv_matrix", None),
        (qfi, "pv_integral", "quadrature.pv_integral", None),
    ]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route every layer entry point through ``tracer`` inside the block."""
    saved = []
    try:
        for owner, attr, name, size in _layer_targets():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, size))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
