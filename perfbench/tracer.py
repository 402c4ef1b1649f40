"""Span tracing of harmap's public functions, installed from outside the package.

A :class:`Tracer` replaces each traced function or method with a wrapper
that records one span (kind, start, end, parent) and up to two counters
per call.  Spans are kept in flat typed arrays while the run lasts and
are reduced to per-layer metrics (calls, self time, work counters) or
written to an ``.npz`` file at the end.

Module-level functions are replaced under every name that refers to them
in every ``harmap`` module and in this benchmark's own modules, so
``harmap.verify.membership`` is traced as well as
``harmap.classes.membership``.
"""

from __future__ import annotations

import functools
import sys
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent


def _evaluate_counters(args, kwargs, result):
    series, z = args[0], args[1] if len(args) > 1 else kwargs["z"]
    return float(np.size(z)), float(series.order)


def _size_counter(args, kwargs, result):
    return float(np.size(result)), 0.0


def _make_counter(args, kwargs, result):
    return float(result.order), 0.0


def _file_size_counter(args, kwargs, result):
    return float(Path(result).stat().st_size), 0.0


def targets():
    """(span kind, owner, attribute, counter) for every traced callable.

    Several callables may share a kind; their spans are then reported
    together (``series.coeff_ops``, ``harmonic.operators``).
    """
    from harmap import catalog, classes, geometry, harmonic, render, series

    return [
        ("series.evaluate", series.AnalyticSeries, "evaluate", _evaluate_counters),
        ("series.derivative", series.AnalyticSeries, "derivative", None),
        ("series.coeff_ops", series, "convolve", None),
        ("series.coeff_ops", series, "linear_combine", None),
        ("series.coeff_ops", series, "alexander", None),
        ("geometry.grid.circle", geometry.SamplingGrid, "circle", _size_counter),
        ("geometry.grid.points", geometry.SamplingGrid, "points", _size_counter),
        ("classes.membership", classes, "membership", None),
        ("classes.sample_member", classes, "sample_member", None),
        ("classes.coefficient_bound_check", classes, "coefficient_bound_check", None),
        ("geometry.starlike_margin", geometry, "starlike_margin", None),
        ("geometry.convex_margin", geometry, "convex_margin", None),
        ("geometry.univalent_on_circle", geometry, "univalent_on_circle", None),
        ("geometry.radius_estimate", geometry, "radius_estimate", None),
        ("harmonic.eval_map", harmonic, "eval_map", None),
        ("harmonic.jacobian", harmonic, "jacobian", None),
        ("harmonic.operators", harmonic, "harmonic_convolve", None),
        ("harmonic.operators", harmonic, "tilde_convolve", None),
        ("harmonic.operators", harmonic, "slice_map", None),
        ("harmonic.operators", harmonic, "convex_combination", None),
        ("harmonic.operators", harmonic, "alexander_plus", None),
        ("harmonic.operators", harmonic, "alexander_minus", None),
        ("catalog.make", catalog, "make", _make_counter),
        ("catalog.eval_closed", catalog, "eval_closed", None),
        ("render.render_image", render, "render_image", _file_size_counter),
    ]


def _patchable_modules():
    for name, module in list(sys.modules.items()):
        if module is None:
            continue
        if name == "harmap" or name.startswith("harmap."):
            yield module
            continue
        path = getattr(module, "__file__", None)
        if path and Path(path).resolve().parent == BENCH_DIR:
            yield module


class Tracer:
    """Records nested spans of the wrapped callables while installed."""

    def __init__(self) -> None:
        self.kinds: list[str] = []
        self._kind_ids: dict[str, int] = {}
        self.kind = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.count_a = array("d")
        self.count_b = array("d")
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _kind_id(self, kind: str) -> int:
        if kind not in self._kind_ids:
            self._kind_ids[kind] = len(self.kinds)
            self.kinds.append(kind)
        return self._kind_ids[kind]

    def _wrap(self, kind: str, fn, counter):
        kind_id = self._kind_id(kind)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.kind.append(kind_id)
            self.parent.append(stack[-1] if stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            self.count_a.append(0.0)
            self.count_b.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if counter is not None:
                self.count_a[idx], self.count_b[idx] = counter(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = list(_patchable_modules())
        for kind, owner, attr, counter in targets():
            original = vars(owner)[attr]
            wrapped = self._wrap(kind, original, counter)
            if isinstance(owner, type):
                self._set(owner, attr, wrapped)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, name, wrapped)

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    @property
    def span_count(self) -> int:
        return len(self.start)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "kind": np.frombuffer(self.kind, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "count_a": np.frombuffer(self.count_a, dtype=np.float64).copy(),
            "count_b": np.frombuffer(self.count_b, dtype=np.float64).copy(),
        }

    def write(self, path: Path) -> None:
        """Write all spans, with the kind names, as a compressed ``.npz``."""
        np.savez_compressed(path, kinds=np.array(self.kinds), **self.arrays())


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's length minus the part its child spans cover.

    Spans come from one thread and nest properly, so the children of a
    span never overlap and their lengths can simply be summed.
    """
    length = end - start
    covered = np.zeros_like(length)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], length[has_parent])
    return length - covered


#: kinds reported as ``<kind>.calls`` and ``<kind>.self_s``
CALL_KINDS = (
    "series.evaluate",
    "series.derivative",
    "series.coeff_ops",
    "classes.membership",
    "classes.sample_member",
    "classes.coefficient_bound_check",
    "geometry.starlike_margin",
    "geometry.convex_margin",
    "geometry.univalent_on_circle",
    "geometry.radius_estimate",
    "harmonic.eval_map",
    "harmonic.jacobian",
    "harmonic.operators",
    "catalog.make",
    "catalog.eval_closed",
    "render.render_image",
)
_PROBED = ("geometry.starlike_margin", "geometry.convex_margin", "geometry.univalent_on_circle")
_GRID = ("geometry.grid.circle", "geometry.grid.points")


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics ``name -> (value, unit)`` over all recorded spans.

    Every name is present even when its layer was not called, so each
    workload reports the same set.
    """
    spans = tracer.arrays()
    kind, parent = spans["kind"], spans["parent"]
    own = self_times(parent, spans["start"], spans["end"])
    a, b = spans["count_a"], spans["count_b"]
    ids = {k: i for i, k in enumerate(tracer.kinds)}

    def mask(*kinds: str) -> np.ndarray:
        wanted = [ids[k] for k in kinds if k in ids]
        return np.isin(kind, wanted)

    parent_kind = np.where(parent >= 0, kind[np.maximum(parent, 0)], -1)

    def child_of(child_kinds, parent_kind_name: str) -> np.ndarray:
        if parent_kind_name not in ids:
            return np.zeros(kind.shape, dtype=bool)
        return mask(*child_kinds) & (parent_kind == ids[parent_kind_name])

    out: dict[str, tuple[float, str]] = {}
    for k in CALL_KINDS:
        m = mask(k)
        out[f"{k}.calls"] = (int(m.sum()), "count")
        out[f"{k}.self_s"] = (float(own[m].sum()), "s")

    ev = mask("series.evaluate")
    out["series.evaluate.points"] = (int(a[ev].sum()), "count")
    out["series.evaluate.terms"] = (int((a[ev] * b[ev]).sum()), "count")
    out["series.evaluate.max_order"] = (int(b[ev].max(initial=0)), "count")

    out["geometry.grid.circle_calls"] = (int(mask(_GRID[0]).sum()), "count")
    out["geometry.grid.points_calls"] = (int(mask(_GRID[1]).sum()), "count")
    out["geometry.grid.self_s"] = (float(own[mask(*_GRID)].sum()), "s")

    # grid points a membership call asked for: the outermost grid call it made
    grid_in_membership = child_of(_GRID, "classes.membership")
    out["classes.membership.grid_points"] = (int(a[grid_in_membership].sum()), "count")

    estimates = out["geometry.radius_estimate.calls"][0]
    probes = int(child_of(_PROBED, "geometry.radius_estimate").sum())
    out["geometry.radius_estimate.probes"] = (probes / estimates if estimates else 0.0, "count/call")

    mk = mask("catalog.make")
    out["catalog.make.max_order"] = (int(a[mk].max(initial=0)), "count")
    out["render.render_image.bytes"] = (int(a[mask("render.render_image")].sum()), "bytes")
    out["trace.spans"] = (tracer.span_count, "count")
    return dict(sorted(out.items()))
