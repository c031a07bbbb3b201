"""Spans and counts around parset's layer primitives, recorded from outside.

The tracer replaces each primitive below with a wrapper on its module (the
program looks them up through the module at call time), records a span with
its parent and the counts derived from the arguments and result, and puts
the originals back on uninstall.  Spans stay in memory until ``dump``.  A
primitive missing from the code under test is listed as absent; its metrics
read 0.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager


def _min_dist_counts(args, kwargs, out):
    points, base = args[0], args[1]
    return {"points": len(points), "pairs": len(points) * len(base)}


def _raster_counts(args, kwargs, out):
    grid = args[3] if len(args) > 3 else kwargs.get("grid", 4096)
    return {"lattice_points": grid * grid}


def _mc_counts(args, kwargs, out):
    cfg = next(a for a in (*args, *kwargs.values()) if hasattr(a, "samples"))
    return {"samples": cfg.samples}


def _angle_counts(args, kwargs, out):
    return {"samples": kwargs["directions"] if "directions" in kwargs else args[3]}


def _weighted_counts(args, kwargs, out):
    mu, nu, r = args[0], args[1], args[2]
    x, y = mu.points.points, nu.points.points
    d2 = ((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=2)
    return {"edges": int((d2 <= (2.0 * r) ** 2).sum())}


def _log_density_counts(args, kwargs, out):
    gm, x = args[0], args[1]
    return {"evals": len(x) * len(gm.weights)}


# (module, attribute, span name, counts from (args, kwargs, result))
PRIMITIVES = (
    ("parset._kernels", "min_dist", "kernels.min_dist", _min_dist_counts),
    ("parset._kernels", "hopcroft_karp", "kernels.hopcroft_karp",
     lambda a, k, out: {"matched": int(out[0])}),
    ("parset.exact2d", "rasterized_measures", "exact2d.rasterized_measures", _raster_counts),
    ("parset.exact2d", "disk_union_boundary", "exact2d.disk_union_boundary",
     lambda a, k, out: {"arcs": len(out.arcs)}),
    ("parset.exact2d", "square_union_boundary", "exact2d.square_union_boundary",
     lambda a, k, out: {"segments": len(out.segments)}),
    ("parset.exact2d", "square_union_area", "exact2d.square_union_area", None),
    ("parset.mc", "mc_volume", "mc.estimators", _mc_counts),
    ("parset.mc", "mc_shell_lebesgue", "mc.estimators", _mc_counts),
    ("parset.mc", "mc_gaussian_shell", "mc.estimators", _mc_counts),
    ("parset.mc", "mc_gaussian_measure", "mc.estimators", _mc_counts),
    ("parset.mc", "kneser_shell_check", "mc.estimators", _mc_counts),
    ("parset.mc", "cap_solid_angle_fractions", "mc.estimators", _angle_counts),
    ("parset.transport", "_threshold_csr", "transport.threshold_graph",
     lambda a, k, out: {"edges": len(out[1])}),
    ("parset.transport", "d_r_weighted", "transport.d_r_weighted", _weighted_counts),
    ("parset.transport", "w1_empirical", "transport.w1_empirical", None),
    ("parset.entropy", "_log_density", "entropy.log_density", _log_density_counts),
    ("parset.entropy", "_score_batch", "entropy.score", None),
    ("parset.entropy", "entropy_quadrature", "entropy.quadrature", None),
    ("parset.geometry", "load_points", "geometry.load_points", None),
    ("parset.cli", "load_points", "geometry.load_points", None),
)

# per-layer metric -> (span name, "s" inclusive | "self_s" | "calls" | count key)
LAYER_METRICS = {
    "kernels.min_dist.s": ("kernels.min_dist", "s"),
    "kernels.min_dist.calls": ("kernels.min_dist", "calls"),
    "kernels.min_dist.points": ("kernels.min_dist", "points"),
    "kernels.min_dist.pairs": ("kernels.min_dist", "pairs"),
    "exact2d.rasterized_measures.self_s": ("exact2d.rasterized_measures", "self_s"),
    "exact2d.rasterized_measures.lattice_points": ("exact2d.rasterized_measures", "lattice_points"),
    "exact2d.disk_union_boundary.s": ("exact2d.disk_union_boundary", "s"),
    "exact2d.disk_union_boundary.calls": ("exact2d.disk_union_boundary", "calls"),
    "exact2d.disk_union_boundary.arcs": ("exact2d.disk_union_boundary", "arcs"),
    "exact2d.square_union_boundary.s": ("exact2d.square_union_boundary", "s"),
    "exact2d.square_union_boundary.calls": ("exact2d.square_union_boundary", "calls"),
    "exact2d.square_union_boundary.segments": ("exact2d.square_union_boundary", "segments"),
    "exact2d.square_union_area.s": ("exact2d.square_union_area", "s"),
    "mc.estimators.self_s": ("mc.estimators", "self_s"),
    "mc.samples": ("mc.estimators", "samples"),
    "transport.threshold_graph.s": ("transport.threshold_graph", "s"),
    "transport.threshold_graph.edges": ("transport.threshold_graph", "edges"),
    "kernels.hopcroft_karp.s": ("kernels.hopcroft_karp", "s"),
    "kernels.hopcroft_karp.calls": ("kernels.hopcroft_karp", "calls"),
    "kernels.hopcroft_karp.matched": ("kernels.hopcroft_karp", "matched"),
    "transport.d_r_weighted.s": ("transport.d_r_weighted", "s"),
    "transport.d_r_weighted.calls": ("transport.d_r_weighted", "calls"),
    "transport.d_r_weighted.edges": ("transport.d_r_weighted", "edges"),
    "transport.w1_empirical.s": ("transport.w1_empirical", "s"),
    "entropy.log_density.s": ("entropy.log_density", "s"),
    "entropy.log_density.evals": ("entropy.log_density", "evals"),
    "entropy.score.s": ("entropy.score", "s"),
    "entropy.quadrature.s": ("entropy.quadrature", "s"),
    "geometry.load_points.s": ("geometry.load_points", "s"),
}

_CONTEXT_PREFIXES = ("op.", "suite.check.")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [id, parent, name, t0, t1, counts]
        self.absent: list[str] = []
        self.overhead_s = 0.0  # time spent in wrappers outside the wrapped calls
        self._stack: list[int] = []
        self._restore: list = []

    @contextmanager
    def span(self, name: str):
        rec = [len(self.spans), self._stack[-1] if self._stack else None, name,
               time.perf_counter(), 0.0, None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        try:
            yield rec
        finally:
            rec[4] = time.perf_counter()
            self._stack.pop()

    def _wrapped(self, fn, name, counts):
        def wrapper(*args, **kwargs):
            entered = time.perf_counter()
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
            if counts is not None:
                rec[5] = counts(args, kwargs, out)
            self.overhead_s += time.perf_counter() - entered - (rec[4] - rec[3])
            return out

        return wrapper

    def install(self, checks: dict | None = None) -> None:
        """Wrap every primitive, plus each entry of a suite CHECKS table."""
        for module_name, attr, name, counts in PRIMITIVES:
            try:
                fn = getattr(importlib.import_module(module_name), attr, None)
            except ModuleNotFoundError:
                fn = None
            if fn is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            module = importlib.import_module(module_name)
            self._restore.append((module, attr, fn))
            setattr(module, attr, self._wrapped(fn, name, counts))
        for check, fn in (checks or {}).items():
            self._restore.append((checks, check, fn))
            checks[check] = self._wrapped(fn, f"suite.check.{check}", None)

    def uninstall(self) -> None:
        for owner, key, fn in reversed(self._restore):
            if isinstance(owner, dict):
                owner[key] = fn
            else:
                setattr(owner, key, fn)
        self._restore.clear()

    def summary(self) -> dict:
        """Per span name: inclusive s (outermost spans only), self_s, calls, counts."""
        child_time = defaultdict(float)
        for _, parent, _, t0, t1, _ in self.spans:
            if parent is not None:
                child_time[parent] += t1 - t0
        out = defaultdict(lambda: defaultdict(float))
        for sid, parent, name, t0, t1, counts in self.spans:
            agg = out[name]
            agg["calls"] += 1
            agg["self_s"] += (t1 - t0) - child_time[sid]
            if not self._has_ancestor(parent, name):
                agg["s"] += t1 - t0
            for key, value in (counts or {}).items():
                agg[key] += value
        return out

    def _has_ancestor(self, parent, name) -> bool:
        while parent is not None:
            if self.spans[parent][2] == name:
                return True
            parent = self.spans[parent][1]
        return False

    def layer_seconds(self) -> float:
        """Time inside layer spans that no other layer span encloses."""
        def is_layer(name):
            return not name.startswith(_CONTEXT_PREFIXES)

        total = 0.0
        for _, parent, name, t0, t1, _ in self.spans:
            if not is_layer(name):
                continue
            while parent is not None and not is_layer(self.spans[parent][2]):
                parent = self.spans[parent][1]
            if parent is None:
                total += t1 - t0
        return total

    def layer_metrics(self) -> dict[str, float]:
        summary = self.summary()
        return {
            metric: float(summary[name][field]) if name in summary else 0.0
            for metric, (name, field) in LAYER_METRICS.items()
        }

    def dump(self, path, extra: dict) -> None:
        keys = ("id", "parent", "name", "start_s", "end_s", "counts")
        payload = dict(extra, absent=self.absent,
                       spans=[dict(zip(keys, rec)) for rec in self.spans])
        with open(path, "w") as fh:
            json.dump(payload, fh)
