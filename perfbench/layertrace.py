"""Per-layer tracing from outside the package.

``Tracer.install`` replaces each listed public function with a timing
wrapper in every latticejets module that binds it, so calls made through a
``from ... import`` name (``latticejets.screen.slice_points``,
``latticejets.surface2.build_jets``) are caught too. Spans are folded into
in-memory totals as they close: calls, self time (duration minus the time of
nested wrapped calls) and a few work counts. ``uninstall`` puts the
originals back, so traced and untraced rounds can alternate in one process.
Self times are scaled by the host-speed reading the tracer is given, as the
run scales its op times (see hostspeed.py), so they compare across runs.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from functools import wraps
from time import perf_counter

LAYERS = ("linalg", "polytope", "jets", "base_locus", "surface2", "screen", "wps", "cli")

# (layer, metric name, attribute) -- the attribute is looked up in the layer module
FUNCTIONS = (
    ("linalg", "rank", "rank"),
    ("linalg", "solve", "solve"),
    ("linalg", "rref", "rref"),
    ("linalg", "kernel_basis", "kernel_basis"),
    ("linalg", "integral_kernel", "integral_kernel"),
    ("linalg", "smith_normal_form", "smith_normal_form"),
    ("linalg", "complete_to_unimodular", "complete_to_unimodular"),
    ("polytope", "hull", "LatticePolytope.__init__"),
    ("polytope", "lattice_points", "lattice_points"),
    ("polytope", "slice_points", "slice_points"),
    ("polytope", "lattice_width", "lattice_width"),
    ("polytope", "unimodular_image", "unimodular_image"),
    ("jets", "build_jets", "build_jets"),
    ("jets", "fundamental_form", "fundamental_form"),
    ("jets", "is_special", "is_special"),
    ("base_locus", "base_locus_k2", "base_locus_k2"),
    ("base_locus", "is_base_point", "is_base_point"),
    ("base_locus", "is_base_point_via_form", "is_base_point_via_form"),
    ("surface2", "classify", "classify"),
    ("surface2", "teo_dim2_suite", "teo_dim2_suite"),
    ("screen", "corollary_check", "corollary_check"),
    ("screen", "nef_check", "nef_check"),
    ("wps", "screen", "screen"),
    ("wps", "lowest_degree_binomials", "lowest_degree_binomials"),
    ("wps", "width_direction", "width_direction"),
    ("wps", "project_to_3d", "project_to_3d"),
    ("wps", "saturate_generators", "saturate_generators"),
    ("cli", "main", "main"),
)

# work counts taken from return values: name -> (function metric, value of one result)
COUNTS = {
    "polytope.slice_points.points": ("polytope.slice_points", len),
    "polytope.lattice_points.points": ("polytope.lattice_points", len),
    "polytope.lattice_width.certified": ("polytope.lattice_width", lambda r: int(r.certified)),
    "screen.corollary_check.passed": (
        "screen.corollary_check", lambda r: int(r.all_conditions and r.verified)),
    "wps.screen.hits": ("wps.screen", lambda r: int(r.verdict == "nef_not_semiample")),
}


class Tracer:
    def __init__(self, speed=None):
        """``speed`` is a ``hostspeed.HostSpeed`` whose last reading scales each
        self time as it is folded in; without it, times are as measured."""
        self.speed = speed
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._open: list[float] = []  # time of nested wrapped calls, per open span
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        counters = [(count, value) for count, (owner, value) in COUNTS.items() if owner == name]
        open_spans = self._open
        speed = self.speed

        @wraps(fn)
        def wrapper(*args, **kwargs):
            open_spans.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                nested = open_spans.pop()
                self.self_s[name] += (elapsed - nested) * (speed.scale if speed else 1.0)
                self.calls[name] += 1
                if open_spans:
                    open_spans[-1] += elapsed
            for count, value in counters:
                self.counts[count] += value(result)
            return result

        return wrapper

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "latticejets" or n.startswith("latticejets."))]
        for layer, name, attr in FUNCTIONS:
            owner = importlib.import_module(f"latticejets.{layer}")
            if "." in attr:  # a method: patch the class, callers reach it through the instance
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._patch(cls, meth, orig, self._wrap(f"{layer}.{name}", orig))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(f"{layer}.{name}", orig)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is orig:
                        self._patch(module, key, orig, wrapped)

    def _patch(self, target, key, orig, wrapped) -> None:
        setattr(target, key, wrapped)
        self._patched.append((target, key, orig))

    def uninstall(self) -> None:
        for target, key, orig in reversed(self._patched):
            setattr(target, key, orig)
        self._patched.clear()

    def merge(self, totals: dict[str, float]) -> None:
        """Add the ``totals()`` of a tracer in another process, scaling its self times."""
        scale = self.speed.scale if self.speed else 1.0
        for key, value in totals.items():
            layer_fn, _, kind = key.rpartition(".")
            if kind == "self_s":
                self.self_s[layer_fn] += value * scale
            elif kind == "calls":
                self.calls[layer_fn] += value
            else:
                self.counts[key] += value

    def totals(self) -> dict[str, float]:
        out = {}
        for layer, name, _ in FUNCTIONS:
            key = f"{layer}.{name}"
            out[f"{key}.self_s"] = self.self_s[key]
            out[f"{key}.calls"] = self.calls[key]
        for count in COUNTS:
            out[count] = self.counts[count]
        return out
