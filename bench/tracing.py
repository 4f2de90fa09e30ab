"""Spans around the package's public entry points, wired from outside.

``Tracer.install`` finds each traced function by object identity in every
``fareyflats.*`` module namespace (and in the closure cells of the
functions defined there, where ``cli`` keeps its suite drivers), rebinds
each binding to a wrapper, and ``uninstall`` puts every original back.  A
name the package no longer defines is recorded as absent.

Spans are aggregated per (name, parent name): a hot leaf such as
``slopes.distance`` is called millions of times, and aggregation keeps the
trace's memory bounded.  A span's self time is its duration minus the
time its traced children cover.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass
from typing import Callable

PAIR_NAMES = {
    frozenset(["curve"]): "curve_curve",
    frozenset(["curve", "seam"]): "curve_seam",
    frozenset(["seam"]): "seam_seam",
    frozenset(["wave", "seam"]): "wave_seam",
    frozenset(["wave", "curve"]): "wave_curve",
    frozenset(["wave"]): "wave_wave",
}
PIECE_NAMES = {"one_holed_torus": "torus", "four_holed_sphere": "sphere"}

SWEEP_DRIVERS = (
    "identity_sweep",
    "linking_sweep",
    "disjoint_projection_sweep",
    "disjoint_projection_suite",
    "torus_move_suite",
    "sphere_move_suite",
    "couple_trace_suite",
)
SWEEP_SUITES = SWEEP_DRIVERS[3:]


def _pair(name: str, args, kwargs) -> str:
    x = args[0] if args else kwargs["x"]
    y = args[1] if len(args) > 1 else kwargs["y"]
    return f"{name}.{PAIR_NAMES[frozenset((x.kind.value, y.kind.value))]}"


def _piece(name: str, args, kwargs) -> str:
    objects = args[0] if args else kwargs["objects"]
    first = objects[0] if isinstance(objects, (list, tuple)) and objects else None
    return f"{name}.{PIECE_NAMES.get(getattr(getattr(first, 'piece', None), 'value', None), 'unknown')}"


@dataclass(frozen=True)
class Target:
    name: str  # metric prefix
    module: str  # under fareyflats
    path: str  # attribute, or Class.method
    classify: Callable | None = None


TARGETS = (
    Target("slopes.distance", "slopes", "distance"),
    Target("geodesics.FareyGraph.init", "geodesics", "FareyGraph.__init__"),
    Target("geodesics.FareyGraph.bfs", "geodesics", "FareyGraph.bfs"),
    Target("geodesics.geodesics", "geodesics", "geodesics"),
    Target("geodesics.build_ball", "geodesics", "build_ball"),
    Target("geodesics.check_subgraph", "geodesics", "check_subgraph"),
    Target("orbifold.intersection_number", "orbifold", "intersection_number", classify=_pair),
    Target("orbifold.endpoint_linking", "orbifold", "endpoint_linking"),
    Target("ribbon.neighborhood_boundary", "ribbon", "neighborhood_boundary", classify=_piece),
    Target("pieces.projection_identity_report", "pieces", "projection_identity_report"),
    Target("pieces.is_special_couple", "pieces", "is_special_couple"),
    Target("pieces.associated_seam", "pieces", "associated_seam"),
    *(Target(f"sweeps.{d}", "sweeps", d) for d in SWEEP_DRIVERS),
    Target("shadows.random_orthogonal_pair", "shadows", "random_orthogonal_pair"),
    Target("shadows.orthogonality_check", "shadows", "orthogonality_check"),
    Target("shadows.random_path_shadow", "shadows", "random_path_shadow"),
    Target("shadows.audit_projection_bound", "shadows", "audit_projection_bound"),
    Target("flats.certify_flat", "flats", "certify_flat"),
    Target("flats.subproduct_total_geodesy", "flats", "subproduct_total_geodesy"),
    Target("flats.product_distance", "flats", "product_distance"),
    Target("cli.main", "cli", "main"),
)


def _span_labels() -> list[str]:
    labels = []
    for t in TARGETS:
        if t.classify is _pair:
            labels += [f"{t.name}.{p}" for p in PAIR_NAMES.values()]
        elif t.classify is _piece:
            labels += [f"{t.name}.{p}" for p in PIECE_NAMES.values()]
        else:
            labels.append(t.name)
    return labels


def _per_layer_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for label in _span_labels():
        if label.startswith("sweeps."):
            out.append((f"{label}.self_s", "s", "lower"))
        else:
            out.append((f"{label}.calls", "count", "lower"))
            out.append((f"{label}.self_s", "s", "lower"))
    out += [
        ("slopes.distance.memo_entries", "count", "lower"),
        ("geodesics.get_graph.hits", "count", "higher"),
        ("geodesics.get_graph.misses", "count", "lower"),
        ("orbifold.degenerate_raised", "count", "lower"),
        *((f"sweeps.{s}.accept_ratio", "ratio", "higher") for s in SWEEP_SUITES),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
    return out


PER_LAYER = _per_layer_names()


def package_modules() -> list:
    return [
        m
        for name, m in sorted(sys.modules.items())
        if m is not None and (name == "fareyflats" or name.startswith("fareyflats."))
    ]


def _bindings(modules, orig):
    """Every (namespace, name) or closure cell in the package holding orig."""
    found = []
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is orig:
                found.append((mod, key))
            cells = getattr(value, "__closure__", None)
            if cells and not getattr(value, "__bench_wrapper__", False):
                for cell in cells:
                    try:
                        held = cell.cell_contents
                    except ValueError:  # empty cell
                        continue
                    if held is orig:
                        found.append((cell, None))
    return found


class Tracer:
    def __init__(self):
        self.stack: list[list] = []
        self.agg: dict[tuple[str, str | None], list] = {}
        self.degenerate_raised = 0
        self.absent: list[str] = []
        self.bindings: list[tuple] = []  # (holder, key, original)

    def install(self) -> "Tracer":
        from fareyflats.orbifold import DegenerateRealization

        self._degenerate = DegenerateRealization
        modules = package_modules()
        for target in TARGETS:
            mod = sys.modules.get(f"fareyflats.{target.module}")
            owner_name, _, method = target.path.rpartition(".")
            if owner_name:
                owner = getattr(mod, owner_name, None)
                orig = vars(owner).get(method) if isinstance(owner, type) else None
                found = [(owner, method)] if orig is not None else []
            else:
                orig = getattr(mod, method, None)
                found = _bindings(modules, orig) if orig is not None else []
            if not found:
                self.absent.append(target.name)
                continue
            wrapper = self._wrap(target, orig)
            for holder, key in found:
                self._rebind(holder, key, wrapper)
                self.bindings.append((holder, key, orig))
        return self

    def uninstall(self) -> None:
        for holder, key, orig in reversed(self.bindings):
            self._rebind(holder, key, orig)
        self.bindings.clear()

    @staticmethod
    def _rebind(holder, key, value) -> None:
        if key is None:
            holder.cell_contents = value
        else:
            setattr(holder, key, value)

    def _wrap(self, target: Target, orig):
        stack, agg, clock = self.stack, self.agg, time.perf_counter
        name, classify = target.name, target.classify
        degenerate = self._degenerate

        def wrapper(*args, **kwargs):
            label = classify(name, args, kwargs) if classify else name
            parent = stack[-1] if stack else None
            frame = [label, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return orig(*args, **kwargs)
            except degenerate as exc:
                if not getattr(exc, "_bench_counted", False):
                    exc._bench_counted = True
                    self.degenerate_raised += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                duration = t1 - t0
                parent_label = parent[0] if parent else None
                rec = agg.get((label, parent_label))
                if rec is None:
                    rec = agg[(label, parent_label)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += duration
                rec[2] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration

        functools.update_wrapper(wrapper, orig)
        wrapper.__bench_wrapper__ = True
        return wrapper

    def totals(self) -> dict[str, tuple[int, float]]:
        """Calls and self time per span name, summed over parents."""
        out: dict[str, list] = {}
        for (label, _), (calls, _, self_s) in self.agg.items():
            rec = out.setdefault(label, [0, 0.0])
            rec[0] += calls
            rec[1] += self_s
        return {k: (v[0], v[1]) for k, v in out.items()}

    def dump(self) -> dict:
        return {
            "aggregated": [
                {"name": label, "parent": parent, "calls": c, "total_s": tot, "self_s": s}
                for (label, parent), (c, tot, s) in sorted(
                    self.agg.items(), key=lambda kv: (kv[0][0], kv[0][1] or "")
                )
            ],
            "degenerate_raised": self.degenerate_raised,
            "absent": self.absent,
        }


def span_metrics(totals: dict[str, tuple[int, float]]) -> dict[str, float]:
    """The .calls and .self_s entries of PER_LAYER from span totals."""
    out = {}
    for name, _, _ in PER_LAYER:
        label, _, kind = name.rpartition(".")
        if kind == "calls":
            out[name] = totals.get(label, (0, 0.0))[0]
        elif kind == "self_s":
            out[name] = totals.get(label, (0, 0.0))[1]
    return out
