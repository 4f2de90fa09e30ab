"""Boundary components of regular neighborhoods of object unions.

Given objects on one piece together with a set of included boundary
labels, this module builds the fattened graph of their union (crossings
become 4-valent vertices, ends at included labels merge into a fat vertex
at the cone point, other ends stay loose) and walks its boundary.  Every
component comes back classified as a curve, seam, wave, or an inessential
(boundary-parallel) circle, with the class computed from the developed
holonomy of the walk, not from any formula.

The walk happens on exact plane lifts, in the integer units of 1/L of the
configuration's realization context (see ``orbifold``).  The crossings
are the events of orbifold's integer kernel, each located on both
objects' fundamental segments together with the deck map between their
charts; their number is checked against the context's ``count``.  A
closed curve's segment is one period, half open at its anchor.  Each
boundary component, arc or circle, is one orbit of the successor map on
darts (directed edges).  Each step carries an affine deck map
x -> +-x + t; crossing a closed curve's period seam composes a
translation, and swinging around a cone point may compose a point
reflection.  On the pillowcase the rotation at a fat vertex uses both
lifts of every attached strand (the cone angle is pi, so a full upstairs
turn is two downstairs turns); ray directions use the exact offset
vectors of the strands, which the realization constants keep pairwise
non-parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from typing import Iterable, Sequence

from .orbifold import (
    CORNER_LABELS,
    DegenerateRealization,
    IntPoint,
    ObjectKind,
    PieceKind,
    PieceObject,
    RealizationContext,
    TORUS_MARK,
    curve,
    partner_label,
    seam,
    wave,
    _angle_cmp_from,
    _corner_units,
    _crossing_events,
    _fund,
    _fund_ends,
)
from .slopes import Slope, slope_from_direction


def _add(a: IntPoint, b: IntPoint) -> IntPoint:
    return (a[0] + b[0], a[1] + b[1])


def _sub(a: IntPoint, b: IntPoint) -> IntPoint:
    return (a[0] - b[0], a[1] - b[1])


def _neg(a: IntPoint) -> IntPoint:
    return (-a[0], -a[1])


@dataclass(frozen=True)
class AffineMap:
    """x -> sign*x + shift with sign in {+1, -1}."""

    sign: int
    shift: IntPoint

    def __call__(self, pt: IntPoint) -> IntPoint:
        return (self.sign * pt[0] + self.shift[0], self.sign * pt[1] + self.shift[1])

    def vec(self, v: IntPoint) -> IntPoint:
        return (self.sign * v[0], self.sign * v[1])

    def compose(self, other: "AffineMap") -> "AffineMap":
        # (self o other)(x) = self(other(x))
        return AffineMap(
            sign=self.sign * other.sign,
            shift=_add(self.vec(other.shift), self.shift),
        )

    def inverse(self) -> "AffineMap":
        return AffineMap(sign=self.sign, shift=self.vec(_neg(self.shift)))


IDENTITY = AffineMap(1, (0, 0))


@dataclass
class _End:
    """A loose or attached end of an object's fundamental segment."""

    which: int  # 0 = segment start, 1 = segment end
    label: str
    corner_point: IntPoint  # conceptual cone-point lift in fund coordinates
    strand_point: IntPoint  # actual segment endpoint
    direction: IntPoint  # into the strand, away from the cone point
    edge: tuple[int, bool] | None = None  # (edge id, leaves this end)


def _object_ends(
    obj: PieceObject, seg: tuple[IntPoint, IntPoint], scale: int
) -> list[_End]:
    if obj.kind is ObjectKind.CURVE:
        return []
    a, b = seg
    d = _sub(b, a)
    if obj.kind is ObjectKind.WAVE:
        lift0 = _corner_units(obj.endpoints[0], scale)
        far = _add(lift0, (scale * obj.slope.q, scale * obj.slope.p))
        return [
            _End(0, obj.endpoints[0], lift0, a, d),
            _End(1, obj.endpoints[0], far, b, _neg(d)),
        ]
    labels = obj.endpoints
    return [
        _End(0, labels[0], a, a, d),
        _End(1, labels[1], b, b, _neg(d)),
    ]


@dataclass(frozen=True)
class BoundaryComponent:
    """One boundary circle or arc of the fattened union."""

    kind: str  # "curve" | "seam" | "wave" | "inessential"
    object: PieceObject | None
    labels: tuple[str, ...]
    dart_count: int

    def sort_key(self):
        okey = self.object.sort_key() if self.object else ("", (0, 0, 0), (), "")
        return (self.kind, okey, self.labels, self.dart_count)


class _Walk:
    def __init__(
        self,
        objects: Sequence[PieceObject],
        include_labels: frozenset[str],
        ctx: RealizationContext,
    ):
        self.objects = list(objects)
        self.labels = include_labels
        self.ctx = ctx
        self.piece = ctx.piece
        # fundamental segments and their directions, in units of 1/ctx.scale
        self.segments = [_fund(o, ctx, i) for i, o in enumerate(self.objects)]
        self.dirs = [_sub(b, a) for a, b in self.segments]
        # node tables: loose ends, and the ends attached at each welded label
        self.crossings: list[dict] = []
        self.terminals: list[_End] = []
        self.fats: dict[str, list[_End]] = {lab: [] for lab in sorted(include_labels)}
        # per-object ordered event list: (t, node_ref) with node_ref
        # ("x", idx, side) side in {"i","j"} / ("t", idx) / ("f", label, att_idx)
        self.timeline: list[list] = [[] for _ in self.objects]
        self.edges: list[dict] = []

    # -- construction ------------------------------------------------------

    def build(self):
        self._find_crossings()
        self._place_ends()
        self._make_edges()

    def _find_crossings(self):
        """Crossings of fund(i) with the full preimage of each later object j.

        Each event's deck maps fund(j) coordinates into fund(i)'s chart.
        """
        n = len(self.objects)
        for i in range(n):
            a, b = self.segments[i]
            strand = [(a, b, _fund_ends(self.objects[i]))]
            for j in range(i + 1, n):
                events = _crossing_events(
                    self.objects[i], strand, self.objects[j], self.segments[j], self.ctx
                )
                expected = self.ctx.count(i, j)
                if len(events) != expected:
                    raise AssertionError(
                        f"event count {len(events)} for {self.objects[i]} vs "
                        f"{self.objects[j]} disagrees with the oracle {expected}"
                    )
                for t_i, t_j, (sign, shift) in events:
                    idx = len(self.crossings)
                    self.crossings.append(
                        {"i": i, "j": j, "deck": AffineMap(sign, shift)}
                    )
                    self.timeline[i].append((Fraction(*t_i), ("x", idx, "i")))
                    self.timeline[j].append((Fraction(*t_j), ("x", idx, "j")))

    def _place_ends(self):
        for idx, obj in enumerate(self.objects):
            for end in _object_ends(obj, self.segments[idx], self.ctx.scale):
                t = Fraction(end.which)
                if end.label in self.labels:
                    att_list = self.fats[end.label]
                    self.timeline[idx].append((t, ("f", end.label, len(att_list))))
                    att_list.append(end)
                else:
                    self.timeline[idx].append((t, ("t", len(self.terminals))))
                    self.terminals.append(end)

    def _make_edges(self):
        for idx, obj in enumerate(self.objects):
            events = sorted(self.timeline[idx], key=lambda e: e[0])
            params = [t for t, _ in events]
            if len(set(params)) != len(params):
                raise DegenerateRealization(
                    "three strands meet at one point; the walk needs a "
                    "configuration in general position"
                )
            if obj.kind is ObjectKind.CURVE:
                if not events:
                    continue  # isolated loop, handled separately
                w = self.dirs[idx]
                for k in range(len(events)):
                    nxt = (k + 1) % len(events)
                    wrap = nxt == 0
                    self._add_edge(
                        events[k],
                        events[nxt],
                        deck=AffineMap(1, w) if wrap else IDENTITY,
                    )
            else:
                if len(events) < 2:
                    raise AssertionError("open object with fewer than two ends")
                for k in range(len(events) - 1):
                    self._add_edge(events[k], events[k + 1], deck=IDENTITY)

    def _add_edge(self, ev_from, ev_to, deck: AffineMap):
        edge_id = len(self.edges)
        self.edges.append({"from": ev_from[1], "to": ev_to[1], "deck": deck})
        self._register(ev_from[1], edge_id, outgoing=True)
        self._register(ev_to[1], edge_id, outgoing=False)

    def _register(self, node_ref, edge_id: int, outgoing: bool):
        kind = node_ref[0]
        if kind == "x":
            node = self.crossings[node_ref[1]]
            side = node_ref[2]
            key = f"{side}{'+' if outgoing else '-'}"
            if key in node:
                raise AssertionError("crossing slot filled twice")
            node[key] = edge_id
        elif kind == "t":
            self.terminals[node_ref[1]].edge = (edge_id, outgoing)
        else:
            self.fats[node_ref[1]][node_ref[2]].edge = (edge_id, outgoing)

    # -- tracing -----------------------------------------------------------

    def _next_from_crossing(self, node, enter_side: str, arriving_dir: int, phi_i):
        """Rotate at a 4-valent crossing; phi_i maps fund(i)'s chart out."""
        i_dir = self.dirs[node["i"]]
        j_dir_local = node["deck"].vec(self.dirs[node["j"]])
        slots = {
            "i+": i_dir,
            "i-": _neg(i_dir),
            "j+": j_dir_local,
            "j-": _neg(j_dir_local),
        }
        enter_key = f"{enter_side}{'-' if arriving_dir > 0 else '+'}"
        # The reverse ray points back along the strand we arrived on.
        base = slots[enter_key]
        others = [(k, v) for k, v in slots.items() if k != enter_key]
        cmp = _angle_cmp_from(base)
        others.sort(key=cmp_to_key(lambda a, b: cmp(a[1], b[1])))
        out_key = others[0][0]
        edge_id = node[out_key]
        outgoing = out_key.endswith("+")
        new_phi = phi_i if out_key[0] == "i" else phi_i.compose(node["deck"])
        return edge_id, (1 if outgoing else -1), new_phi

    def _next_from_fat(self, label: str, att_idx: int, phi):
        """Swing around a cone point; phi maps the arriving fund chart out."""
        fat = self.fats[label]
        c0 = (
            (0, 0)
            if self.piece is PieceKind.ONE_HOLED_TORUS
            else _corner_units(label, self.ctx.scale)
        )
        branches = (0,) if self.piece is PieceKind.ONE_HOLED_TORUS else (0, 1)
        rays = []
        for k, att in enumerate(fat):
            offset = _sub(att.strand_point, att.corner_point)
            rvec = att.direction if offset == (0, 0) else offset
            translate = AffineMap(1, _sub(c0, att.corner_point))
            for b in branches:
                if b == 0:
                    rays.append((k, b, rvec, translate))
                else:
                    flip = AffineMap(-1, _add(c0, att.corner_point))
                    rays.append((k, b, _neg(rvec), flip))
        enter = next(r for r in rays if r[0] == att_idx and r[1] == 0)
        # chart map: the arriving strand is identified with its translate
        # lift; either lift gives the same downstairs walk.
        chart = phi.compose(enter[3].inverse())
        others = [r for r in rays if r[:2] != enter[:2]]
        if not others:
            # single torus attachment: full turn, come back along the
            # other side of the same strand.
            out = enter
        else:
            cmp = _angle_cmp_from(enter[2])
            others.sort(key=cmp_to_key(lambda a, b: cmp(a[2], b[2])))
            out = others[0]
        edge_id, outgoing = fat[out[0]].edge
        return edge_id, (1 if outgoing else -1), chart.compose(out[3])

    def _step(self, edge_id: int, direction: int, phi: AffineMap):
        """Traverse an edge, then turn at the node reached."""
        edge = self.edges[edge_id]
        deck = edge["deck"] if direction > 0 else edge["deck"].inverse()
        phi = phi.compose(deck)
        node_ref = edge["to"] if direction > 0 else edge["from"]
        kind = node_ref[0]
        if kind == "t":
            return ("end", node_ref[1], phi)
        if kind == "x":
            node = self.crossings[node_ref[1]]
            side = node_ref[2]
            phi_i = phi if side == "i" else phi.compose(node["deck"].inverse())
            nxt_edge, nxt_dir, phi_i = self._next_from_crossing(
                node, side, direction, phi_i
            )
            return ("go", (nxt_edge, nxt_dir), phi_i)
        _, label, att_idx = node_ref
        nxt_edge, nxt_dir, new_phi = self._next_from_fat(label, att_idx, phi)
        return ("go", (nxt_edge, nxt_dir), new_phi)

    def _orbit(self, visited: set[tuple[int, int]], dart, closed: bool):
        """Follow the successor map from dart, marking darts visited, until
        an arc falls off a loose end or a closed walk is back at dart;
        returns (that end's index or None, the chart map, darts walked)."""
        start, phi, count = dart, IDENTITY, 0
        while True:
            if dart in visited:
                raise AssertionError("dart reused across boundary walks")
            visited.add(dart)
            count += 1
            state = self._step(dart[0], dart[1], phi)
            if state[0] == "end":
                if closed:
                    raise AssertionError("closed walk fell off an end")
                return state[1], state[2], count
            dart, phi = state[1], state[2]
            if closed and dart == start:
                return None, phi, count

    def trace(self) -> list[BoundaryComponent]:
        visited: set[tuple[int, int]] = set()
        components: list[BoundaryComponent] = []

        for start in self.terminals:
            edge_id, outgoing = start.edge
            dart = (edge_id, 1 if outgoing else -1)
            if dart not in visited:
                end, phi, count = self._orbit(visited, dart, closed=False)
                components.append(
                    self._classify_arc(start, self.terminals[end], phi, count)
                )

        # isolated closed loops: two parallel copies each
        for idx, obj in enumerate(self.objects):
            if obj.kind is ObjectKind.CURVE and not self.timeline[idx]:
                comp = BoundaryComponent(
                    kind="curve", object=curve(self.piece, obj.slope), labels=(),
                    dart_count=0,
                )
                components.extend([comp, comp])

        # remaining darts belong to closed components
        for edge_id in range(len(self.edges)):
            for dart in ((edge_id, 1), (edge_id, -1)):
                if dart not in visited:
                    _, phi, count = self._orbit(visited, dart, closed=True)
                    components.append(self._classify_closed(phi, count))

        # cone points included but with nothing attached bound their own
        # parallel circle
        for label, attached in self.fats.items():
            if not attached:
                components.append(
                    BoundaryComponent(
                        kind="inessential", object=None, labels=(label,),
                        dart_count=0,
                    )
                )
        return sorted(components, key=BoundaryComponent.sort_key)

    # -- classification ----------------------------------------------------

    def _classify_arc(
        self, start: _End, end: _End, phi: AffineMap, count: int
    ) -> BoundaryComponent:
        d = _sub(phi(end.corner_point), start.corner_point)
        unit = self.ctx.scale
        labels = (start.label, end.label)
        if self.piece is PieceKind.ONE_HOLED_TORUS:
            if d == (0, 0):
                return BoundaryComponent("inessential", None, labels, count)
            vec = _lattice(d, unit)
            return BoundaryComponent(
                "seam", seam(self.piece, _primitive_slope(vec)), labels, count
            )
        if labels[0] == labels[1]:
            if d == (0, 0):
                return BoundaryComponent("inessential", None, labels, count)
            slope = _primitive_slope(_lattice(d, unit))
            over = partner_label(slope, labels[0])
            return BoundaryComponent(
                "wave",
                wave(seam(self.piece, slope, tuple(sorted((labels[0], over)))), over),
                labels,
                count,
            )
        slope = _primitive_slope(_lattice((2 * d[0], 2 * d[1]), unit))
        if partner_label(slope, labels[0]) != labels[1]:
            raise AssertionError("seam class violates corner parity; bug")
        return BoundaryComponent(
            "seam",
            seam(self.piece, slope, tuple(sorted(labels))),
            labels,
            count,
        )

    def _classify_closed(self, phi: AffineMap, count: int) -> BoundaryComponent:
        if phi.sign == -1:
            return BoundaryComponent("inessential", None, (), count)
        if phi.shift == (0, 0):
            return BoundaryComponent("inessential", None, (), count)
        vec = _lattice(phi.shift, self.ctx.scale)
        return BoundaryComponent(
            "curve", curve(self.piece, _primitive_slope(vec)), (), count
        )


def _lattice(d: IntPoint, unit: int) -> tuple[int, int]:
    """d, given in units of 1/unit, as a lattice vector."""
    if d[0] % unit or d[1] % unit:
        raise AssertionError(f"expected a lattice vector, got {d} / {unit}")
    return (d[0] // unit, d[1] // unit)


def _primitive_slope(vec: tuple[int, int]) -> Slope:
    g = math.gcd(abs(vec[0]), abs(vec[1]))
    if g == 0:
        raise AssertionError("zero class vector")
    if g != 1:
        raise AssertionError(f"non-primitive boundary class {vec}; bug")
    return slope_from_direction(vec)


def neighborhood_boundary(
    objects: Sequence[PieceObject],
    include_labels: Iterable[str] = (),
    ctx: RealizationContext | None = None,
) -> list[BoundaryComponent]:
    """Classified boundary components of a regular neighborhood.

    objects live on one piece; include_labels names boundary circles
    (corner labels, or "m" on the torus) welded into the union; ctx, when
    given, realizes exactly these objects in this order.
    """
    objs = list(objects)
    if not objs:
        raise ValueError("need at least one object")
    if len(set(objs)) != len(objs):
        raise ValueError("duplicate object descriptors")
    piece = objs[0].piece
    valid = (
        {TORUS_MARK} if piece is PieceKind.ONE_HOLED_TORUS else set(CORNER_LABELS)
    )
    labels = frozenset(include_labels)
    if not labels <= valid:
        raise ValueError(f"labels {sorted(labels - valid)} not on this piece")
    if ctx is None:
        ctx = RealizationContext(objs)
    elif ctx.objects != tuple(objs):
        raise ValueError("ctx must realize exactly these objects, in order")
    walk = _Walk(objs, labels, ctx)
    walk.build()
    return walk.trace()
