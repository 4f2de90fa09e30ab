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
closed curve's segment is one period, half open at its anchor.

The union is a graph whose faces are the orbits of one rotation system.
Its darts (directed edges) are integers: dart 2e runs edge e forward and
2e + 1 backward, so d ^ 1 reverses d.  Every node (a crossing, a welded
cone point or a loose end) sorts its leaving rays counterclockwise once,
and that order fills a successor table: a dart arriving at a node leaves
along the ray just after its own reverse.  A crossing is a node with four
rays and turns by the same rule as a cone point; a loose end has one ray
and ends its arc.  Each boundary component, arc or circle, is one orbit
of the table.  Each entry carries an affine chart map x -> +-x + t:
crossing a closed curve's period seam composes a translation, and
swinging around a cone point may compose a point reflection.  On the
pillowcase a welded cone point also holds the second lift of every
attached strand (the cone angle is pi, so a full upstairs turn is two
downstairs turns); the walk leaves along a second lift but never arrives
along one.  Ray directions use the exact offset vectors of the strands,
which the realization constants keep pairwise non-parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
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
    _ccw_order,
    _corner_units,
    _crossing_events,
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
        if other is IDENTITY:
            return self
        if self is IDENTITY:
            return other
        return AffineMap(
            sign=self.sign * other.sign,
            shift=_add(self.vec(other.shift), self.shift),
        )

    def inverse(self) -> "AffineMap":
        if self is IDENTITY:
            return self
        return AffineMap(sign=self.sign, shift=self.vec(_neg(self.shift)))


IDENTITY = AffineMap(1, (0, 0))


@dataclass
class _End:
    """A loose or attached end of an object's fundamental segment."""

    which: int  # 0 = segment start, 1 = segment end
    label: str
    corner_point: IntPoint  # conceptual cone-point lift in fund coordinates
    ray: IntPoint  # from the cone point along the strand


def _object_ends(
    obj: PieceObject, seg: tuple[IntPoint, IntPoint], scale: int
) -> list[_End]:
    if obj.kind is ObjectKind.CURVE:
        return []
    a, b = seg
    if obj.kind is ObjectKind.WAVE:
        # a wave's ends sit off its corner by the normal offset and the gap
        lift0 = _corner_units(obj.endpoints[0], scale)
        far = _add(lift0, (scale * obj.slope.q, scale * obj.slope.p))
        return [
            _End(0, obj.endpoints[0], lift0, _sub(a, lift0)),
            _End(1, obj.endpoints[0], far, _sub(b, far)),
        ]
    labels = obj.endpoints
    return [
        _End(0, labels[0], a, _sub(b, a)),
        _End(1, labels[1], b, _sub(a, b)),
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
    """The fattened union as a dart table: decks[d] is the deck map dart d
    crosses (the period translation on a curve's last edge, otherwise the
    identity), and succ[d] = (next dart, chart map, loose end or None).

    A node's ray is (dart, direction, chart), the chart mapping the dart's
    fundamental chart into the node's; a crossing is charted as fund(i).
    """

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
        self.segments = [ctx.x_side(i)[0][:2] for i in range(len(self.objects))]
        self.dirs = [_sub(b, a) for a, b in self.segments]
        self.decks: list[AffineMap] = []
        self.succ: list = []
        # loose ends with the dart leaving each; curves crossing nothing;
        # welded labels with nothing attached
        self.loose: list[tuple[_End, int]] = []
        self.loops: list[PieceObject] = []
        self.bare: list[str] = []

    # -- construction ------------------------------------------------------

    def build(self):
        # per object: (t, its node's rays, chart, ray ahead, ray behind); a
        # node is (rays, mirror or None, loose end or None)
        timeline: list[list] = [[] for _ in self.objects]
        nodes: list[tuple[list, AffineMap | None, _End | None]] = []
        self._find_crossings(timeline, nodes)
        self._place_ends(timeline, nodes)
        self._make_edges(timeline)
        self.succ = [None] * len(self.decks)
        for rays, mirror, end in nodes:
            self._rotate(rays, mirror, end)
            if end is not None:
                self.loose.append((end, rays[0][0]))

    def _find_crossings(self, timeline, nodes):
        """Crossings of fund(i) with the full preimage of each later object j.

        A crossing's chart is fund(i)'s; each event's deck maps fund(j)
        coordinates into it.
        """
        n, ctx = len(self.objects), self.ctx
        for i in range(n):
            strand = ctx.x_side(i)[:1]  # the fundamental segment
            for j in range(i + 1, n):
                events = _crossing_events(
                    self.objects[i], strand, self.objects[j], ctx.y_side(j), ctx.scale
                )
                expected = ctx.count(i, j)
                if len(events) != expected:
                    raise AssertionError(
                        f"event count {len(events)} for {self.objects[i]} vs "
                        f"{self.objects[j]} disagrees with the oracle {expected}"
                    )
                for t_i, t_j, (sign, shift) in events:
                    rays: list = []
                    nodes.append((rays, None, None))
                    deck = AffineMap(sign, shift)
                    u, v = self.dirs[i], deck.vec(self.dirs[j])
                    timeline[i].append((Fraction(*t_i), rays, IDENTITY, u, _neg(u)))
                    timeline[j].append((Fraction(*t_j), rays, deck, v, _neg(v)))

    def _place_ends(self, timeline, nodes):
        """A loose end is a node of its own.  Welded ends join their cone
        point's node, charted from the point; on the pillowcase that node
        mirrors each strand by the point reflection x -> -x + 2c."""
        torus, scale = self.piece is PieceKind.ONE_HOLED_TORUS, self.ctx.scale
        cones: dict[str, tuple[IntPoint, list]] = {}
        for idx, obj in enumerate(self.objects):
            for end in _object_ends(obj, self.segments[idx], scale):
                if end.label not in self.labels:
                    rays, chart = [], IDENTITY
                    nodes.append((rays, None, end))
                else:
                    if end.label not in cones:
                        c = (0, 0) if torus else _corner_units(end.label, scale)
                        mirror = None if torus else AffineMap(-1, _add(c, c))
                        cones[end.label] = (c, [])
                        nodes.append((cones[end.label][1], mirror, None))
                    c, rays = cones[end.label]
                    chart = AffineMap(1, _sub(c, end.corner_point))
                timeline[idx].append(
                    (Fraction(end.which), rays, chart, end.ray, end.ray)
                )
        self.bare = sorted(self.labels - cones.keys())

    def _make_edges(self, timeline):
        """Cut each strand at its nodes into edges; edge e adds its two
        darts, each leaving one node along one ray."""
        for idx, obj in enumerate(self.objects):
            events = sorted(timeline[idx], key=lambda e: e[0])
            params = [e[0] for e in events]
            if len(set(params)) != len(params):
                raise DegenerateRealization(
                    "three strands meet at one point; the walk needs a "
                    "configuration in general position"
                )
            if obj.kind is ObjectKind.CURVE:
                if not events:
                    self.loops.append(obj)
                    continue
                after = events[1:] + events[:1]  # the last edge wraps a period
            elif len(events) < 2:
                raise AssertionError("open object with fewer than two ends")
            else:
                after = events[1:]
            wrap = AffineMap(1, self.dirs[idx])
            for k, (here, there) in enumerate(zip(events, after)):
                _, out, out_chart, ahead_ray, _ = here
                _, back, back_chart, _, behind_ray = there
                deck = wrap if k == len(events) - 1 else IDENTITY
                dart = len(self.decks)
                self.decks += [deck, deck.inverse()]
                out.append((dart, ahead_ray, out_chart))
                back.append((dart + 1, behind_ray, back_chart))

    def _rotate(self, rays, mirror, end):
        """Point each dart arriving at a node at the ray that follows its
        reverse in the `_ccw_order` of the node's rays and their mirror
        lifts; the walk never arrives along a second lift."""
        lifts = list(rays)
        if mirror is not None:
            lifts += [(d, mirror.vec(v), mirror.compose(chart)) for d, v, chart in rays]
        order = [0] + [
            1 + k for k in _ccw_order(lifts[0][1], [v for _, v, _ in lifts[1:]])
        ]
        for k, idx in enumerate(order):
            if idx >= len(rays):
                continue
            dart, _, chart = rays[idx]
            nxt, _, out = lifts[order[(k + 1) % len(order)]]
            arriving = dart ^ 1
            if self.succ[arriving] is not None:
                raise AssertionError("successor of a dart written twice")
            self.succ[arriving] = (
                nxt,
                self.decks[arriving].compose(chart.inverse()).compose(out),
                end,
            )

    # -- tracing -----------------------------------------------------------

    def _orbit(self, visited: set[int], start: int):
        """Follow succ from start, marking darts visited, until the walk
        falls off a loose end or is back at start; returns (that end or
        None, the chart map, darts walked)."""
        dart, phi, count = start, IDENTITY, 0
        while True:
            if dart in visited:
                raise AssertionError("dart reused across boundary walks")
            visited.add(dart)
            count += 1
            dart, step, end = self.succ[dart]
            phi = phi.compose(step)
            if end is not None or dart == start:
                return end, phi, count

    def trace(self) -> list[BoundaryComponent]:
        visited: set[int] = set()
        components: list[BoundaryComponent] = []

        for start, dart in self.loose:
            if dart not in visited:
                end, phi, count = self._orbit(visited, dart)
                components.append(self._classify_arc(start, end, phi, count))

        # isolated closed loops: two parallel copies each
        for obj in self.loops:
            comp = BoundaryComponent(
                kind="curve", object=curve(self.piece, obj.slope), labels=(),
                dart_count=0,
            )
            components.extend([comp, comp])

        # remaining darts belong to closed components
        for dart in range(len(self.succ)):
            if dart not in visited:
                end, phi, count = self._orbit(visited, dart)
                if end is not None:
                    raise AssertionError("closed walk fell off an end")
                components.append(self._classify_closed(phi, count))

        # cone points included but with nothing attached bound their own
        # parallel circle
        for label in self.bare:
            components.append(
                BoundaryComponent(
                    kind="inessential", object=None, labels=(label,), dart_count=0
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
