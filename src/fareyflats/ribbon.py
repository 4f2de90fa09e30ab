"""Boundary components of regular neighborhoods of object unions.

Given objects on one piece together with a set of included boundary
labels, this module builds the fattened graph of their union (crossings
become 4-valent vertices, ends at included labels merge into a fat vertex
at the cone point, other ends stay loose) and walks its boundary.  Every
component comes back classified as a curve, seam, wave, or an inessential
(boundary-parallel) circle, with the class computed from the developed
holonomy of the walk, not from any formula.

The walk happens on exact plane lifts.  Each step carries an affine deck
map x -> +-x + t; crossing a closed curve's period seam composes a
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
    ObjectKind,
    PieceKind,
    PieceObject,
    Point,
    RealizationContext,
    SegmentRep,
    TORUS_MARK,
    corner_lift,
    cover_segments,
    curve,
    intersection_number,
    line_families,
    partner_label,
    seam,
    wave,
    _angle_cmp_from,
    _apply,
    _next_prime_above,
    _pt_add,
    _pt_neg,
    _pt_scale,
)
from .slopes import Slope, slope_from_direction


class _RetryWalk(DegenerateRealization):
    """A closed curve's period anchor hit a line; shifting it will help."""


@dataclass(frozen=True)
class AffineMap:
    """x -> sign*x + shift with sign in {+1, -1}."""

    sign: int
    shift: Point

    def __call__(self, pt: Point) -> Point:
        return (self.sign * pt[0] + self.shift[0], self.sign * pt[1] + self.shift[1])

    def vec(self, v: Point) -> Point:
        return (self.sign * v[0], self.sign * v[1])

    def compose(self, other: "AffineMap") -> "AffineMap":
        # (self o other)(x) = self(other(x))
        return AffineMap(
            sign=self.sign * other.sign,
            shift=_pt_add(self.vec(other.shift), self.shift),
        )

    def inverse(self) -> "AffineMap":
        return AffineMap(sign=self.sign, shift=_pt_scale(Fraction(-self.sign), self.shift))


IDENTITY = AffineMap(1, (Fraction(0), Fraction(0)))


def _fund_segment(
    obj: PieceObject,
    ctx: RealizationContext,
    index: int,
    anchor_shift: Fraction = Fraction(0),
) -> SegmentRep:
    """The single plane segment projecting 1:1 onto the object downstairs."""
    if obj.kind is ObjectKind.SEAM and obj.piece is PieceKind.FOUR_HOLED_SPHERE:
        base = corner_lift(obj.endpoints[0])
        w = (Fraction(obj.slope.q), Fraction(obj.slope.p))
        return SegmentRep(a=base, b=_pt_add(base, _pt_scale(Fraction(1, 2), w)))
    return cover_segments(obj, ctx, index, anchor_shift)[0]


def _is_closed(obj: PieceObject) -> bool:
    return obj.kind is ObjectKind.CURVE


@dataclass
class _End:
    """A loose or attached end of an object's fundamental segment."""

    obj_index: int
    which: int  # 0 = segment start, 1 = segment end
    label: str
    corner_point: Point  # conceptual cone-point lift in fund coordinates
    strand_point: Point  # actual segment endpoint
    direction: Point  # into the strand, away from the cone point
    edge: tuple[int, bool] | None = None  # (edge id, leaves this end)


def _object_ends(obj: PieceObject, seg: SegmentRep) -> list[_End]:
    if _is_closed(obj):
        return []
    d = seg.direction()
    if obj.kind is ObjectKind.WAVE:
        lift0 = corner_lift(obj.endpoints[0])
        w = (Fraction(obj.slope.q), Fraction(obj.slope.p))
        return [
            _End(-1, 0, obj.endpoints[0], lift0, seg.a, d),
            _End(-1, 1, obj.endpoints[0], _pt_add(lift0, w), seg.b, _pt_neg(d)),
        ]
    labels = obj.endpoints
    return [
        _End(-1, 0, labels[0], seg.a, seg.a, d),
        _End(-1, 1, labels[1], seg.b, seg.b, _pt_neg(d)),
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
        anchor_shift: Fraction = Fraction(0),
    ):
        self.objects = list(objects)
        self.labels = include_labels
        self.ctx = ctx
        self.piece = ctx.piece
        self.segments = [
            _fund_segment(o, ctx, i, anchor_shift)
            for i, o in enumerate(self.objects)
        ]
        # node tables
        self.crossings: list[dict] = []
        self.terminals: list[dict] = []
        self.fats: dict[str, dict] = {
            lab: {"label": lab, "attachments": []} for lab in sorted(include_labels)
        }
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
        n = len(self.objects)
        for i in range(n):
            for j in range(i + 1, n):
                events = self._pair_events(i, j)
                expected = intersection_number(
                    self.objects[i], self.objects[j], self.ctx
                )
                if len(events) != expected:
                    raise AssertionError(
                        f"event count {len(events)} for {self.objects[i]} vs "
                        f"{self.objects[j]} disagrees with the oracle {expected}"
                    )
                for ti, tj, pt_i, deck in events:
                    idx = len(self.crossings)
                    self.crossings.append(
                        {
                            "i": i,
                            "j": j,
                            "ti": ti,
                            "tj": tj,
                            "point": pt_i,
                            "deck": deck,
                        }
                    )
                    self.timeline[i].append((ti, ("x", idx, "i")))
                    self.timeline[j].append((tj, ("x", idx, "j")))

    def _pair_events(self, i: int, j: int):
        """Crossing events of fund(i) with the full preimage of object j.

        Returns (t_i, t_j, point in fund(i) coordinates, deck) where deck
        maps fund(j) coordinates into fund(i)'s chart.
        """
        oi, oj = self.objects[i], self.objects[j]
        seg = self.segments[i]
        d = seg.direction()
        hits: list[tuple[Fraction, Point]] = []
        if oj.kind is ObjectKind.WAVE:
            for pt, t in self._segment_hits_vs_segments(seg, i, j):
                hits.append((t, pt))
        else:
            for coeff, off in line_families(oj, self.ctx, j):
                f0 = _apply(coeff, seg.a) - off
                f1 = _apply(coeff, seg.b) - off
                if f0 == f1:
                    continue
                for f, endpt in ((f0, seg.a), (f1, seg.b)):
                    if f.denominator == 1 and self._cone_label(endpt) is None:
                        if _is_closed(oi):
                            raise _RetryWalk("period anchor on a line")
                        raise DegenerateRealization(
                            "a strand endpoint lies exactly on another "
                            "object's line; perturb the configuration"
                        )
                denom = f1 - f0
                lo, hi = (f0, f1) if f0 <= f1 else (f1, f0)
                for k in range(math.floor(lo) + 1, math.ceil(hi)):
                    t = (Fraction(k) - f0) / denom
                    pt = _pt_add(seg.a, _pt_scale(t, d))
                    if self._cone_label(pt) is not None:
                        continue  # shared-corner touch, not a crossing
                    hits.append((t, pt))
        out = []
        for t, pt in sorted(hits):
            tj, deck = self._locate_on_fund(pt, j)
            out.append((t, tj, pt, deck))
        return out

    def _segment_hits_vs_segments(self, seg: SegmentRep, i: int, j: int):
        """Literal crossings of seg with all plane lifts of object j."""
        oj = self.objects[j]
        base = cover_segments(oj, self.ctx, j)
        hits = []
        xlo = (min(seg.a[0], seg.b[0]), min(seg.a[1], seg.b[1]))
        xhi = (max(seg.a[0], seg.b[0]), max(seg.a[1], seg.b[1]))
        for ys in base:
            ylo = (min(ys.a[0], ys.b[0]), min(ys.a[1], ys.b[1]))
            yhi = (max(ys.a[0], ys.b[0]), max(ys.a[1], ys.b[1]))
            for di in range(math.floor(xlo[0] - yhi[0]) - 1, math.ceil(xhi[0] - ylo[0]) + 2):
                for dj in range(
                    math.floor(xlo[1] - yhi[1]) - 1, math.ceil(xhi[1] - ylo[1]) + 2
                ):
                    shift = (Fraction(di), Fraction(dj))
                    moved = SegmentRep(a=_pt_add(ys.a, shift), b=_pt_add(ys.b, shift))
                    ds, dt = seg.direction(), moved.direction()
                    denom = ds[0] * dt[1] - ds[1] * dt[0]
                    if denom == 0:
                        continue
                    diff = (moved.a[0] - seg.a[0], moved.a[1] - seg.a[1])
                    u = (diff[0] * dt[1] - diff[1] * dt[0]) / denom
                    v = (diff[0] * ds[1] - diff[1] * ds[0]) / denom
                    if not (0 <= u <= 1 and 0 <= v <= 1):
                        continue
                    if u in (0, 1) or v in (0, 1):
                        if u in (0, 1) and _is_closed(self.objects[i]):
                            raise _RetryWalk("period anchor on a wave")
                        raise DegenerateRealization(
                            "a crossing sits exactly at a strand tip; "
                            "perturb the configuration"
                        )
                    hits.append((_pt_add(seg.a, _pt_scale(u, ds)), u))
        return hits

    def _locate_on_fund(self, pt: Point, j: int):
        """Find (t, deck) with deck(fund_j(t)) == pt, t in [0, 1)."""
        seg = self.segments[j]
        d = seg.direction()
        norm = d[0] * d[0] + d[1] * d[1]
        signs = (1,) if self.piece is PieceKind.ONE_HOLED_TORUS else (1, -1)
        matches = []
        for sign in signs:
            # deck: x -> sign*x + v, so fund point is sign*(pt - v)
            # project the line position first, then verify exactly.
            target = pt if sign == 1 else _pt_neg(pt)
            # candidate translates: fund_j + v must contain target (up to sign)
            span = 2 + int(abs(target[0]) + abs(seg.a[0]) + abs(seg.b[0]))
            span_y = 2 + int(abs(target[1]) + abs(seg.a[1]) + abs(seg.b[1]))
            for vx in range(-span, span + 1):
                for vy in range(-span_y, span_y + 1):
                    q = (target[0] - vx, target[1] - vy)
                    rel = (q[0] - seg.a[0], q[1] - seg.a[1])
                    t = (rel[0] * d[0] + rel[1] * d[1]) / norm
                    if not (0 <= t < 1):
                        continue
                    if _pt_add(seg.a, _pt_scale(t, d)) != q:
                        continue
                    # deck(x) = sign*x + shift must send q to pt exactly
                    shift = (pt[0] - sign * q[0], pt[1] - sign * q[1])
                    matches.append((t, AffineMap(sign, shift)))
        if len(matches) != 1:
            raise AssertionError(
                f"crossing lift lookup found {len(matches)} matches; bug"
            )
        return matches[0]

    def _cone_label(self, pt: Point) -> str | None:
        if self.piece is PieceKind.ONE_HOLED_TORUS:
            if pt[0].denominator == 1 and pt[1].denominator == 1:
                return TORUS_MARK
            return None
        if (2 * pt[0]).denominator == 1 and (2 * pt[1]).denominator == 1:
            return f"{int(2 * pt[0]) % 2}{int(2 * pt[1]) % 2}"
        return None

    def _place_ends(self):
        for idx, obj in enumerate(self.objects):
            for end in _object_ends(obj, self.segments[idx]):
                end.obj_index = idx
                t = Fraction(end.which)
                if end.label in self.labels:
                    att_list = self.fats[end.label]["attachments"]
                    att_idx = len(att_list)
                    att_list.append(end)
                    self.timeline[idx].append((t, ("f", end.label, att_idx)))
                else:
                    term_idx = len(self.terminals)
                    self.terminals.append({"end": end})
                    self.timeline[idx].append((t, ("t", term_idx)))

    def _make_edges(self):
        for idx, obj in enumerate(self.objects):
            events = sorted(self.timeline[idx], key=lambda e: e[0])
            params = [t for t, _ in events]
            if len(set(params)) != len(params):
                raise DegenerateRealization(
                    "three strands meet at one point; the walk needs a "
                    "configuration in general position"
                )
            if _is_closed(obj):
                if not events:
                    continue  # isolated loop, handled separately
                w = self.segments[idx].direction()
                for k in range(len(events)):
                    nxt = (k + 1) % len(events)
                    wrap = nxt == 0
                    self._add_edge(
                        idx,
                        events[k],
                        events[nxt],
                        deck=AffineMap(1, w) if wrap else IDENTITY,
                    )
            else:
                if len(events) < 2:
                    raise AssertionError("open object with fewer than two ends")
                for k in range(len(events) - 1):
                    self._add_edge(idx, events[k], events[k + 1], deck=IDENTITY)

    def _add_edge(self, obj_index: int, ev_from, ev_to, deck: AffineMap):
        edge_id = len(self.edges)
        edge = {
            "obj": obj_index,
            "from": ev_from[1],
            "to": ev_to[1],
            "deck": deck,
        }
        self.edges.append(edge)
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
            self.terminals[node_ref[1]]["edge"] = (edge_id, outgoing)
        else:
            _, label, att_idx = node_ref
            att = self.fats[label]["attachments"][att_idx]
            att.edge = (edge_id, outgoing)  # type: ignore[attr-defined]

    # -- tracing -----------------------------------------------------------

    def _edge_dir_vec(self, edge) -> Point:
        return self.segments[edge["obj"]].direction()

    def _next_from_crossing(self, node, enter_side: str, arriving_dir: int, phi_i):
        """Rotate at a 4-valent crossing; phi_i maps fund(i)'s chart out."""
        i_dir = self.segments[node["i"]].direction()
        j_dir_local = node["deck"].vec(self.segments[node["j"]].direction())
        slots = {
            "i+": i_dir,
            "i-": _pt_neg(i_dir),
            "j+": j_dir_local,
            "j-": _pt_neg(j_dir_local),
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
            (Fraction(0), Fraction(0))
            if self.piece is PieceKind.ONE_HOLED_TORUS
            else corner_lift(label)
        )
        branches = (0,) if self.piece is PieceKind.ONE_HOLED_TORUS else (0, 1)
        rays = []
        for k, att in enumerate(fat["attachments"]):
            offset = (
                att.strand_point[0] - att.corner_point[0],
                att.strand_point[1] - att.corner_point[1],
            )
            rvec = att.direction if offset == (0, 0) else offset
            translate = AffineMap(1, _pt_add(c0, _pt_neg(att.corner_point)))
            for b in branches:
                if b == 0:
                    rays.append((k, b, rvec, translate))
                else:
                    flip = AffineMap(-1, _pt_add(c0, att.corner_point))
                    rays.append((k, b, _pt_neg(rvec), flip))
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
        att = fat["attachments"][out[0]]
        edge_id, outgoing = att.edge  # type: ignore[attr-defined]
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

    def trace(self) -> list[BoundaryComponent]:
        visited: set[tuple[int, int]] = set()
        components: list[BoundaryComponent] = []

        def run_arc(term_idx: int):
            term = self.terminals[term_idx]
            edge_id, outgoing = term["edge"]
            dart = (edge_id, 1 if outgoing else -1)
            phi = IDENTITY
            start_end = term["end"]
            count = 0
            while True:
                if dart in visited:
                    raise AssertionError("dart reused across boundary walks")
                visited.add(dart)
                count += 1
                state = self._step(dart[0], dart[1], phi)
                if state[0] == "end":
                    end_term = self.terminals[state[1]]["end"]
                    return self._classify_arc(
                        start_end, end_term, state[2], count
                    )
                dart, phi = state[1], state[2]

        for t_idx in range(len(self.terminals)):
            edge_id, outgoing = self.terminals[t_idx]["edge"]
            dart = (edge_id, 1 if outgoing else -1)
            if dart not in visited:
                components.append(run_arc(t_idx))

        # isolated closed loops: two parallel copies each
        for idx, obj in enumerate(self.objects):
            if _is_closed(obj) and not self.timeline[idx]:
                comp = BoundaryComponent(
                    kind="curve", object=curve(self.piece, obj.slope), labels=(),
                    dart_count=0,
                )
                components.extend([comp, comp])

        # remaining darts belong to closed components
        all_darts = [
            (e, d) for e in range(len(self.edges)) for d in (1, -1)
        ]
        for dart0 in all_darts:
            if dart0 in visited:
                continue
            phi = IDENTITY
            dart = dart0
            count = 0
            while True:
                if count and dart == dart0:
                    break
                if dart in visited:
                    raise AssertionError("dart reused across boundary walks")
                visited.add(dart)
                count += 1
                state = self._step(dart[0], dart[1], phi)
                if state[0] == "end":
                    raise AssertionError("closed walk fell off an end")
                dart, phi = state[1], state[2]
            components.append(self._classify_closed(phi, count))

        # cone points included but with nothing attached bound their own
        # parallel circle
        for label in sorted(self.labels):
            if not self.fats.get(label, {"attachments": []})["attachments"]:
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
        start_lift = start.corner_point
        end_lift = phi(end.corner_point)
        d = (end_lift[0] - start_lift[0], end_lift[1] - start_lift[1])
        labels = (start.label, end.label)
        if self.piece is PieceKind.ONE_HOLED_TORUS:
            if d == (0, 0):
                return BoundaryComponent("inessential", None, labels, count)
            vec = _require_lattice(d)
            return BoundaryComponent(
                "seam", seam(self.piece, _primitive_slope(vec)), labels, count
            )
        if labels[0] == labels[1]:
            if d == (0, 0):
                return BoundaryComponent("inessential", None, labels, count)
            vec = _require_lattice(d)
            slope = _primitive_slope(vec)
            over = partner_label(slope, labels[0])
            return BoundaryComponent(
                "wave",
                wave(seam(self.piece, slope, tuple(sorted((labels[0], over)))), over),
                labels,
                count,
            )
        doubled = _require_lattice((2 * d[0], 2 * d[1]))
        slope = _primitive_slope(doubled)
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
        vec = _require_lattice(phi.shift)
        return BoundaryComponent(
            "curve", curve(self.piece, _primitive_slope(vec)), (), count
        )


def _require_lattice(d: Point) -> tuple[int, int]:
    if d[0].denominator != 1 or d[1].denominator != 1:
        raise AssertionError(f"expected a lattice vector, got {d}")
    return (int(d[0]), int(d[1]))


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
    (corner labels, or "m" on the torus) welded into the union.
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
    prime = _next_prime_above(2 * ctx.norm)
    last: Exception | None = None
    for attempt in range(5):
        walk = _Walk(objs, labels, ctx, anchor_shift=Fraction(attempt, prime))
        try:
            walk.build()
        except _RetryWalk as exc:
            last = exc
            continue
        return walk.trace()
    raise DegenerateRealization(f"anchor shifts exhausted: {last}")
