"""Exact intersection counts on the two flat model pieces.

The one-holed torus piece is modelled as R^2/Z^2 with the lattice point as
marked point; the four-holed sphere piece as the pillowcase quotient
R^2/(x ~ -x + v), whose four cone points are the half-lattice classes
(0,0), (1/2,0), (0,1/2), (1/2,1/2), written "00", "10", "01", "11".

Objects carried by a piece:

* Curve(slope): a straight closed geodesic avoiding the cone points.
* Seam(slope, endpoints): a straight arc between two cone points on the
  four-holed sphere, or the closed-up arc through the marked point on the
  torus (endpoints ("m", "m")).
* Wave(seam, over): the arc obtained by doubling a seam around one of its
  two cone points; both of its ends sit at the other cone point.

The seeded samplers of these objects (``random_slope``, ``random_seam``
and the rest) sit next to their constructors and are the only ones in the
package.

Every object gets a concrete realization, chosen deterministically from
the object's index in a configuration so that distinct objects are
disjoint away from shared cone points.  All of a configuration's offsets
share one denominator L (``RealizationContext.scale``), so in units of 1/L
every realization is drawn between integer points and the deck lattice is
L*Z^2.

One integer kernel, ``_crossing_events``, finds where plane segments of
one object cross the whole preimage of another: it sweeps the other
object's line families, keeps the hits that lie on its lifts, and
locates each hit on the other's fundamental segment exactly.
``RealizationContext.count(i, j)`` is the one counting entry: it counts
these events for two objects of a context on the torus cover and halves
on the pillowcase (with an evenness check).  ``intersection_number``
counts a pair through it; the ribbon walk builds its crossing graph from
the events and checks their number against it.  A literal counter, which
intersects segments with every integer translate over an explicit window
in rational arithmetic, is kept as the independent oracle
(``literal_intersection_number``, ``tightness_check``).  No determinant
formula is assumed anywhere in this module.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cmp_to_key
from typing import Sequence

from .slopes import Slope, _extgcd, slopes_up_to

Point = tuple[Fraction, Fraction]


class PieceKind(Enum):
    ONE_HOLED_TORUS = "one_holed_torus"
    FOUR_HOLED_SPHERE = "four_holed_sphere"


class ObjectKind(Enum):
    CURVE = "curve"
    SEAM = "seam"
    WAVE = "wave"


TORUS_MARK = "m"
CORNER_LABELS = ("00", "10", "01", "11")


def corner_vec(label: str) -> tuple[int, int]:
    if label not in CORNER_LABELS:
        raise ValueError(f"unknown corner label {label!r}")
    return (int(label[0]), int(label[1]))


def partner_label(slope: Slope, label: str) -> str:
    """The other endpoint of a seam of this slope leaving the given corner.

    Moving by half the direction vector (q, p)/2 flips the corner parities
    by (q mod 2, p mod 2); since gcd(p, q) = 1 the partner always differs.
    """
    a, b = corner_vec(label)
    return f"{(a + slope.q) % 2}{(b + slope.p) % 2}"


def seam_pairs(slope: Slope) -> tuple[tuple[str, str], tuple[str, str]]:
    """The two corner pairs a seam of this slope can join, each sorted."""
    first = tuple(sorted(("00", partner_label(slope, "00"))))
    rest = tuple(sorted(l for l in CORNER_LABELS if l not in first))
    return first, rest  # type: ignore[return-value]


@dataclass(frozen=True)
class PieceObject:
    """An essential curve, seam, or wave on one of the two pieces."""

    piece: PieceKind
    kind: ObjectKind
    slope: Slope
    endpoints: tuple[str, ...] = ()
    over: str | None = None

    def __post_init__(self):
        if self.kind is ObjectKind.CURVE:
            if self.endpoints or self.over is not None:
                raise ValueError("a curve has no endpoints")
        elif self.kind is ObjectKind.SEAM:
            if self.over is not None:
                raise ValueError("only waves carry an 'over' corner")
            if self.piece is PieceKind.ONE_HOLED_TORUS:
                if self.endpoints != (TORUS_MARK, TORUS_MARK):
                    raise ValueError("torus arcs end at the marked point twice")
            else:
                if len(self.endpoints) != 2:
                    raise ValueError("a seam joins two corners")
                a, b = self.endpoints
                if partner_label(self.slope, a) != b:
                    raise ValueError(
                        f"corners {a},{b} are not joined by slope {self.slope}"
                    )
                if self.endpoints != tuple(sorted(self.endpoints)):
                    raise ValueError("seam endpoints must be sorted")
        elif self.kind is ObjectKind.WAVE:
            if self.piece is not PieceKind.FOUR_HOLED_SPHERE:
                raise ValueError("waves live on the four-holed sphere")
            if len(self.endpoints) != 1 or self.over is None:
                raise ValueError("a wave has one end corner and one 'over' corner")
            if partner_label(self.slope, self.endpoints[0]) != self.over:
                raise ValueError("wave corners must be partners for its slope")

    def realization_corner_labels(self) -> frozenset[str]:
        """Corner labels the canonical realization actually passes through."""
        if self.kind is ObjectKind.SEAM:
            return frozenset(self.endpoints)
        return frozenset()

    def sort_key(self):
        return (
            self.kind.value,
            self.slope.sort_key(),
            self.endpoints,
            self.over or "",
        )

    def to_json_dict(self) -> dict:
        data = {
            "piece": self.piece.value,
            "kind": self.kind.value,
            "slope": str(self.slope),
        }
        if self.endpoints:
            data["endpoints"] = list(self.endpoints)
        if self.over is not None:
            data["over"] = self.over
        return data

    @staticmethod
    def from_json_dict(data: dict) -> "PieceObject":
        return PieceObject(
            piece=PieceKind(data["piece"]),
            kind=ObjectKind(data["kind"]),
            slope=Slope.parse(data["slope"]),
            endpoints=tuple(data.get("endpoints", ())),
            over=data.get("over"),
        )

    def __str__(self):
        if self.kind is ObjectKind.CURVE:
            return f"curve({self.slope})"
        if self.kind is ObjectKind.SEAM:
            return f"seam({self.slope};{','.join(self.endpoints)})"
        return f"wave({self.slope};at {self.endpoints[0]} over {self.over})"


def curve(piece: PieceKind, slope: Slope) -> PieceObject:
    return PieceObject(piece=piece, kind=ObjectKind.CURVE, slope=slope)


def seam(
    piece: PieceKind, slope: Slope, endpoints: tuple[str, str] | None = None
) -> PieceObject:
    if piece is PieceKind.ONE_HOLED_TORUS:
        return PieceObject(
            piece=piece,
            kind=ObjectKind.SEAM,
            slope=slope,
            endpoints=(TORUS_MARK, TORUS_MARK),
        )
    if endpoints is None:
        endpoints = seam_pairs(slope)[0]
    return PieceObject(
        piece=piece,
        kind=ObjectKind.SEAM,
        slope=slope,
        endpoints=tuple(sorted(endpoints)),  # type: ignore[arg-type]
    )


def torus_arc(slope: Slope) -> PieceObject:
    return seam(PieceKind.ONE_HOLED_TORUS, slope)


def wave(seam_obj: PieceObject, over: str) -> PieceObject:
    if seam_obj.kind is not ObjectKind.SEAM:
        raise ValueError("waves double a seam")
    if over not in seam_obj.endpoints:
        raise ValueError(f"{over} is not an endpoint of {seam_obj}")
    end = next(l for l in seam_obj.endpoints if l != over)
    return PieceObject(
        piece=seam_obj.piece,
        kind=ObjectKind.WAVE,
        slope=seam_obj.slope,
        endpoints=(end,),
        over=over,
    )


# ---------------------------------------------------------------------------
# seeded samplers
#
# Every suite and fixture generator draws its objects here, so each seed
# gives one sequence of draws.  Seams, waves and the mixed samplers live
# on the four-holed sphere.


def random_slope(rng: random.Random, height: int) -> Slope:
    """A uniform slope of height at most height."""
    pool = slopes_up_to(height)
    return pool[rng.randrange(len(pool))]


def random_torus_arc(rng: random.Random, height: int) -> PieceObject:
    return torus_arc(random_slope(rng, height))


def random_seam(
    rng: random.Random, height: int, slope: Slope | None = None
) -> PieceObject:
    """A seam on one of the two corner pairs of slope (drawn when None)."""
    u = random_slope(rng, height) if slope is None else slope
    return seam(PieceKind.FOUR_HOLED_SPHERE, u, seam_pairs(u)[rng.randrange(2)])


def random_wave(
    rng: random.Random, height: int, seam_obj: PieceObject | None = None
) -> PieceObject:
    """A wave doubling seam_obj (drawn when None) around one of its ends."""
    s = random_seam(rng, height) if seam_obj is None else seam_obj
    return wave(s, s.endpoints[rng.randrange(2)])


def random_arcish(
    rng: random.Random, height: int, slope: Slope | None = None
) -> PieceObject:
    """A curve, seam or wave, a third each; the kind is drawn first."""
    kind = rng.randrange(3)
    if kind == 0:
        u = random_slope(rng, height) if slope is None else slope
        return curve(PieceKind.FOUR_HOLED_SPHERE, u)
    s = random_seam(rng, height, slope)
    return s if kind == 1 else random_wave(rng, height, s)


def random_sphere_arc(rng: random.Random, height: int) -> PieceObject:
    """A seam or a wave, half each; the coin is tossed first."""
    if rng.random() < 0.5:
        return random_seam(rng, height)
    return random_wave(rng, height)


# ---------------------------------------------------------------------------
# realizations


class DegenerateRealization(Exception):
    """A crossing landed on a realization endpoint or unshared cone point."""


@dataclass(frozen=True)
class SegmentRep:
    """One plane segment of a realization, from a to b."""

    a: Point
    b: Point

    def direction(self) -> Point:
        return (self.b[0] - self.a[0], self.b[1] - self.a[1])


class RealizationContext:
    """Deterministic exact offsets for a family of coexisting objects.

    Offsets are graded so that all degeneracies (crossings at seam or wave
    ends, cone-point hits away from shared endpoints) are impossible.  Only
    wave offsets depend on shrink, so scaled(k) moves the waves alone.

    count(i, j) is the one entry to the crossing kernel: objects are
    named by their index here, and a crossing number, an invariant of the
    isotopy classes, comes out the same in every realization.

    A closed curve's fundamental segment runs over one period [a, b) from
    its anchor a, half open, so each point of the curve is on it once; an
    anchor on another object is just a crossing at t = 0.  The kernel and
    the literal counter both read it so.  The offsets are all multiples of
    1/scale.
    """

    def __init__(self, objects: Sequence[PieceObject], shrink: int = 1):
        if not objects:
            raise ValueError("empty configuration")
        kinds = {o.piece for o in objects}
        if len(kinds) != 1:
            raise ValueError("objects must share a piece")
        self.piece = objects[0].piece
        self.objects = tuple(objects)
        self.norm = max(o.slope.p**2 + o.slope.q**2 for o in objects)
        self.shrink = shrink
        n1 = len(objects) + 1
        self.scale = 256 * n1**2 * self.norm**3 * shrink
        # offsets in units of 1/scale: curve i sits (2i+1)/(4(n+1)) off its
        # lattice line; a wave is opened by a gap of 1/(64(n+1)norm^2) at its
        # end corner and lies (i+1)/(256(n+1)^2 norm^3) normals off its seam,
        # both divided by shrink
        self.gap = 4 * n1 * self.norm
        self._curve_unit = 64 * n1 * self.norm**3 * shrink

    def curve_shift(self, index: int) -> int:
        """Curve index's offset from its lattice line, in units of 1/scale."""
        return (2 * index + 1) * self._curve_unit

    def normal_shift(self, index: int) -> int:
        """Wave index's offset from its seam, in normals (p, -q) / scale."""
        return index + 1

    def scaled(self, factor: int) -> "RealizationContext":
        """A context with the wave offsets divided by factor (stability);
        curve and seam positions do not depend on shrink."""
        return RealizationContext(self.objects, self.shrink * factor)

    def count(self, i: int, j: int) -> int:
        """Geometric crossing number of objects i and j.

        The crossing events of one object's torus-cover segments with the
        other's preimage are counted; a wave takes the segment side against
        a curve or seam, whose line families are then counted without
        visiting their hits.  A curve on the segment side covers its period
        half open, so a crossing at its anchor counts once.  On the
        pillowcase the cover count is halved after an evenness check.
        """
        x, y = self.objects[i], self.objects[j]
        if y.kind is ObjectKind.WAVE and x.kind is not ObjectKind.WAVE:
            return self.count(j, i)
        a, b = _fund(x, self, i)
        ends = _fund_ends(x)
        segments = [
            ((s * a[0], s * a[1]), (s * b[0], s * b[1]), ends)
            for s in _SIGNS[self.piece]
        ]
        raw = _crossing_events(x, segments, y, _fund(y, self, j), self, count_only=True)
        if self.piece is PieceKind.FOUR_HOLED_SPHERE:
            if raw % 2:
                raise AssertionError(
                    f"odd cover count {raw} for {x} vs {y}; realization bug"
                )
            return raw // 2
        return raw


def _pt_add(a: Point, b: Point) -> Point:
    return (a[0] + b[0], a[1] + b[1])


def _pt_scale(t: Fraction, a: Point) -> Point:
    return (t * a[0], t * a[1])


_SIGNS = {PieceKind.ONE_HOLED_TORUS: (1,), PieceKind.FOUR_HOLED_SPHERE: (1, -1)}

IntPoint = tuple[int, int]


def _corner_units(label: str, scale: int) -> IntPoint:
    """The corner's half-lattice lift in units of 1/scale (scale is even)."""
    a, b = corner_vec(label)
    return (a * scale // 2, b * scale // 2)


def _fund(
    obj: PieceObject, ctx: RealizationContext, index: int
) -> tuple[IntPoint, IntPoint]:
    """The plane segment projecting one-to-one onto obj, in units of 1/scale.

    The plane preimage of obj is sign*fund + scale*v over v in Z^2 and the
    signs of its piece: +1 on the torus, +-1 on the pillowcase, which is
    the plane modulo x -> -x and the translations.  A curve's segment is
    one period [a, b) from its anchor a, read half open: b is a's
    translate, the same point of the curve.
    """
    L, q, p = ctx.scale, obj.slope.q, obj.slope.p
    if obj.kind is ObjectKind.CURVE:
        _, x0, y0 = _extgcd(p, q)
        o = ctx.curve_shift(index)
        a = (o * x0, -o * y0)
        return a, (a[0] + L * q, a[1] + L * p)
    if obj.piece is PieceKind.ONE_HOLED_TORUS:
        return (0, 0), (L * q, L * p)
    cx, cy = _corner_units(obj.endpoints[0], L)
    if obj.kind is ObjectKind.SEAM:
        # half of the sigma-invariant loop: base corner to partner corner
        return (cx, cy), (cx + L // 2 * q, cy + L // 2 * p)
    # wave: straight loop at a small normal offset from the seam line,
    # opened up by a small gap at the end corner; the cone angle pi turns
    # the straight quotient into the U-turn around the 'over' corner.
    eps, gap = ctx.normal_shift(index), ctx.gap
    bx, by = cx + eps * p, cy - eps * q
    return (bx + gap * q, by + gap * p), (bx + (L - gap) * q, by + (L - gap) * p)


def _fund_ends(obj: PieceObject) -> tuple[str | None, ...]:
    """Cone-point labels at the two ends of obj's fundamental segment."""
    return obj.endpoints if obj.kind is ObjectKind.SEAM else (None, None)


def cover_segments(
    obj: PieceObject, ctx: RealizationContext, index: int
) -> tuple[SegmentRep, ...]:
    """Plane segments projecting bijectively onto the torus-cover preimage.

    On the torus the preimage is the object itself; on the pillowcase it is
    the full preimage in R^2/Z^2: the fundamental segment and its image
    under x -> -x (two loops for a curve, the two halves of one
    sigma-invariant loop for a seam, two truncated loops for a wave).  A
    curve's segments are periods, read half open from their starts.
    """
    L = ctx.scale
    fund = [(Fraction(x, L), Fraction(y, L)) for x, y in _fund(obj, ctx, index)]
    return tuple(
        SegmentRep(*((s * x, s * y) for x, y in fund)) for s in _SIGNS[obj.piece]
    )


# ---------------------------------------------------------------------------
# crossing-event kernel


def _strict_between_count(f0, f1, unit=1) -> int:
    """How many multiples of unit lie strictly between f0 and f1."""
    lo, hi = (f0, f1) if f0 <= f1 else (f1, f0)
    return max(0, -(-hi // unit) - 1 - lo // unit)


def _crossing_events(
    x_obj: PieceObject,
    x_segments: Sequence[tuple[IntPoint, IntPoint, tuple[str | None, ...]]],
    y_obj: PieceObject,
    y_fund: tuple[IntPoint, IntPoint],
    ctx: RealizationContext,
    count_only: bool = False,
) -> list | int:
    """Crossings of plane segments of x with the whole plane preimage of y.

    x_segments are (a, b, ends) in units of 1/ctx.scale (L), ends naming the
    cone point at each end or None; y_fund is y's fundamental segment, whose
    lifts sign*y_fund + L*v make up y's preimage.

    y's slope p/q has an integer frame: with p*x0 + q*y0 = 1 (extgcd),
    c(P) = p*P[0] - q*P[1] is constant along the slope's direction
    w = (q, p), e(P) = y0*P[0] + x0*P[1] has e(w) = 1, and the unit point
    u = (x0, -y0) has c(u) = 1, e(u) = 0, so P = c(P)*u + e(P)*w.  In this
    frame every lift lies on a line c = sign*c(y_fund) (mod L), so a segment
    meets those lines where c - sign*c(y_fund) is a multiple of L strictly
    inside its range, and each hit is located on the lift through it by
    its e-coordinate modulo L; a wave's lifts leave a gap on their lines,
    which filters its hits.

    When x is a closed curve its segments are periods, read half open: a
    hit at the start is the crossing at t_x = 0, and the end is the same
    point again.  (dc is L*det, so both ends are on y's lines or neither.)

    Returns the events (t_x, t_y, (sign, shift)): t_x on the x segment and
    t_y on y_fund as (numerator, denominator), and the deck map
    z -> sign*z + shift taking y_fund(t_y) to the crossing.  With
    count_only it returns their number, counting a family whose lifts
    cover its lines (curves, seams) without visiting its hits.

    Raises DegenerateRealization when a seam or wave x segment ends on y,
    when y passes a cone point of x that is not one of y's ends, or when a
    crossing lands on a tip of y.
    """
    L = ctx.scale
    p, q = y_obj.slope.p, y_obj.slope.q
    _, x0, y0 = _extgcd(p, q)
    (yax, yay), (ybx, yby) = y_fund
    cy = p * yax - q * yay
    ey = y0 * yax + x0 * yay
    span = y0 * ybx + x0 * yby - ey  # e-length of y_fund: L when closed
    families: list[tuple[int, list[tuple[int, int]]]] = []
    for sign in _SIGNS[y_obj.piece]:
        for off, lifts in families:
            if (off - sign * cy) % L == 0:  # a seam's halves share lines
                lifts.append((sign, (off - sign * cy) // L))
                break
        else:
            families.append((sign * cy, [(sign, 0)]))
    y_labels = y_obj.endpoints if y_obj.kind is ObjectKind.SEAM else ()
    closed = x_obj.kind is ObjectKind.CURVE
    events = []
    total = 0
    for a, b, ends in x_segments:
        ca = p * a[0] - q * a[1]
        dc = p * b[0] - q * b[1] - ca
        if dc == 0:
            continue  # parallel to y
        for off, lifts in families:
            f0 = ca - off
            count = _strict_between_count(f0, f0 + dc, L)
            k0 = min(f0, f0 + dc) // L + 1
            if closed:
                if f0 % L == 0:  # the line through the start: hit k = f0 / L
                    count += 1
                    if dc > 0:
                        k0 -= 1
            else:
                for f, pt, label in ((f0, a, ends[0]), (f0 + dc, b, ends[1])):
                    # an end on y's line is a touch at a shared cone point,
                    # and nothing at all where the line runs in a wave's gap
                    if f % L or label in y_labels:
                        continue
                    e = y0 * pt[0] + x0 * pt[1]
                    if all((s * e - ey) % L > span for s, _ in lifts):
                        continue
                    if label is None:
                        raise DegenerateRealization(
                            f"an end of {x_obj} lies on {y_obj}"
                        )
                    raise DegenerateRealization(
                        f"{y_obj} passes foreign cone point {label}"
                    )
            if count_only and len(lifts) * span >= L:
                total += count
                continue
            ea = y0 * a[0] + x0 * a[1]
            de = y0 * b[0] + x0 * b[1] - ea
            den, sgn = (dc, 1) if dc > 0 else (-dc, -1)
            for k in range(k0, k0 + count):
                num = sgn * (k * L - f0)  # t_x = num / den
                e_hit = ea * den + num * de  # e of the hit, times den
                for s, dk in lifts:
                    m, r = divmod(s * e_hit - ey * den, L * den)
                    if r > span * den:
                        continue
                    if span < L and (r == 0 or r == span * den):
                        raise DegenerateRealization(
                            f"a crossing of {x_obj} sits at a tip of {y_obj}"
                        )
                    if count_only:
                        total += 1
                    else:
                        cv, ev = k + dk, s * m  # the lattice vector v = cv*u + ev*w
                        shift = (L * (cv * x0 + ev * q), L * (ev * p - cv * y0))
                        events.append(((num, den), (r, span * den), (s, shift)))
                    break
    return total if count_only else events


# ---------------------------------------------------------------------------
# literal counter


def _cross(a: Point, b: Point) -> Fraction:
    return a[0] * b[1] - a[1] * b[0]


def _is_cone_point(pt: Point, piece: PieceKind) -> str | None:
    """The cone-point label of a plane point, or None."""
    if piece is PieceKind.ONE_HOLED_TORUS:
        if pt[0].denominator == 1 and pt[1].denominator == 1:
            return TORUS_MARK
        return None
    two = (2 * pt[0], 2 * pt[1])
    if two[0].denominator == 1 and two[1].denominator == 1:
        return f"{int(two[0]) % 2}{int(two[1]) % 2}"
    return None


def _segment_crossing(
    s: SegmentRep, t: SegmentRep
) -> tuple[Fraction, Fraction, Point] | None:
    ds, dt = s.direction(), t.direction()
    denom = _cross(ds, dt)
    if denom == 0:
        return None
    diff = (t.a[0] - s.a[0], t.a[1] - s.a[1])
    u = _cross(diff, dt) / denom
    v = _cross(diff, ds) / denom
    if u < 0 or u > 1 or v < 0 or v > 1:
        return None
    pt = _pt_add(s.a, _pt_scale(u, ds))
    return u, v, pt


def _literal_count(
    x_obj: PieceObject,
    x_segments: Sequence[SegmentRep],
    y_obj: PieceObject,
    y_segments: Sequence[SegmentRep],
    piece: PieceKind,
    closed: tuple[bool, bool],
    margin: int = 1,
) -> int:
    """Crossings of x's cover with all integer translates of y's cover.

    closed tells, for x and y, if the segments are closed-curve periods,
    read half open; a hit at any other segment end raises.
    """
    x_closed, y_closed = closed
    x_labels = x_obj.realization_corner_labels()
    y_labels = y_obj.realization_corner_labels()
    total = 0
    for xs in x_segments:
        xlo = (min(xs.a[0], xs.b[0]), min(xs.a[1], xs.b[1]))
        xhi = (max(xs.a[0], xs.b[0]), max(xs.a[1], xs.b[1]))
        for ys in y_segments:
            ylo = (min(ys.a[0], ys.b[0]), min(ys.a[1], ys.b[1]))
            yhi = (max(ys.a[0], ys.b[0]), max(ys.a[1], ys.b[1]))
            i_lo = math.floor(xlo[0] - yhi[0]) - margin
            i_hi = math.ceil(xhi[0] - ylo[0]) + margin
            j_lo = math.floor(xlo[1] - yhi[1]) - margin
            j_hi = math.ceil(xhi[1] - ylo[1]) + margin
            for i in range(i_lo, i_hi + 1):
                for j in range(j_lo, j_hi + 1):
                    shift: Point = (Fraction(i), Fraction(j))
                    moved = SegmentRep(
                        a=_pt_add(ys.a, shift), b=_pt_add(ys.b, shift)
                    )
                    hit = _segment_crossing(xs, moved)
                    if hit is None:
                        continue
                    u, v, pt = hit
                    label = _is_cone_point(pt, piece)
                    if label is not None:
                        if label in x_labels and label in y_labels:
                            continue
                        raise DegenerateRealization(
                            f"crossing of {x_obj} and {y_obj} at unshared "
                            f"cone point {label}"
                        )
                    if (u in (0, 1) and not x_closed) or (v in (0, 1) and not y_closed):
                        raise DegenerateRealization(
                            f"crossing at a segment endpoint of {x_obj}/{y_obj}"
                        )
                    if u != 1 and v != 1:
                        total += 1
    return total


# ---------------------------------------------------------------------------
# public counting interface


def intersection_number(x: PieceObject, y: PieceObject) -> int:
    """Geometric crossing number of two objects on a piece.

    Identical descriptors count zero; otherwise the pair is realized on its
    own and counted by RealizationContext.count.
    """
    if x.piece is not y.piece:
        raise ValueError("objects live on different pieces")
    if x == y:
        return 0
    return RealizationContext((x, y)).count(0, 1)


def literal_intersection_number(
    x: PieceObject,
    y: PieceObject,
    ctx: RealizationContext | None = None,
    margin: int = 1,
    custom_x: Sequence[SegmentRep] | None = None,
    custom_y: Sequence[SegmentRep] | None = None,
) -> int:
    """The literal-counter route, optionally on custom realizations.

    A canonical curve's periods are read half open, as by the kernel;
    custom segments raise DegenerateRealization when hit at an end.
    """
    if x.piece is not y.piece:
        raise ValueError("objects live on different pieces")
    if ctx is None:
        ctx = RealizationContext((x, y))
    ix = ctx.objects.index(x)
    iy = ctx.objects.index(y)
    if x == y and custom_x is None and custom_y is None:
        return 0
    xs = cover_segments(x, ctx, ix) if custom_x is None else custom_x
    ys = cover_segments(y, ctx, iy) if custom_y is None else custom_y
    closed = (
        custom_x is None and x.kind is ObjectKind.CURVE,
        custom_y is None and y.kind is ObjectKind.CURVE,
    )
    raw = _literal_count(x, xs, y, ys, x.piece, closed, margin=margin)
    if x.piece is PieceKind.FOUR_HOLED_SPHERE:
        if raw % 2:
            raise AssertionError(f"odd cover count {raw} for {x} vs {y}")
        return raw // 2
    return raw


def tightness_check(
    x: PieceObject,
    y: PieceObject,
    custom_x: Sequence[SegmentRep] | None = None,
    custom_y: Sequence[SegmentRep] | None = None,
    margin: int = 1,
) -> dict:
    """Compare a literal count (possibly of custom realizations) with the
    canonical count; equality certifies the drawn position is tight."""
    canonical = intersection_number(x, y)
    literal = literal_intersection_number(
        x, y, margin=margin, custom_x=custom_x, custom_y=custom_y
    )
    return {
        "canonical": canonical,
        "literal": literal,
        "tight": literal == canonical,
    }


# ---------------------------------------------------------------------------
# endpoint linking of torus arcs


def _angle_cmp_from(base: Point):
    """Strict ccw order starting just after the direction base."""

    def dot(a: Point, b: Point) -> Fraction:
        return a[0] * b[0] + a[1] * b[1]

    def half(v: Point) -> int:
        c = _cross(base, v)
        if c > 0:
            return 0
        if c < 0:
            return 1
        if dot(base, v) < 0:
            return 0  # exactly opposite: angle pi, end of first half
        raise AssertionError("ray coincides with the reference ray")

    def cmp(a: Point, b: Point) -> int:
        ha, hb = half(a), half(b)
        if ha != hb:
            return -1 if ha < hb else 1
        c = _cross(a, b)
        if c > 0:
            return -1
        if c < 0:
            return 1
        raise AssertionError("two rays share a direction; realization bug")

    return cmp


def endpoint_linking(a: PieceObject, b: PieceObject) -> bool:
    """Whether two torus arcs' end directions alternate around the mark.

    Each arc leaves the marked point in directions +-(q, p); read
    counter-clockwise from a's first ray, the other three rays must belong
    to b, a, b.
    """
    for obj in (a, b):
        if (
            obj.piece is not PieceKind.ONE_HOLED_TORUS
            or obj.kind is not ObjectKind.SEAM
        ):
            raise ValueError("endpoint linking is about torus arcs")
    if a.slope == b.slope:
        raise ValueError("arcs must have distinct slopes")
    d_a = (a.slope.q, a.slope.p)
    d_b = (b.slope.q, b.slope.p)
    rays = [((-d_a[0], -d_a[1]), "a"), (d_b, "b"), ((-d_b[0], -d_b[1]), "b")]
    cmp = _angle_cmp_from(d_a)
    rays.sort(key=cmp_to_key(lambda x, y: cmp(x[0], y[0])))
    return [o for _, o in rays] == ["b", "a", "b"]
