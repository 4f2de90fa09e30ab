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
locates each hit on the other's fundamental segment exactly.  It reads
both objects from their frames: a context builds each object's frame
once, on first use, and keeps it as long as the context lives (no frame
outlives its context).  The x side of a frame is the object's plane
segments with both signs on the pillowcase; the y side is its slope's
integer frame (below), its offsets and its line families.
``RealizationContext.count(i, j)`` is the one counting entry: it counts
these events for two objects of a context on the torus cover and halves
on the pillowcase (with an evenness check).  ``intersection_number``
counts a pair through it, and the drivers count every pair of a fixture
or of a sweep's piece on one context; the ribbon walk builds its
crossing graph from the events and checks their number against it.  A literal counter is
kept as the independent oracle (``literal_intersection_number``,
``tightness_check``): for each pair of segments it walks the integer
columns of their Minkowski difference, where every lattice translate
that meets is found by two floor divisions, so it costs the columns plus
the crossings, in the same integer units and with no slope frame.  No
determinant formula is assumed anywhere in this module.
"""

from __future__ import annotations

import math
import random
from dataclasses import FrozenInstanceError
from enum import Enum
from typing import Sequence

from .slopes import Slope, _extgcd, slopes_up_to

IntPoint = tuple[int, int]


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


class PieceObject:
    """An essential curve, seam, or wave on one of the two pieces.

    The class is slotted and its methods are written by hand, as for
    ``Slope``: sweeps build and compare thousands of objects.  Objects are
    immutable (assignment raises FrozenInstanceError) and equality is field
    equality.  The hash must stay hash((piece, kind, slope, endpoints,
    over)): object-keyed sets iterate in hash order.
    """

    __slots__ = ("piece", "kind", "slope", "endpoints", "over")

    def __init__(
        self,
        piece: PieceKind,
        kind: ObjectKind,
        slope: Slope,
        endpoints: tuple[str, ...] = (),
        over: str | None = None,
    ) -> None:
        if kind is ObjectKind.CURVE:
            if endpoints or over is not None:
                raise ValueError("a curve has no endpoints")
        elif kind is ObjectKind.SEAM:
            if over is not None:
                raise ValueError("only waves carry an 'over' corner")
            if piece is PieceKind.ONE_HOLED_TORUS:
                if endpoints != (TORUS_MARK, TORUS_MARK):
                    raise ValueError("torus arcs end at the marked point twice")
            else:
                if len(endpoints) != 2:
                    raise ValueError("a seam joins two corners")
                a, b = endpoints
                if partner_label(slope, a) != b:
                    raise ValueError(
                        f"corners {a},{b} are not joined by slope {slope}"
                    )
                if endpoints != tuple(sorted(endpoints)):
                    raise ValueError("seam endpoints must be sorted")
        elif kind is ObjectKind.WAVE:
            if piece is not PieceKind.FOUR_HOLED_SPHERE:
                raise ValueError("waves live on the four-holed sphere")
            if len(endpoints) != 1 or over is None:
                raise ValueError("a wave has one end corner and one 'over' corner")
            if partner_label(slope, endpoints[0]) != over:
                raise ValueError("wave corners must be partners for its slope")
        _set_piece(self, piece)
        _set_kind(self, kind)
        _set_slope(self, slope)
        _set_endpoints(self, endpoints)
        _set_over(self, over)

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is PieceObject:
            return (
                self.kind is other.kind
                and self.piece is other.piece
                and self.slope == other.slope
                and self.endpoints == other.endpoints
                and self.over == other.over
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.piece, self.kind, self.slope, self.endpoints, self.over))

    def __reduce__(self):
        return (
            PieceObject,
            (self.piece, self.kind, self.slope, self.endpoints, self.over),
        )

    def __repr__(self) -> str:
        return (
            f"PieceObject(piece={self.piece!r}, kind={self.kind!r}, "
            f"slope={self.slope!r}, endpoints={self.endpoints!r}, "
            f"over={self.over!r})"
        )

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


# The slot descriptors write the fields past the frozen __setattr__.
_set_piece, _set_kind, _set_slope, _set_endpoints, _set_over = (
    getattr(PieceObject, name).__set__ for name in PieceObject.__slots__
)


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


class RealizationContext:
    """Deterministic exact offsets for a family of coexisting objects.

    Offsets are graded so that all degeneracies (crossings at seam or wave
    ends, cone-point hits away from shared endpoints) are impossible.  Only
    wave offsets depend on shrink, so scaled(k) moves the waves alone.

    count(i, j) is the one entry to the crossing kernel: objects are
    named by their index here, and a crossing number, an invariant of the
    isotopy classes, comes out the same in every realization.  So a driver
    counts all the pairs of a fixture, or of a whole sweep, on one context.

    Each object has a frame of two sides, each built once, on first use,
    and kept as long as the context: x_side(i) when the object is the one
    whose segments cross, y_side(i) when it is the one crossed.  count,
    the ribbon walk and the literal counter all read them, so a context
    computes no object's frame twice however many pairs it counts.

    A closed curve's fundamental segment runs over one period [a, b) from
    its anchor a, half open, so each point of the curve is on it once; an
    anchor on another object is just a crossing at t = 0.  The kernel and
    the literal counter both read it so.  The offsets are all multiples of
    1/scale.
    """

    def __init__(self, objects: Sequence[PieceObject], shrink: int = 1):
        if not objects:
            raise ValueError("empty configuration")
        self.piece = piece = objects[0].piece
        self.norm = 0
        for o in objects:
            if o.piece is not piece:
                raise ValueError("objects must share a piece")
            self.norm = max(self.norm, o.slope.p**2 + o.slope.q**2)
        self.torus = piece is PieceKind.ONE_HOLED_TORUS
        self.objects = tuple(objects)
        self.shrink = shrink
        n1 = len(objects) + 1
        self.scale = 256 * n1**2 * self.norm**3 * shrink
        # offsets in units of 1/scale: curve i sits (2i+1)/(4(n+1)) off its
        # lattice line; a wave is opened by a gap of 1/(64(n+1)norm^2) at its
        # end corner and lies (i+1)/(256(n+1)^2 norm^3) normals off its seam,
        # both divided by shrink
        self.gap = 4 * n1 * self.norm
        self._curve_unit = 64 * n1 * self.norm**3 * shrink
        self._xs: list = [None] * len(self.objects)
        self._ys: list = [None] * len(self.objects)

    def scaled(self, factor: int) -> "RealizationContext":
        """A context with the wave offsets divided by factor (stability);
        curve and seam positions do not depend on shrink."""
        return RealizationContext(self.objects, self.shrink * factor)

    def _fund(self, index: int, x0: int, y0: int) -> tuple[IntPoint, IntPoint]:
        """The plane segment (a, b) projecting one-to-one onto object index,
        in units of 1/scale; x0, y0 solve p*x0 + q*y0 = 1 for its slope p/q
        (only a curve's anchor reads them).

        The plane preimage of the object is sign*(a, b) + scale*v over v in
        Z^2 and the signs of the piece.  A curve's segment is one period
        [a, b) from its anchor a, read half open: b is a's translate, the
        same point of the curve.
        """
        obj = self.objects[index]
        L, kind, p, q = self.scale, obj.kind, obj.slope.p, obj.slope.q
        if kind is ObjectKind.CURVE:
            o = (2 * index + 1) * self._curve_unit
            return (o * x0, -o * y0), (o * x0 + L * q, L * p - o * y0)
        if self.torus:
            return (0, 0), (L * q, L * p)
        cx, cy = _corner_units(obj.endpoints[0], L)
        if kind is ObjectKind.SEAM:
            # half of the sigma-invariant loop: base corner to partner corner
            return (cx, cy), (cx + L // 2 * q, cy + L // 2 * p)
        # wave: straight loop at a small normal offset from the seam line,
        # opened up by a small gap at the end corner; the cone angle pi turns
        # the straight quotient into the U-turn around the 'over' corner.
        eps, gap = index + 1, self.gap
        bx, by = cx + eps * p, cy - eps * q
        return (bx + gap * q, by + gap * p), (bx + (L - gap) * q, by + (L - gap) * p)

    def x_side(self, index: int) -> tuple:
        """The object's plane segments sign*(a, b) with the cone points at
        their ends, (a, b, ends) per sign of the piece: +1 on the torus and
        +-1 on the pillowcase, the first being the fundamental segment."""
        side = self._xs[index]
        if side is None:
            obj = self.objects[index]
            if obj.kind is ObjectKind.CURVE:
                _, x0, y0 = _extgcd(obj.slope.p, obj.slope.q)
            else:
                x0 = y0 = 0
            a, b = self._fund(index, x0, y0)
            ends = _fund_ends(obj)
            side = ((a, b, ends),)
            if not self.torus:
                side += (((-a[0], -a[1]), (-b[0], -b[1]), ends),)
            self._xs[index] = side
        return side

    def y_side(self, index: int) -> tuple:
        """What the kernel sweeps when the object is crossed:
        (p, q, x0, y0, e_a, span, families, labels).

        p/q is its slope and p*x0 + q*y0 = 1; e_a is the e-coordinate of
        its fundamental segment's start and span the segment's e-length
        (see _crossing_events); each line family is (c-offset, lifts on it
        as (sign, lattice step), whether the lifts cover the lines); labels
        are the cone points the object ends at.
        """
        side = self._ys[index]
        if side is None:
            obj = self.objects[index]
            L, p, q = self.scale, obj.slope.p, obj.slope.q
            _, x0, y0 = _extgcd(p, q)
            a, b = self._fund(index, x0, y0)
            c_a = p * a[0] - q * a[1]
            e_a = y0 * a[0] + x0 * a[1]
            span = y0 * b[0] + x0 * b[1] - e_a  # L when closed
            if self.torus:
                families = ((c_a, ((1, 0),), span >= L),)
            elif 2 * c_a % L == 0:  # a seam's halves share lines
                families = ((c_a, ((1, 0), (-1, 2 * c_a // L)), 2 * span >= L),)
            else:
                families = (
                    (c_a, ((1, 0),), span >= L),
                    (-c_a, ((-1, 0),), span >= L),
                )
            labels = obj.endpoints if obj.kind is ObjectKind.SEAM else ()
            side = self._ys[index] = (p, q, x0, y0, e_a, span, families, labels)
        return side

    def count(self, i: int, j: int) -> int:
        """Geometric crossing number of objects i and j (0 when i == j).

        The crossing events of one object's torus-cover segments with the
        other's preimage are counted; a wave takes the segment side against
        a curve or seam, whose line families are then counted without
        visiting their hits.  A curve on the segment side covers its period
        half open, so a crossing at its anchor counts once.  On the
        pillowcase the cover count is halved after an evenness check.
        """
        x, y = self.objects[i], self.objects[j]
        if y.kind is ObjectKind.WAVE and x.kind is not ObjectKind.WAVE:
            i, j, x, y = j, i, y, x
        raw = _crossing_events(
            x, self._xs[i] or self.x_side(i), y, self._ys[j] or self.y_side(j),
            self.scale, True,
        )
        if self.torus:
            return raw
        if raw % 2:
            raise AssertionError(
                f"odd cover count {raw} for {x} vs {y}; realization bug"
            )
        return raw // 2


def _corner_units(label: str, scale: int) -> IntPoint:
    """The corner's half-lattice lift in units of 1/scale (scale is even)."""
    a, b = corner_vec(label)
    return (a * scale // 2, b * scale // 2)


def _fund_ends(obj: PieceObject) -> tuple[str | None, ...]:
    """Cone-point labels at the two ends of obj's fundamental segment."""
    return obj.endpoints if obj.kind is ObjectKind.SEAM else (None, None)


# ---------------------------------------------------------------------------
# crossing-event kernel


def _crossing_events(
    x_obj: PieceObject,
    x_segments: Sequence[tuple[IntPoint, IntPoint, tuple[str | None, ...]]],
    y_obj: PieceObject,
    y_side: tuple,
    L: int,
    count_only: bool = False,
) -> list | int:
    """Crossings of plane segments of x with the whole plane preimage of y.

    x_segments are (a, b, ends) in units of 1/L, ends naming the cone point
    at each end or None: x's RealizationContext.x_side, or part of it.
    y_side is y's RealizationContext.y_side in the same context, whose
    scale is L.

    y's slope p/q has an integer frame: with p*x0 + q*y0 = 1 (extgcd),
    c(P) = p*P[0] - q*P[1] is constant along the slope's direction
    w = (q, p), e(P) = y0*P[0] + x0*P[1] has e(w) = 1, and the unit point
    u = (x0, -y0) has c(u) = 1, e(u) = 0, so P = c(P)*u + e(P)*w.  In this
    frame every lift sign*fund + L*v of y lies on a line c = sign*c(fund)
    (mod L), so a segment meets those lines where c - sign*c(fund) is a
    multiple of L strictly inside its range, and each hit is located on
    the lift through it by its e-coordinate modulo L; a wave's lifts leave
    a gap on their lines, which filters its hits.

    When x is a closed curve its segments are periods, read half open: a
    hit at the start is the crossing at t_x = 0, and the end is the same
    point again.  (dc is L*det, so both ends are on y's lines or neither.)

    Returns the events (t_x, t_y, (sign, shift)): t_x on the x segment and
    t_y on y's fundamental segment as (numerator, denominator), and the
    deck map z -> sign*z + shift taking fund(t_y) to the crossing.  With
    count_only it returns their number, counting a family whose lifts
    cover its lines (curves, seams) without visiting its hits.

    Raises DegenerateRealization when a seam or wave x segment ends on y,
    when y passes a cone point of x that is not one of y's ends, or when a
    crossing lands on a tip of y.
    """
    p, q, x0, y0, ey, span, families, y_labels = y_side
    closed = x_obj.kind is ObjectKind.CURVE
    events = []
    total = 0
    for a, b, ends in x_segments:
        ca = p * a[0] - q * a[1]
        dc = p * b[0] - q * b[1] - ca
        if dc == 0:
            continue  # parallel to y
        for off, lifts, covers in families:
            f0 = ca - off
            f1 = f0 + dc
            # the hits k*L strictly between f0 and f1, for k0 <= k < k0 + count
            k0 = (f0 if dc > 0 else f1) // L + 1
            count = -(-(f1 if dc > 0 else f0) // L) - k0
            if closed:
                if f0 % L == 0:  # the line through the start: hit k = f0 / L
                    count += 1
                    if dc > 0:
                        k0 -= 1
            elif f0 % L == 0 or f1 % L == 0:
                for f, pt, label in ((f0, a, ends[0]), (f1, b, ends[1])):
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
            if count_only and covers:
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


def _cross(a: IntPoint, b: IntPoint) -> int:
    return a[0] * b[1] - a[1] * b[0]


def _j_bounds(n: int, a: int, den: int) -> tuple[int, int] | None:
    """The integers j with 0 <= n - a*j <= den (den > 0) as a closed range
    (lo, hi), empty when lo > hi; None when a == 0 and every j qualifies."""
    if a < 0:  # the condition is the same for den - n and -a
        n, a = den - n, -a
    if a:
        return -((den - n) // a), n // a
    return None if 0 <= n <= den else (1, 0)


def _literal_count(
    x_obj: PieceObject,
    x_segments: Sequence[tuple[IntPoint, IntPoint]],
    y_obj: PieceObject,
    y_segments: Sequence[tuple[IntPoint, IntPoint]],
    unit: int,
    closed: tuple[bool, bool],
) -> int:
    """Crossings of x's segments with every lattice translate of y's.

    Segments are (a, b) in units of 1/unit, so the deck lattice is
    unit*Z^2, and unit is even.  For an x segment A -> B and a y segment
    C -> D with den = cross(dX, dY) != 0, the translate v = unit*(i, j)
    meets x where s = cross(C + v - A, dY) / den and
    t = cross(C + v - A, dX) / den both lie in [0, 1]; such v fill the
    parallelogram A - C + s*dX - t*dY.  Its integer columns i are walked,
    and in each column both conditions are linear in j, so one floor
    division per condition gives the whole interval of hits: the cost is
    the number of columns plus the number of hits, not the area.

    At each hit: a cone point (a multiple of unit on the torus, of unit/2
    on the pillowcase) shared by both objects is no crossing, and any
    other raises DegenerateRealization; so does a hit at an end of a
    segment, unless closed tells (for x and for y) that the segments are
    closed-curve periods, which are read half open: s = 1 or t = 1 is
    the start of the next period and is not counted.
    """
    x_closed, y_closed = closed
    # the cone points both realizations end at (None, for no cone point,
    # is never a hit's label)
    shared = set(_fund_ends(x_obj)) & set(_fund_ends(y_obj))
    torus = x_obj.piece is PieceKind.ONE_HOLED_TORUS
    cone = unit if torus else unit // 2
    total = 0
    for a, b in x_segments:
        dx = (b[0] - a[0], b[1] - a[1])
        for c, d in y_segments:
            dy = (d[0] - c[0], d[1] - c[1])
            den = _cross(dx, dy)
            if den == 0:
                continue  # parallel: no transversal crossing
            sg = 1 if den > 0 else -1
            den *= sg
            m = cone * den
            wx, wy = c[0] - a[0], c[1] - a[1]  # C - A; v adds unit*(i, j)
            lo = min(0, dx[0]) + min(0, -dy[0]) - wx
            hi = max(0, dx[0]) + max(0, -dy[0]) - wx
            for i in range(-(-lo // unit), hi // unit + 1):
                ws = wx + unit * i
                # s*den = n_s - a_s*j and t*den = n_t - a_t*j
                n_s, a_s = sg * (ws * dy[1] - wy * dy[0]), sg * unit * dy[0]
                n_t, a_t = sg * (ws * dx[1] - wy * dx[0]), sg * unit * dx[0]
                bounds = [
                    r
                    for r in (_j_bounds(n_s, a_s, den), _j_bounds(n_t, a_t, den))
                    if r is not None
                ]
                for j in range(
                    max(r[0] for r in bounds), min(r[1] for r in bounds) + 1
                ):
                    s_num, t_num = n_s - a_s * j, n_t - a_t * j
                    # the hit times den, on the cone-point grid or not
                    px, py = a[0] * den + s_num * dx[0], a[1] * den + s_num * dx[1]
                    if px % m == 0 and py % m == 0:
                        label = (
                            TORUS_MARK if torus else f"{px // m % 2}{py // m % 2}"
                        )
                        if label in shared:
                            continue
                        raise DegenerateRealization(
                            f"crossing of {x_obj} and {y_obj} at unshared "
                            f"cone point {label}"
                        )
                    if (s_num in (0, den) and not x_closed) or (
                        t_num in (0, den) and not y_closed
                    ):
                        raise DegenerateRealization(
                            f"crossing at a segment endpoint of {x_obj}/{y_obj}"
                        )
                    if s_num != den and t_num != den:
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
    custom_x: Sequence[tuple[tuple, tuple]] | None = None,
    custom_y: Sequence[tuple[tuple, tuple]] | None = None,
) -> int:
    """The literal-counter route, optionally on custom realizations.

    A custom realization is the object's whole torus-cover preimage, given
    as segments (a, b) between rational points in lattice units (the deck
    lattice is Z^2).  The counter's unit is then the lcm of ctx.scale and
    their denominators.  A canonical curve's periods are read half open,
    as by the kernel; custom segments raise DegenerateRealization when hit
    at an end.  On the pillowcase the preimage is invariant under x -> -x,
    so a custom realization giving an odd cover count raises ValueError.
    """
    if x.piece is not y.piece:
        raise ValueError("objects live on different pieces")
    if ctx is None:
        ctx = RealizationContext((x, y))
    if x == y and custom_x is None and custom_y is None:
        return 0
    unit = ctx.scale
    for seg in (*(custom_x or ()), *(custom_y or ())):
        for c in (*seg[0], *seg[1]):
            unit *= (unit * c).denominator  # now a multiple of c's denominator
    k = unit // ctx.scale

    def segments(obj, custom):
        if custom is not None:
            return [
                tuple(((unit * px).numerator, (unit * py).numerator) for px, py in seg)
                for seg in custom
            ]
        return [
            ((k * a[0], k * a[1]), (k * b[0], k * b[1]))
            for a, b, _ in ctx.x_side(ctx.objects.index(obj))
        ]

    closed = (
        custom_x is None and x.kind is ObjectKind.CURVE,
        custom_y is None and y.kind is ObjectKind.CURVE,
    )
    raw = _literal_count(
        x, segments(x, custom_x), y, segments(y, custom_y), unit, closed
    )
    if x.piece is PieceKind.FOUR_HOLED_SPHERE:
        if raw % 2:
            given = ("custom_x", custom_x), ("custom_y", custom_y)
            custom = [name for name, c in given if c is not None]
            if custom:
                raise ValueError(
                    f"{' or '.join(custom)} is not a sign-symmetric preimage: "
                    f"odd cover count {raw} for {x} vs {y}"
                )
            raise AssertionError(f"odd cover count {raw} for {x} vs {y}")
        return raw // 2
    return raw


def tightness_check(
    x: PieceObject,
    y: PieceObject,
    custom_x: Sequence[tuple[tuple, tuple]] | None = None,
    custom_y: Sequence[tuple[tuple, tuple]] | None = None,
) -> dict:
    """Compare a literal count (possibly of custom realizations) with the
    canonical count; equality certifies the drawn position is tight."""
    canonical = intersection_number(x, y)
    literal = literal_intersection_number(x, y, custom_x=custom_x, custom_y=custom_y)
    return {
        "canonical": canonical,
        "literal": literal,
        "tight": literal == canonical,
    }


# ---------------------------------------------------------------------------
# endpoint linking of torus arcs


def _ccw_order(base: IntPoint, rays: Sequence[IntPoint]) -> list[int]:
    """Indices of rays in strict counterclockwise order, starting just after
    the direction base.

    Inside each open half-plane of base the angle grows with -dot/cross,
    which times the lcm of the nonzero |cross| is an exact integer key.
    The ray opposite base closes the first half.
    """
    crosses = [_cross(base, v) for v in rays]
    unit = math.lcm(*(c for c in crosses if c))
    keys = []
    for v, c in zip(rays, crosses):
        dot = base[0] * v[0] + base[1] * v[1]
        if c:
            keys.append((c < 0, 0, -dot * (unit // c)))
        elif dot < 0:
            keys.append((False, 1, 0))
        else:
            raise AssertionError("ray coincides with the reference ray")
    if len(set(keys)) != len(keys):
        raise AssertionError("two rays share a direction; realization bug")
    return sorted(range(len(rays)), key=keys.__getitem__)


def endpoint_linking(a: PieceObject, b: PieceObject) -> bool:
    """Whether two torus arcs' end directions alternate around the mark.

    Each arc leaves the marked point in directions +-(q, p).  `_ccw_order`
    reads a's second ray and b's two counterclockwise from a's first; the
    arcs link when a's second ray comes between b's two.
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
    rays = [(-d_a[0], -d_a[1]), d_b, (-d_b[0], -d_b[1])]
    return _ccw_order(d_a, rays)[1] == 0
