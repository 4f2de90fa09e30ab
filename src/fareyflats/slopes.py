"""Exact Farey graph primitives.

Vertices are reduced slopes p/q (q >= 0) together with 1/0, written "1/0"
and standing for the vertical direction.  Two slopes p/q and r/s span an
edge exactly when |p*s - r*q| = 1.  All arithmetic is integer arithmetic;
distances returned by :func:`distance` are distances in the full infinite
graph, not in any truncation.

The height of p/q is max(|p|, q).  Operations that would otherwise touch
infinitely many vertices (neighbour enumeration, truncated graphs) take an
explicit height bound.
"""

from __future__ import annotations

import sys
from dataclasses import FrozenInstanceError
from fractions import Fraction
from functools import lru_cache
from math import gcd


class Slope:
    """A reduced rational slope p/q with q >= 0, or 1/0.

    The constructor canonicalizes: common factors are removed, the sign is
    carried by the numerator, and every (p, 0) input collapses to 1/0.
    Canonicalization is idempotent; equality is field equality.  Slopes are
    immutable (assignment raises FrozenInstanceError) and unordered.

    The class is slotted and its methods are written by hand because every
    layer builds and hashes slopes and a slope pool holds one per vertex,
    so construction, hashing, equality and size all count.  The hash must
    stay hash((p, q)): slope-keyed sets and dicts iterate in hash order, and
    the pinned reports and seeded draws depend on that order.
    """

    __slots__ = ("p", "q")

    def __init__(self, p: int, q: int) -> None:
        if q <= 0 or gcd(p, q) != 1:  # not already canonical
            if q == 0:
                if p == 0:
                    raise ValueError("slope 0/0 is not defined")
                p = 1
            else:
                g = gcd(abs(p), abs(q))
                p //= g
                q //= g
                if q < 0:
                    p, q = -p, -q
        _set_p(self, p)
        _set_q(self, q)

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is Slope:
            return self.p == other.p and self.q == other.q
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.p, self.q))

    def __reduce__(self):
        return (Slope, (self.p, self.q))

    @property
    def height(self) -> int:
        return max(abs(self.p), self.q)

    @property
    def is_infinity(self) -> bool:
        return self.q == 0

    def sort_key(self) -> tuple[int, int, int]:
        return (self.height, self.q, self.p)

    def __neg__(self) -> "Slope":
        return Slope(-self.p, self.q) if self.q else self

    def __str__(self) -> str:
        return f"{self.p}/{self.q}"

    def __repr__(self) -> str:
        return f"Slope({self.p}, {self.q})"

    @staticmethod
    def parse(text: str) -> "Slope":
        """Parse the wire format "p/q" (q >= 0 after canonicalization)."""
        parts = text.strip().split("/") if isinstance(text, str) else []
        try:
            p, q = map(int, parts)  # not two parts: ValueError too
        except ValueError as exc:
            # int() refuses a run of more digits than the interpreter's
            # string-conversion limit (none before 3.10.7) before the rest
            limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
            if limit and any(sum(map(str.isdigit, t)) > limit for t in parts):
                raise ValueError(
                    f"slope {excerpt(text)} has more than {limit} digits in p "
                    "or q, the interpreter's integer string-conversion limit"
                ) from exc
            raise ValueError(f"slope must be written p/q, got {excerpt(text)}") from exc
        return Slope(p, q)


# The slot descriptors write the fields past the frozen __setattr__.
_set_p = Slope.p.__set__
_set_q = Slope.q.__set__


def excerpt(value) -> str:
    """repr(value), cut after 40 characters, so huge input is not echoed."""
    shown = repr(value)
    return shown if len(shown) <= 40 else shown[:40] + "..."


INFINITY = Slope(1, 0)


def det(a: Slope, b: Slope) -> int:
    """The integer p_a*q_b - q_a*p_b; its absolute value 1 means adjacency."""
    return a.p * b.q - a.q * b.p


def adjacent(a: Slope, b: Slope) -> bool:
    return abs(det(a, b)) == 1


def slope_from_direction(v: tuple[int, int]) -> Slope:
    """Slope whose direction vector is parallel to v (v need not be primitive)."""
    x, y = v
    if x == 0 and y == 0:
        raise ValueError("zero vector has no slope")
    return Slope(y, x)


def _extgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with a*x + b*y = g = gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        quot = old_r // r
        old_r, r = r, old_r - quot * r
        old_x, x = x, old_x - quot * x
        old_y, y = y, old_y - quot * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def _neighbor_pairs(p: int, q: int, height: int, k: int = 1):
    """The canonical (r, s) of every slope r/s of height <= height with
    |p*s - q*r| = k: the neighbours of p/q when k = 1.

    Solves p*s - q*r = k: with p*x + q*y = 1 the solutions are
    (r, s) = (-k*y + t*p, k*x + t*q), and t runs over the window that
    keeps |r| and |s| within the height.  A solution of p*s - q*r = -k is
    the negative of one of these, so bringing each to s >= 0 lists every
    slope once, in increasing t.  For k > 1 only the reduced solutions
    are slopes; for k = 1 every solution is reduced.
    """
    _, x, y = _extgcd(p, q)
    r0, s0 = -k * y, k * x
    lo = hi = None
    for base, step in ((r0, p), (s0, q)):
        if step == 0:
            if abs(base) > height:
                return
            continue
        # -height <= base + t*step <= height, exact integer bounds
        if step > 0:
            t_lo, t_hi = -((height + base) // step), (height - base) // step
        else:
            t_lo, t_hi = -((height - base) // -step), (height + base) // -step
        lo = t_lo if lo is None else max(lo, t_lo)
        hi = t_hi if hi is None else min(hi, t_hi)
    if k == 1:  # FareyGraph's path, kept free of the gcd test
        for t in range(lo, hi + 1):
            r, s = r0 + t * p, s0 + t * q
            yield (r, s) if s > 0 or (s == 0 and r > 0) else (-r, -s)
        return
    for t in range(lo, hi + 1):
        r, s = r0 + t * p, s0 + t * q
        if gcd(r, s) == 1:
            yield (r, s) if s > 0 or (s == 0 and r > 0) else (-r, -s)


def neighbors(a: Slope, height: int, k: int = 1) -> list[Slope]:
    """All slopes adjacent to a with height <= the bound, sorted.

    With k > 1, the slopes v with |det(a, v)| = k instead.  The bound
    must be at least the height of a.
    """
    if height < a.height:
        raise ValueError(
            f"height bound {height} is below the height of {a} ({a.height})"
        )
    return sorted(
        (Slope(r, s) for r, s in _neighbor_pairs(a.p, a.q, height, k)),
        key=Slope.sort_key,
    )


@lru_cache(maxsize=16)
def slopes_up_to(height: int) -> tuple[Slope, ...]:
    """Every slope of height <= the bound (including 1/0), sorted.

    The cache is bounded so that it does not grow with the heights asked.
    """
    if height < 1:
        raise ValueError("height bound must be >= 1")
    out = [INFINITY]
    for q in range(1, height + 1):
        for p in range(-height, height + 1):
            if gcd(abs(p), q) == 1:
                out.append(Slope(p, q))
    out.sort(key=Slope.sort_key)
    return tuple(out)


def _frame(a: Slope, b: Slope) -> tuple[int, int, int, int]:
    """(x, y, p, q) such that [[x, y], [-a.q, a.p]] sends a to 1/0, b to p/q.

    The matrix has determinant one, its inverse is [[a.p, -y], [a.q, x]],
    and q >= 0.  A unimodular image of a reduced pair is reduced, so p/q
    needs no gcd.
    """
    _, x, y = _extgcd(a.p, a.q)
    p, q = x * b.p + y * b.q, a.p * b.q - a.q * b.p
    return (x, y, p, q) if q >= 0 else (x, y, -p, -q)


def distance(a: Slope, b: Slope) -> int:
    """Exact distance between a and b in the infinite Farey graph.

    The columns of b and a are carried through the row operations of
    Euclid's algorithm on b's column.  Each step is a graph automorphism,
    so the distance does not change; at the end b is 1/0 and a is
    p/q = [a0; a1, ..., an].  The hyperbolic segment from 1/0 to p/q
    crosses one fan of Farey triangles per partial quotient: fan k pivots
    on the convergent p_{k-1}/q_{k-1} and its a_k + 1 spokes run from
    p_{k-2}/q_{k-2} to p_k/q_k.  Every path to p_k passes through one of
    the fan's two ends, so the distances D_k from 1/0 to the convergents
    obey D_-1 = 0, D_0 = 1 (a0 is an integer) and
    D_k = min(D_{k-1} + 1, D_{k-2} + a_k).  The cost is O(log H) division
    steps, H the larger height, with no state kept between calls.
    """
    u, v = b.p, b.q
    p, q = a.p, a.q
    while v:
        k = u // v
        u, v = v, u % v
        p, q = q, p - k * q
    if not q:  # det(a, b) = 0: reduced slopes, so a == b
        return 0
    # q may be negative: the remainders are then those of -p/-q negated,
    # and the partial quotients are the same
    before, d = 0, 1
    p, q = q, p % q
    while q:
        ak = p // q
        # min(d + 1, before + ak), without the builtin call on this hot path
        before, d = d, (before + ak if before + ak <= d else d + 1)
        p, q = q, p - ak * q
    return d


def apply_unimodular(m: tuple[int, int, int, int], a: Slope) -> Slope:
    """Linear fractional action of an integer matrix [[m0,m1],[m2,m3]].

    p/q maps to (m0*p + m1*q)/(m2*p + m3*q).  The determinant must be +-1,
    which makes the action a graph automorphism.
    """
    m0, m1, m2, m3 = m
    if abs(m0 * m3 - m1 * m2) != 1:
        raise ValueError("matrix must have determinant +-1")
    return Slope(m0 * a.p + m1 * a.q, m2 * a.p + m3 * a.q)


def slopes_in_interval(lo: Fraction, hi: Fraction, height: int) -> list[Slope]:
    """Finite slopes lo <= p/q <= hi of height <= the bound, sorted."""
    out = [
        s
        for s in slopes_up_to(height)
        if not s.is_infinity and lo <= Fraction(s.p, s.q) <= hi
    ]
    return sorted(out, key=Slope.sort_key)
