"""Slope projections of piece objects and the identities relating them.

Every essential object on a piece determines a vertex of the piece's
curve graph: a contained curve is its own slope, a seam or torus arc
projects to its slope, and a wave projects to the slope of the seam it
doubles: the projection is the object's ``slope``.  Both pieces' curve
graphs are the Farey graph on slopes, so projections are compared with
:func:`fareyflats.slopes.distance`.  The checks in this module recompute
both sides of each identity with the crossing oracle; nothing is taken
from a formula.
"""

from __future__ import annotations

from .orbifold import (
    ObjectKind,
    PieceKind,
    PieceObject,
    cone_ends,
    curve,
    intersection_number,
    seam,
    seam_pairs,
)
from .slopes import Slope


def common_boundaries(a: PieceObject, b: PieceObject) -> int:
    """How many cone points / marked points the two objects' ends share."""
    return len(set(cone_ends(a)) & set(cone_ends(b)))


def associated_seam(
    u: PieceObject | Slope, reference: PieceObject | None = None
) -> PieceObject:
    """The seam of slope u crossing a reference object least.

    Of the two corner pairs a slope-u seam can join, this returns the one
    whose seam meets the reference fewest times (ties and the no-reference
    case go to the pair containing corner 00).  When u and a reference
    seam form a special couple with some curve, the winner is disjoint
    from the reference and shares both of its corners.
    """
    slope = u.slope if isinstance(u, PieceObject) else u
    pairs = seam_pairs(slope)
    candidates = [seam(PieceKind.FOUR_HOLED_SPHERE, slope, p) for p in pairs]
    if reference is None:
        return candidates[0]
    counts = [intersection_number(c, reference) for c in candidates]
    return candidates[0] if counts[0] <= counts[1] else candidates[1]


def is_special_couple(s: PieceObject, c: PieceObject) -> bool:
    """A seam and a contained curve crossing exactly twice.

    The crossing count comes from the oracle; the determinant never enters.
    """
    if s.kind is not ObjectKind.SEAM or c.kind is not ObjectKind.CURVE:
        return False
    if s.piece is not PieceKind.FOUR_HOLED_SPHERE:
        return False
    return intersection_number(s, c) == 2


def projection_identity_report(
    s: PieceObject, t: PieceObject, crossings: tuple[int, int] | None = None
) -> dict:
    """Both sides of the closing-up identity for a seam s against t.

    Replacing s by the curve of its slope multiplies every crossing by the
    number of strands the closed-up curve runs along s (two around a cone
    point, one through the torus mark) and picks up one crossing per
    shared endpoint.  Both sides are recomputed with the oracle, unless
    crossings gives the counts (curve of s against t, s against t) that a
    caller already made, so that its report shows what it saw.
    """
    if s.kind is not ObjectKind.SEAM:
        raise ValueError("the identity is about seams")
    if t.kind is ObjectKind.WAVE:
        raise ValueError("compare against curves or seams")
    factor = 1 if s.piece is PieceKind.ONE_HOLED_TORUS else 2
    if crossings is None:
        pi_s = curve(s.piece, s.slope)
        crossings = intersection_number(pi_s, t), intersection_number(s, t)
    lhs, base = crossings
    j = common_boundaries(s, t)
    rhs = factor * base + j
    return {
        "s": str(s),
        "t": str(t),
        "projected_crossings": lhs,
        "seam_crossings": base,
        "shared_ends": j,
        "strand_factor": factor,
        "rhs": rhs,
        "holds": lhs == rhs,
    }


__all__ = [
    "associated_seam",
    "common_boundaries",
    "is_special_couple",
    "projection_identity_report",
]
