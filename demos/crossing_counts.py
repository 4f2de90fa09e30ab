"""Exact crossing counts on the two flat models.

Curves and arcs of slope p/q are realized as straight lines on a square
torus with one marked point and on a pillowcase with four corners; all
minimal crossing numbers come out of an exact rational sweep, never a
formula.  The demo checks the determinant laws on samples, walks a seam
through its closing-up identity, and exhibits a special couple together
with the twin seam that recovers the curve.
"""

import itertools

from fareyflats.orbifold import (
    PieceKind,
    curve,
    intersection_number,
    seam,
    torus_arc,
    wave,
)
from fareyflats.pieces import (
    associated_seam,
    is_special_couple,
    projection_identity_report,
)
from fareyflats.slopes import Slope, det, slopes_up_to

T = PieceKind.ONE_HOLED_TORUS
S = PieceKind.FOUR_HOLED_SPHERE


def main() -> None:
    print("crossing numbers of curves, counted vs the determinant law:")
    for p, q in ((Slope(0, 1), Slope(1, 0)), (Slope(1, 2), Slope(3, 1))):
        d = abs(det(p, q))
        torus = intersection_number(curve(T, p), curve(T, q))
        sphere = intersection_number(curve(S, p), curve(S, q))
        print(f"   {p} vs {q}:  torus {torus} (=|det|={d}),"
              f"  sphere {sphere} (=2|det|={2 * d})")
    mismatch = sum(
        intersection_number(curve(T, a), curve(T, b)) != abs(det(a, b))
        for a, b in itertools.combinations(slopes_up_to(6), 2)
    )
    print(f"   exhaustive torus sweep at height 6: {mismatch} mismatches")
    print()

    s = seam(S, Slope(0, 1))
    t = seam(S, Slope(1, 0))
    rep = projection_identity_report(s, t)
    print(f"closing up the seam {t} into its curve:")
    print(f"   seam-vs-seam crossings:  {rep['seam_crossings']}")
    print(f"   shared ends:             {rep['shared_ends']}")
    print(f"   seam-vs-curve crossings: {rep['projected_crossings']}"
          f" (= {rep['strand_factor']} x crossings + shared ends)")
    print()

    beta = curve(S, Slope(2, 1))
    print(f"the seam {s} and the curve {beta} cross "
          f"{intersection_number(s, beta)} times: a special couple"
          if is_special_couple(s, beta) else "not a couple")
    twin = associated_seam(beta, s)
    print(f"   the twin seam {twin} misses both "
          f"({intersection_number(twin, s)} and "
          f"{intersection_number(twin, beta)} crossings)")
    print(f"   and projects straight back to the curve: {twin.slope}")
    w = wave(s, over=s.endpoints[0])
    print(f"   a wave doubling {s} still crosses the curve "
          f"{intersection_number(w, beta)} times")


if __name__ == "__main__":
    main()
