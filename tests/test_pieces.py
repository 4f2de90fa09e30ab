import itertools

import pytest

from fareyflats.orbifold import (
    PieceKind,
    curve,
    intersection_number,
    seam,
    seam_pairs,
    torus_arc,
    wave,
)
from fareyflats.pieces import (
    associated_seam,
    common_boundaries,
    is_special_couple,
    projection_identity_report,
)
from fareyflats.slopes import Slope, det, distance, slopes_up_to

T = PieceKind.ONE_HOLED_TORUS
S = PieceKind.FOUR_HOLED_SPHERE


class TestProjection:
    def test_each_kind_projects_to_its_slope(self):
        assert curve(S, Slope(2, 1)).slope == Slope(2, 1)
        assert seam(S, Slope(0, 1)).slope == Slope(0, 1)
        assert torus_arc(Slope(1, 2)).slope == Slope(1, 2)
        w = wave(seam(S, Slope(0, 1)), over="10")
        assert w.slope == Slope(0, 1)

    def test_projection_distance_is_farey(self):
        assert distance(Slope(0, 1), Slope(1, 0)) == 1
        assert distance(Slope(-1, 1), Slope(1, 1)) == 2


class TestCommonBoundaries:
    def test_instances(self):
        s01 = seam(S, Slope(0, 1))  # {00, 10}
        t10 = seam(S, Slope(1, 0))  # {00, 01}
        assert common_boundaries(s01, t10) == 1
        assert common_boundaries(s01, seam(S, Slope(2, 1), ("00", "10"))) == 2
        assert common_boundaries(s01, seam(S, Slope(2, 1), ("01", "11"))) == 0
        assert common_boundaries(s01, curve(S, Slope(1, 0))) == 0
        assert common_boundaries(torus_arc(Slope(0, 1)), torus_arc(Slope(1, 0))) == 1


class TestIdentityReport:
    def test_shared_corner_instance(self):
        rep = projection_identity_report(seam(S, Slope(0, 1)), seam(S, Slope(1, 0)))
        assert rep["projected_crossings"] == 1
        assert rep["seam_crossings"] == 0
        assert rep["shared_ends"] == 1
        assert rep["holds"]

    def test_exhaustive_small_pillowcase(self):
        slopes = slopes_up_to(4)
        for a, b in itertools.combinations(slopes, 2):
            for pa in seam_pairs(a):
                s = seam(S, a, pa)
                assert projection_identity_report(s, curve(S, b))["holds"]
                for pb in seam_pairs(b):
                    assert projection_identity_report(s, seam(S, b, pb))["holds"]

    def test_exhaustive_small_torus(self):
        slopes = slopes_up_to(4)
        for a, b in itertools.combinations(slopes, 2):
            s = torus_arc(a)
            assert projection_identity_report(s, curve(T, b))["holds"]
            assert projection_identity_report(s, torus_arc(b))["holds"]

    def test_rejects_a_non_seam(self):
        with pytest.raises(ValueError, match="about seams"):
            projection_identity_report(curve(S, Slope(0, 1)), seam(S, Slope(1, 0)))

    def test_rejects_wave_argument(self):
        with pytest.raises(ValueError):
            projection_identity_report(
                seam(S, Slope(0, 1)), wave(seam(S, Slope(1, 0)), over="01")
            )


class TestSpecialCouples:
    def test_instances(self):
        s01 = seam(S, Slope(0, 1))
        assert is_special_couple(s01, curve(S, Slope(2, 1)))
        assert not is_special_couple(s01, curve(S, Slope(1, 2)))
        assert not is_special_couple(s01, curve(S, Slope(0, 1)))
        assert not is_special_couple(curve(S, Slope(2, 1)), s01)

    def test_torus_seam_is_never_special(self):
        arc = torus_arc(Slope(0, 1))
        assert intersection_number(arc, curve(T, Slope(2, 1))) == 2
        assert not is_special_couple(arc, curve(T, Slope(2, 1)))

    def test_couples_have_even_determinant(self):
        for a, b in itertools.combinations(slopes_up_to(5), 2):
            for pa in seam_pairs(a):
                if is_special_couple(seam(S, a, pa), curve(S, b)):
                    assert abs(det(a, b)) == 2


class TestAssociatedSeam:
    def test_special_couple_twin_is_doubly_disjoint(self):
        s = seam(S, Slope(0, 1))
        beta = curve(S, Slope(2, 1))
        twin = associated_seam(beta, s)
        assert twin.slope == Slope(2, 1)
        assert intersection_number(twin, s) == 0
        assert intersection_number(twin, beta) == 0
        assert twin.endpoints == s.endpoints

    def test_twin_sweep_over_special_couples(self):
        for a, b in itertools.combinations(slopes_up_to(5), 2):
            for pa in seam_pairs(a):
                s = seam(S, a, pa)
                beta = curve(S, b)
                if not is_special_couple(s, beta):
                    continue
                twin = associated_seam(beta, s)
                assert intersection_number(twin, s) == 0
                assert intersection_number(twin, beta) == 0
                assert twin.endpoints == s.endpoints

    def test_default_pair_contains_corner_00(self):
        twin = associated_seam(Slope(3, 2))
        assert "00" in twin.endpoints
