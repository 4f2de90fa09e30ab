import random

from fareyflats.orbifold import (
    PieceKind,
    RealizationContext,
    curve,
    intersection_number,
    seam,
    torus_arc,
)
from fareyflats.slopes import Slope, slopes_up_to
from fareyflats.sweeps import (
    _extras_disjoint,
    _prs_case,
    couple_trace_suite,
    disjoint_projection_suite,
    disjoint_projection_sweep,
    identity_sweep,
    linking_sweep,
    sphere_move_suite,
    torus_move_suite,
)

T = PieceKind.ONE_HOLED_TORUS
S = PieceKind.FOUR_HOLED_SPHERE


class TestIdentitySweep:
    def test_small_height_passes_with_expected_tallies(self):
        report = identity_sweep(3)
        assert report["pass"]
        assert report["violations"] == []
        n = len(slopes_up_to(3))  # 16 slopes, so 16 torus arcs, 32 seams
        torus = report["tallies"]["one_holed_torus"]
        sphere = report["tallies"]["four_holed_sphere"]
        assert torus == {
            "seam_vs_seam": n * (n - 1) // 2,
            "seam_vs_curve": n * n,
        }
        assert sphere == {
            "seam_vs_seam": 2 * n * (2 * n - 1) // 2,
            "seam_vs_curve": 2 * n * n,
        }

    def test_height_zero_is_vacuous(self):
        report = identity_sweep(0)
        assert report["pass"]
        for tallies in report["tallies"].values():
            assert set(tallies.values()) == {0}


class TestLinkingSweep:
    def test_counts_all_slope_pairs(self):
        report = linking_sweep(4)
        n = len(slopes_up_to(4))
        assert report["pass"]
        assert report["checked"] == n * (n - 1) // 2 == 276

    def test_height_zero_is_vacuous(self):
        report = linking_sweep(0)
        assert report["pass"]
        assert report["checked"] == 0


class TestDisjointProjectionSweep:
    def test_exhaustive_at_height_four(self):
        report = disjoint_projection_sweep(4)
        assert report["pass"]
        assert report["checked"] == 1008
        assert report["excluded_two_shared_ends"] == 84

    def test_twin_exclusions_appear_already_at_height_two(self):
        report = disjoint_projection_sweep(2)
        assert report["pass"]
        assert report["excluded_two_shared_ends"] == 20

    def test_hypotheses_reject_twin_seams(self):
        s = seam(S, Slope(0, 1), ("00", "10"))
        twin = seam(S, Slope(2, 1), ("00", "10"))
        assert intersection_number(s, twin) == 0
        assert _prs_case(RealizationContext((s, twin)), 0, 1) == "excluded"

    def test_hypotheses_reject_self_and_crossing(self):
        s = seam(S, Slope(0, 1))
        assert _prs_case(RealizationContext((s, s)), 0, 1) is None
        assert _prs_case(RealizationContext((s, curve(S, Slope(1, 0)))), 0, 1) is None

    def test_hypotheses_accept_disjoint_single_shared_end(self):
        s = seam(S, Slope(0, 1), ("00", "10"))
        t = seam(S, Slope(1, 0), ("00", "01"))
        assert _prs_case(RealizationContext((s, t)), 0, 1) == "checked"


class TestSeededSuites:
    def test_disjoint_suite_passes_and_is_deterministic(self):
        a = disjoint_projection_suite(samples=60, seed=7)
        b = disjoint_projection_suite(samples=60, seed=7)
        assert a == b
        assert a["pass"]
        assert a["checked"] == 60
        assert a["rejected"] > 0  # uniform draws do get filtered

    def test_torus_suite_passes_with_seam_witnesses(self):
        report = torus_move_suite(samples=60, seed=1)
        assert report["pass"]
        assert report["checked"] == 60
        # every essential boundary component of a torus neighborhood is
        # an arc, so the winning witness is always a seam
        assert set(report["witness_kinds"]) == {"seam"}
        assert sum(report["witness_kinds"].values()) == 60

    def test_sphere_suite_passes_with_arc_witnesses(self):
        report = sphere_move_suite(samples=40, seed=0)
        assert report["pass"]
        assert report["checked"] == 40
        assert set(report["witness_kinds"]) <= {"seam", "wave"}
        assert sum(report["witness_kinds"].values()) == 40

    def test_couple_suite_passes(self):
        report = couple_trace_suite(samples=60, seed=2)
        assert report["pass"]
        assert report["checked"] == 60

    def test_suites_accept_zero_samples(self):
        for driver in (
            disjoint_projection_suite,
            torus_move_suite,
            sphere_move_suite,
            couple_trace_suite,
        ):
            report = driver(samples=0, seed=0)
            assert report["pass"]
            assert report["checked"] == 0

    def test_seed_changes_the_draw(self):
        a = torus_move_suite(samples=30, seed=0)
        b = torus_move_suite(samples=30, seed=99)
        assert a["pass"] and b["pass"]
        assert (a["resampled"], a["witness_kinds"]) != (
            b["resampled"],
            b["witness_kinds"],
        ) or a != b


class TestBystanderFilter:
    def test_rejects_crossing_candidates(self):
        component = [torus_arc(Slope(0, 1))]
        crossing = torus_arc(Slope(2, 1))
        assert intersection_number(component[0], crossing) == 1
        extras = _extras_disjoint(
            random.Random(0), lambda r: crossing, component, 2
        )
        assert extras == []

    def test_rejects_far_twin_seam(self):
        component = [seam(S, Slope(0, 1), ("00", "10"))]
        twin = seam(S, Slope(2, 1), ("00", "10"))
        assert intersection_number(component[0], twin) == 0
        extras = _extras_disjoint(
            random.Random(0), lambda r: twin, component, 2
        )
        assert extras == []

    def test_accepts_disjoint_neighbor_and_dedups(self):
        component = [seam(S, Slope(0, 1), ("00", "10"))]
        near = seam(S, Slope(1, 0), ("00", "01"))
        extras = _extras_disjoint(
            random.Random(0), lambda r: near, component, 2
        )
        # the same object is never accepted twice
        assert extras == [near]
