import pytest

from fareyflats.orbifold import (
    DegenerateRealization,
    PieceKind,
    RealizationContext,
    curve,
    intersection_number,
    seam,
    torus_arc,
    wave,
)
from fareyflats.ribbon import _Walk, neighborhood_boundary
from fareyflats.slopes import Slope, adjacent

T = PieceKind.ONE_HOLED_TORUS
S = PieceKind.FOUR_HOLED_SPHERE


def kinds(components):
    return [c.kind for c in components]


def objects_of(components):
    return [c.object for c in components]


class TestIsolatedObjects:
    def test_isolated_curve_bounds_two_parallel_copies(self):
        for piece in (T, S):
            c = curve(piece, Slope(1, 2))
            comps = neighborhood_boundary([c])
            assert kinds(comps) == ["curve", "curve"]
            assert objects_of(comps) == [c, c]

    def test_isolated_seam_bounds_two_copies_of_itself(self):
        s = seam(S, Slope(0, 1))
        comps = neighborhood_boundary([s])
        assert kinds(comps) == ["seam", "seam"]
        assert objects_of(comps) == [s, s]

    def test_isolated_torus_arc_bounds_two_copies(self):
        a = torus_arc(Slope(2, 3))
        comps = neighborhood_boundary([a])
        assert objects_of(comps) == [a, a]

    def test_isolated_wave_bounds_two_copies(self):
        w = wave(seam(S, Slope(1, 1)), "11")
        comps = neighborhood_boundary([w])
        assert kinds(comps) == ["wave", "wave"]
        assert objects_of(comps) == [w, w]


class TestConeAttachments:
    def test_seam_welded_to_far_corner_bounds_a_wave(self):
        s = seam(S, Slope(0, 1))  # joins 00 and 10
        comps = neighborhood_boundary([s], include_labels=["10"])
        assert kinds(comps) == ["wave"]
        assert comps[0].object == wave(s, "10")

    def test_seam_welded_to_near_corner_bounds_the_other_wave(self):
        s = seam(S, Slope(0, 1))
        comps = neighborhood_boundary([s], include_labels=["00"])
        assert kinds(comps) == ["wave"]
        assert comps[0].object == wave(s, "00")

    def test_seam_welded_to_both_corners_bounds_its_curve(self):
        s = seam(S, Slope(0, 1))
        comps = neighborhood_boundary([s], include_labels=["00", "10"])
        assert kinds(comps) == ["curve"]
        assert comps[0].object == curve(S, Slope(0, 1))

    def test_torus_arc_welded_to_mark_bounds_its_curve_twice(self):
        a = torus_arc(Slope(0, 1))
        comps = neighborhood_boundary([a], include_labels=["m"])
        assert kinds(comps) == ["curve", "curve"]
        assert objects_of(comps) == [curve(T, Slope(0, 1))] * 2

    def test_welded_corner_with_nothing_attached_is_boundary_parallel(self):
        c = curve(T, Slope(1, 2))
        comps = neighborhood_boundary([c], include_labels=["m"])
        assert sorted(kinds(comps)) == ["curve", "curve", "inessential"]


class TestCrossingWalks:
    def test_two_crossing_torus_arcs_bound_four_arcs(self):
        a, b = torus_arc(Slope(-1, 1)), torus_arc(Slope(1, 1))
        comps = neighborhood_boundary([a, b])
        assert len(comps) == 4
        slopes = sorted(str(c.object.slope) for c in comps)
        assert slopes == ["0/1", "0/1", "1/0", "1/0"]
        for c in comps:
            assert adjacent(c.object.slope, a.slope)
            assert adjacent(c.object.slope, b.slope)

    def test_components_never_cross_the_union(self):
        fixtures = [
            ([seam(S, Slope(0, 1)), wave(seam(S, Slope(0, 1)), "10")], []),
            ([seam(S, Slope(0, 1)), seam(S, Slope(1, 0))], []),
            ([torus_arc(Slope(-1, 1)), torus_arc(Slope(1, 1))], []),
            ([curve(T, Slope(0, 1)), torus_arc(Slope(1, 0))], []),
            ([seam(S, Slope(0, 1))], ["10"]),
            ([seam(S, Slope(2, 1), ("00", "10"))], ["00", "10"]),
        ]
        for objs, labels in fixtures:
            for comp in neighborhood_boundary(objs, labels):
                if comp.object is None:
                    continue
                for source in objs:
                    assert intersection_number(comp.object, source) == 0

    def test_every_dart_is_walked_exactly_once(self):
        objs = [curve(T, Slope(0, 1)), torus_arc(Slope(1, 0))]
        ctx = RealizationContext(objs)
        walk = _Walk(objs, frozenset(), ctx, ctx.scale // ctx.prime)
        walk.build()
        comps = walk.trace()
        assert sum(c.dart_count for c in comps) == 2 * len(walk.edges)

    def test_smaller_offsets_leave_components_alone(self):
        objs = [seam(S, Slope(0, 1)), seam(S, Slope(1, 0))]
        base = neighborhood_boundary(objs)
        shrunk = neighborhood_boundary(
            objs, ctx=RealizationContext(objs).scaled(5)
        )
        assert base == shrunk

    def test_walk_output_is_deterministic(self):
        objs = [torus_arc(Slope(-1, 1)), torus_arc(Slope(1, 1))]
        assert neighborhood_boundary(objs) == neighborhood_boundary(objs)


class TestDegeneracies:
    def test_triple_points_are_refused(self):
        # the 1/8 seam line runs through (0, -1/16), which is also where
        # the first curve offset line meets the vertical seam
        objs = [
            curve(S, Slope(0, 1)),
            seam(S, Slope(1, 0), ("00", "01")),
            seam(S, Slope(1, 8), ("10", "11")),
        ]
        with pytest.raises(DegenerateRealization):
            neighborhood_boundary(objs)

    def test_duplicate_objects_are_rejected(self):
        s = seam(S, Slope(0, 1))
        with pytest.raises(ValueError):
            neighborhood_boundary([s, s])

    def test_foreign_labels_are_rejected(self):
        with pytest.raises(ValueError):
            neighborhood_boundary([torus_arc(Slope(0, 1))], ["00"])
        with pytest.raises(ValueError):
            neighborhood_boundary([seam(S, Slope(0, 1))], ["m"])

    def test_empty_union_is_rejected(self):
        with pytest.raises(ValueError):
            neighborhood_boundary([])

    def test_event_count_is_checked_against_the_context(self, monkeypatch):
        right = RealizationContext.count
        monkeypatch.setattr(
            RealizationContext, "count", lambda ctx, i, j: right(ctx, i, j) + 1
        )
        with pytest.raises(AssertionError, match="disagrees with the oracle"):
            neighborhood_boundary([seam(S, Slope(0, 1)), seam(S, Slope(1, 0))])

    def test_context_for_other_objects_is_rejected(self):
        objs = [seam(S, Slope(0, 1)), seam(S, Slope(1, 0))]
        with pytest.raises(ValueError):
            neighborhood_boundary(objs, ctx=RealizationContext(objs[::-1]))
