import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fareyflats.orbifold import (
    CORNER_LABELS,
    DegenerateRealization,
    PieceKind,
    RealizationContext,
    _crossing_events,
    curve,
    intersection_number,
    seam,
    seam_pairs,
    torus_arc,
    wave,
)
from fareyflats.ribbon import _Walk, neighborhood_boundary
from fareyflats.slopes import Slope, adjacent, slopes_up_to

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
        walk = _Walk(objs, frozenset(), ctx)
        walk.build()
        comps = walk.trace()
        assert len(walk.succ) == len(walk.decks) > 0
        assert sum(c.dart_count for c in comps) == len(walk.decks)

    def test_crossing_at_a_curve_anchor_is_walked_at_t_zero(self):
        # the 0/1 curve's anchor (0, -1/12) lies on the vertical torus arc:
        # the period is half open, so that crossing is the event at t = 0
        objs = [curve(T, Slope(0, 1)), torus_arc(Slope(1, 0))]
        ctx = RealizationContext(objs)
        events = _crossing_events(
            objs[0], ctx.x_side(0)[:1], objs[1], ctx.y_side(1), ctx.scale
        )
        assert [t_x for t_x, _, _ in events] == [(0, ctx.scale)]
        comps = neighborhood_boundary(objs, ctx=ctx)
        assert objects_of(comps) == [torus_arc(Slope(0, 1))] * 2

    def test_smaller_offsets_leave_components_alone(self):
        # scaled(k) moves only waves; this one crosses the 0/1 seam once
        objs = [
            seam(S, Slope(0, 1)),
            seam(S, Slope(1, 0)),
            wave(seam(S, Slope(2, 1)), "10"),
        ]
        base = neighborhood_boundary(objs)
        shrunk = neighborhood_boundary(
            objs, ctx=RealizationContext(objs).scaled(5)
        )
        assert base == shrunk

    @pytest.mark.xfail(
        strict=True, reason="a wave ending on a hole another wave encloses counts 0"
    )
    @pytest.mark.parametrize(
        "objs, labels",
        [
            (
                # wave(1/0; at 00 over 01) ends on hole 00, which
                # wave(-1/1; at 11 over 00) goes over: the walk bounds
                # curve(1/0), which crosses the second wave twice
                [
                    wave(seam(S, Slope(1, 0), ("00", "01")), "01"),
                    wave(seam(S, Slope(-1, 1), ("00", "11")), "00"),
                ],
                ["00", "11"],
            ),
            (
                # each wave ends on the hole the other goes over: the walk
                # raises "non-primitive boundary class"
                [
                    wave(seam(S, Slope(-2, 1), ("01", "11")), "01"),
                    wave(seam(S, Slope(0, 1), ("01", "11")), "11"),
                    seam(S, Slope(1, 0), ("00", "01")),
                ],
                ["01"],
            ),
        ],
    )
    def test_wave_ending_inside_another_wave_is_walked(self, objs, labels):
        for comp in neighborhood_boundary(objs, labels):
            if comp.object is not None:
                for source in objs:
                    assert intersection_number(comp.object, source) == 0

    def test_walk_output_is_deterministic(self):
        objs = [torus_arc(Slope(-1, 1)), torus_arc(Slope(1, 1))]
        assert neighborhood_boundary(objs) == neighborhood_boundary(objs)


@st.composite
def sphere_unions_with_a_curve_and_a_wave(draw, height=6):
    """A curve, a wave and at most one more object on the pillowcase, in
    any order, and a set of welded labels; scaled(k) moves the wave."""
    slopes = st.sampled_from(slopes_up_to(height))

    def seam_or_wave(kind):
        slope = draw(slopes)
        s = seam(S, slope, seam_pairs(slope)[draw(st.integers(0, 1))])
        return s if kind == 1 else wave(s, s.endpoints[draw(st.integers(0, 1))])

    objs = [curve(S, draw(slopes)), seam_or_wave(2)]
    for _ in range(draw(st.integers(0, 1))):
        kind = draw(st.integers(0, 2))
        objs.append(curve(S, draw(slopes)) if kind == 0 else seam_or_wave(kind))
    assume(len(set(objs)) == len(objs))
    return draw(st.permutations(objs)), draw(st.sets(st.sampled_from(CORNER_LABELS)))


@settings(max_examples=40, deadline=None)
@given(union=sphere_unions_with_a_curve_and_a_wave(), factor=st.integers(2, 7))
def test_curve_unions_walk_as_on_shrunk_offsets(union, factor):
    objs, labels = union
    try:
        base = neighborhood_boundary(objs, labels)
        shrunk = neighborhood_boundary(
            objs, labels, ctx=RealizationContext(objs).scaled(factor)
        )
    except DegenerateRealization:
        assume(False)  # a triple point: no realization of it can be walked
    assert base == shrunk


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
