import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fareyflats.orbifold import (
    CORNER_LABELS,
    TORUS_MARK,
    DegenerateRealization,
    PieceKind,
    RealizationContext,
    _crossing_events,
    _fund,
    _fund_ends,
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
        assert sum(c.dart_count for c in comps) == 2 * len(walk.edges)

    def test_crossing_at_a_curve_anchor_is_walked_at_t_zero(self):
        # the 0/1 curve's anchor (0, -1/12) lies on the vertical torus arc:
        # the period is half open, so that crossing is the event at t = 0
        objs = [curve(T, Slope(0, 1)), torus_arc(Slope(1, 0))]
        ctx = RealizationContext(objs)
        a, b = _fund(objs[0], ctx, 0)
        events = _crossing_events(
            objs[0], [(a, b, _fund_ends(objs[0]))], objs[1], _fund(objs[1], ctx, 1), ctx
        )
        assert [t_x for t_x, _, _ in events] == [(0, ctx.scale)]
        assert neighborhood_boundary(objs) == neighborhood_boundary(
            objs, ctx=ctx.scaled(3)
        )

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

    def test_walk_output_is_deterministic(self):
        objs = [torus_arc(Slope(-1, 1)), torus_arc(Slope(1, 1))]
        assert neighborhood_boundary(objs) == neighborhood_boundary(objs)


@st.composite
def unions_with_a_curve(draw, height=6):
    """1-3 distinct objects on one piece, at least one of them a curve, in
    any order, and a set of welded labels."""
    piece = draw(st.sampled_from((T, S)))
    slopes = st.sampled_from(slopes_up_to(height))
    objs = [curve(piece, draw(slopes))]
    for _ in range(draw(st.integers(0, 2))):
        slope = draw(slopes)
        kind = draw(st.integers(0, 1 if piece is T else 2))
        if kind == 0:
            objs.append(curve(piece, slope))
        elif piece is T:
            objs.append(torus_arc(slope))
        else:
            s = seam(S, slope, seam_pairs(slope)[draw(st.integers(0, 1))])
            over = s.endpoints[draw(st.integers(0, 1))]
            objs.append(s if kind == 1 else wave(s, over))
    assume(len(set(objs)) == len(objs))
    labels = (TORUS_MARK,) if piece is T else CORNER_LABELS
    return draw(st.permutations(objs)), draw(st.sets(st.sampled_from(labels)))


@settings(max_examples=40, deadline=None)
@given(union=unions_with_a_curve(), factor=st.integers(2, 7))
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
