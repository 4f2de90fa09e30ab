import itertools
import math
import pickle
import time
from functools import partial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fareyflats import orbifold
from fareyflats.orbifold import (
    DegenerateRealization,
    ObjectKind,
    PieceKind,
    RealizationContext,
    corner_vec,
    curve,
    endpoint_linking,
    intersection_number,
    literal_intersection_number,
    partner_label,
    seam,
    seam_pairs,
    torus_arc,
    wave,
    _ccw_order,
    _crossing_events,
    _literal_count,
)
from fareyflats.slopes import Slope, apply_unimodular, det, slopes_up_to

T = PieceKind.ONE_HOLED_TORUS
S = PieceKind.FOUR_HOLED_SPHERE
inum = intersection_number


class TestDescriptors:
    def test_partner_label_parity(self):
        assert partner_label(Slope(0, 1), "00") == "10"
        assert partner_label(Slope(1, 0), "00") == "01"
        assert partner_label(Slope(1, 1), "00") == "11"
        assert partner_label(Slope(2, 1), "01") == "11"

    def test_seam_pairs_partition_corners(self):
        for s in slopes_up_to(5):
            first, second = seam_pairs(s)
            assert set(first) | set(second) == {"00", "10", "01", "11"}
            assert not set(first) & set(second)

    def test_seam_rejects_mismatched_corners(self):
        with pytest.raises(ValueError):
            seam(S, Slope(3, 1), ("00", "10"))

    def test_torus_seam_is_arc(self):
        arc = torus_arc(Slope(1, 2))
        assert arc.endpoints == ("m", "m")

    def test_corner_vec_rejects_unknown_label(self):
        assert corner_vec("10") == (1, 0)
        with pytest.raises(ValueError, match="unknown corner label"):
            corner_vec("22")

    def test_wave_rejects_a_non_seam(self):
        with pytest.raises(ValueError, match="waves double a seam"):
            wave(curve(S, Slope(0, 1)), over="00")

    def test_wave_descriptor(self):
        s = seam(S, Slope(0, 1))
        w = wave(s, over="10")
        assert w.endpoints == ("00",)
        assert w.over == "10"
        with pytest.raises(ValueError):
            wave(s, over="11")

    def test_curve_takes_no_endpoints(self):
        with pytest.raises(ValueError):
            from fareyflats.orbifold import PieceObject

            PieceObject(
                piece=S, kind=ObjectKind.CURVE, slope=Slope(1, 1), endpoints=("00",)
            )

    def test_objects_are_immutable_values(self):
        from dataclasses import FrozenInstanceError

        w = wave(seam(S, Slope(2, 1), ("00", "10")), over="10")
        with pytest.raises(FrozenInstanceError):
            w.over = "00"
        with pytest.raises(FrozenInstanceError):
            del w.slope
        assert not hasattr(w, "__dict__")
        # object-keyed sets iterate in hash order, so the hash is pinned
        assert hash(w) == hash((S, ObjectKind.WAVE, Slope(2, 1), ("00",), "10"))
        assert repr(w) == (
            "PieceObject(piece=<PieceKind.FOUR_HOLED_SPHERE: 'four_holed_sphere'>, "
            "kind=<ObjectKind.WAVE: 'wave'>, slope=Slope(2, 1), endpoints=('00',), "
            "over='10')"
        )
        assert pickle.loads(pickle.dumps(w)) == w
        assert w != seam(S, Slope(2, 1), ("00", "10")) and w != "wave"


class TestFrozenInstances:
    """Values worked out by hand on the flat models and pinned here."""

    def test_torus_instances(self):
        assert inum(curve(T, Slope(0, 1)), curve(T, Slope(1, 0))) == 1
        assert inum(torus_arc(Slope(-1, 1)), torus_arc(Slope(1, 1))) == 1
        assert inum(torus_arc(Slope(0, 1)), torus_arc(Slope(1, 0))) == 0
        assert inum(curve(T, Slope(0, 1)), torus_arc(Slope(1, 0))) == 1

    def test_pillowcase_seam_instances(self):
        s01 = seam(S, Slope(0, 1))  # corners {00, 10}
        t10 = seam(S, Slope(1, 0))  # corners {00, 01}
        assert inum(s01, t10) == 0
        assert inum(curve(S, Slope(0, 1)), t10) == 1
        s21_same = seam(S, Slope(2, 1), ("00", "10"))
        s21_other = seam(S, Slope(2, 1), ("01", "11"))
        assert inum(s01, s21_same) == 0
        assert inum(s01, s21_other) == 1
        assert inum(curve(S, Slope(0, 1)), s21_same) == 2
        assert inum(curve(S, Slope(0, 1)), s21_other) == 2
        assert inum(s01, seam(S, Slope(4, 1), ("00", "10"))) == 1
        assert inum(curve(S, Slope(0, 1)), seam(S, Slope(4, 1), ("00", "10"))) == 4
        assert inum(seam(S, Slope(1, 1)), seam(S, Slope(-1, 1), ("01", "10"))) == 1

    def test_special_couple_instance(self):
        s01 = seam(S, Slope(0, 1))
        assert inum(s01, curve(S, Slope(2, 1))) == 2
        assert inum(s01, curve(S, Slope(1, 2))) == 1

    def test_wave_instances(self):
        s01 = seam(S, Slope(0, 1))
        w = wave(s01, over="10")
        assert inum(w, s01) == 0
        assert inum(w, curve(S, Slope(0, 1))) == 0
        assert inum(w, curve(S, Slope(2, 1))) == 4
        assert inum(w, seam(S, Slope(1, 0))) == 0
        w2 = wave(seam(S, Slope(1, 0)), over="01")
        assert inum(w, w2) == 0


class TestLaws:
    """Crossing-number laws emerge from counting; none are assumed."""

    def test_torus_curve_curve(self):
        for a, b in itertools.combinations(slopes_up_to(6), 2):
            assert inum(curve(T, a), curve(T, b)) == abs(det(a, b))

    def test_pillowcase_curve_curve(self):
        for a, b in itertools.combinations(slopes_up_to(6), 2):
            assert inum(curve(S, a), curve(S, b)) == 2 * abs(det(a, b))

    def test_torus_arc_arc(self):
        for a, b in itertools.combinations(slopes_up_to(6), 2):
            assert inum(torus_arc(a), torus_arc(b)) == abs(det(a, b)) - 1

    def test_torus_curve_arc(self):
        for a, b in itertools.combinations(slopes_up_to(5), 2):
            assert inum(curve(T, a), torus_arc(b)) == abs(det(a, b))
            assert inum(curve(T, b), torus_arc(a)) == abs(det(a, b))

    def test_pillowcase_seam_curve(self):
        for a, b in itertools.combinations(slopes_up_to(5), 2):
            for pair in seam_pairs(a):
                assert inum(seam(S, a, pair), curve(S, b)) == abs(det(a, b))

    def test_pillowcase_seam_seam(self):
        for a, b in itertools.combinations(slopes_up_to(5), 2):
            d = abs(det(a, b))
            for pa in seam_pairs(a):
                for pb in seam_pairs(b):
                    j = len(set(pa) & set(pb))
                    got = inum(seam(S, a, pa), seam(S, b, pb))
                    assert d >= j and (d - j) % 2 == 0
                    assert got == (d - j) // 2

    def test_same_slope_objects_disjoint(self):
        a = Slope(2, 3)
        pair0, pair1 = seam_pairs(a)
        assert inum(seam(S, a, pair0), seam(S, a, pair1)) == 0
        assert inum(seam(S, a, pair0), curve(S, a)) == 0
        assert inum(curve(T, a), torus_arc(a)) == 0

    def test_objects_on_different_pieces_refused(self):
        a = Slope(0, 1)
        with pytest.raises(ValueError, match="different pieces"):
            inum(curve(T, a), curve(S, a))
        with pytest.raises(ValueError, match="different pieces"):
            inum(seam(S, a), torus_arc(a))
        with pytest.raises(ValueError, match="different pieces"):
            literal_intersection_number(curve(T, a), curve(S, a))


@pytest.fixture(scope="module")
def mixed_objects():
    return [
        curve(S, Slope(1, 2)),
        seam(S, Slope(3, 1), ("00", "11")),
        seam(S, Slope(1, 1)),
        curve(S, Slope(-1, 1)),
        wave(seam(S, Slope(1, 2)), over=seam(S, Slope(1, 2)).endpoints[1]),
        wave(seam(S, Slope(0, 1)), over="10"),
    ]


class TestRoutesAgree:
    def test_symmetry_and_dual_route(self, mixed_objects):
        for a, b in itertools.combinations(mixed_objects, 2):
            fwd = inum(a, b)
            assert fwd == inum(b, a)
            assert fwd == literal_intersection_number(a, b)

    def test_torus_dual_route(self):
        objs = [
            curve(T, Slope(1, 2)),
            torus_arc(Slope(1, 2)),
            torus_arc(Slope(-2, 3)),
            curve(T, Slope(1, 0)),
        ]
        for a, b in itertools.combinations(objs, 2):
            assert inum(a, b) == literal_intersection_number(a, b)

    def test_anchor_collision_is_resolved(self):
        # The first curve's anchor lies on the second curve; the kernel and
        # the literal counter read each period half open, so that crossing
        # counts once, at t = 0.
        a, b = curve(S, Slope(-1, 1)), curve(S, Slope(4, 3))
        assert inum(a, b) == 2 * abs(det(Slope(-1, 1), Slope(4, 3)))
        assert literal_intersection_number(a, b) == inum(a, b)
        assert literal_intersection_number(b, a) == inum(a, b)

    @pytest.mark.xfail(
        strict=True, reason="a wave ending on a hole another wave encloses counts 0"
    )
    def test_wave_ending_inside_another_wave_crosses_it(self):
        # y goes over hole 00, where both ends of x lie, and x turns around
        # hole 01 outside y, so x crosses y at least twice; the kernel and
        # the literal counter both count 0 on the canonical realization.
        x = wave(seam(S, Slope(1, 0), ("00", "01")), "01")
        y = wave(seam(S, Slope(-1, 1), ("00", "11")), "00")
        assert literal_intersection_number(x, y) == inum(x, y)
        assert inum(x, y) >= 2


class TestStability:
    def test_counts_survive_offset_shrinking(self, mixed_objects):
        # shrink moves only waves, so only pairs holding one are recounted
        for a, b in itertools.combinations(mixed_objects, 2):
            if ObjectKind.WAVE not in (a.kind, b.kind):
                continue
            count = RealizationContext((a, b)).count(0, 1)
            assert count == RealizationContext((a, b), 2).count(0, 1)
            assert count == RealizationContext((a, b), 5).count(0, 1)


class TestTightness:
    """The literal counter on drawings given as integer segments in units
    of 1/unit; VERTICAL is the torus curve x = 1/4 in units of 1/UNIT."""

    UNIT = 12
    VERTICAL = [((3, 0), (3, 12))]

    def test_canonical_realizations_are_tight(self):
        x, y = curve(T, Slope(0, 1)), curve(T, Slope(1, 0))
        assert literal_intersection_number(x, y) == inum(x, y) == 1

    def test_wiggly_realization_detected(self):
        # A period of the horizontal curve drawn with a backtracking zigzag
        # crosses the vertical curve three times instead of once.
        zig = [((0, 4), (8, 5)), ((8, 5), (2, 6)), ((2, 6), (12, 4))]
        x, y = curve(T, Slope(0, 1)), curve(T, Slope(1, 0))
        assert inum(x, y) == 1
        assert _literal_count(x, zig, y, self.VERTICAL, self.UNIT) == 3

    def test_degenerate_custom_realization_raises(self):
        # A diagonal drawn through a corner it does not end at must be
        # refused: it meets the vertical seam from 00 there.
        diag = [((-1, -1), (1, 1))]
        s = seam(S, Slope(1, 0))
        halves = [((0, 0), (0, 1)), ((0, 0), (0, -1))]
        with pytest.raises(DegenerateRealization, match="unshared cone point 00"):
            _literal_count(curve(S, Slope(1, 1)), diag, s, halves, 2)

    def test_arc_drawing_ending_on_a_curve_raises(self):
        # The horizontal torus arc drawn in two pieces whose joint lies on
        # the vertical curve: only a curve's segments are read half open.
        arc = [((0, 0), (3, 2)), ((3, 2), (12, 0))]
        with pytest.raises(DegenerateRealization, match="segment endpoint"):
            _literal_count(
                torus_arc(Slope(0, 1)), arc, curve(T, Slope(1, 0)),
                self.VERTICAL, self.UNIT,
            )


class TestConfiguration:
    """Many objects realized together in one shared RealizationContext."""

    def test_matrix_is_symmetric_with_zero_diagonal(self, mixed_objects):
        ctx = RealizationContext(mixed_objects)
        n = len(mixed_objects)
        for i in range(n):
            assert ctx.count(i, i) == 0
            for j in range(i + 1, n):
                pair = inum(mixed_objects[i], mixed_objects[j])
                assert ctx.count(i, j) == ctx.count(j, i) == pair

    def test_literal_counter_agrees_on_the_shared_context(self, mixed_objects):
        # offsets of objects past the first two are checked only here
        ctx = RealizationContext(mixed_objects)
        for i, j in itertools.permutations(range(len(mixed_objects)), 2):
            x, y = mixed_objects[i], mixed_objects[j]
            assert literal_intersection_number(x, y, ctx) == ctx.count(i, j)

    def test_rejects_mixed_pieces(self):
        with pytest.raises(ValueError):
            RealizationContext([curve(T, Slope(0, 1)), curve(S, Slope(0, 1))])

    def test_rejects_an_empty_configuration(self):
        with pytest.raises(ValueError, match="empty configuration"):
            RealizationContext([])

    def test_torus_context_counts_every_pair_as_alone(self):
        objs = [
            curve(T, Slope(1, 2)),
            torus_arc(Slope(-2, 3)),
            curve(T, Slope(3, -1)),
            torus_arc(Slope(1, 0)),
        ]
        ctx = RealizationContext(objs)
        for i, j in itertools.combinations(range(len(objs)), 2):
            assert ctx.count(i, j) == ctx.count(j, i) == inum(objs[i], objs[j])


@st.composite
def configurations(draw, piece, height=12):
    """2 to 8 distinct objects of one piece, each of a drawn kind."""
    kinds = ("curve", "seam") if piece is T else ("curve", "seam", "wave")
    one = st.sampled_from(kinds).flatmap(lambda k: piece_objects(piece, k, height))
    return draw(st.lists(one, min_size=2, max_size=8, unique=True))


class TestSharedContexts:
    """The drivers count a fixture's or a sweep's pairs on one context, so
    each count there must be the pair's count on its own."""

    @pytest.mark.parametrize("piece", (T, S), ids=lambda piece: piece.value)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), shrink=st.integers(2, 9))
    def test_shared_counts_equal_pair_counts(self, piece, data, shrink):
        objs = data.draw(configurations(piece))
        ctx = RealizationContext(objs)
        shrunk = RealizationContext(objs, shrink)
        for i, j in itertools.permutations(range(len(objs)), 2):
            pair = inum(objs[i], objs[j])
            assert ctx.count(i, j) == pair
            assert shrunk.count(i, j) == pair


class TestEndpointLinking:
    def test_always_alternates(self):
        for a, b in itertools.combinations(slopes_up_to(8), 2):
            assert endpoint_linking(torus_arc(a), torus_arc(b))

    def test_rejects_same_slope(self):
        with pytest.raises(ValueError):
            endpoint_linking(torus_arc(Slope(1, 2)), torus_arc(Slope(1, 2)))

    def test_rejects_non_arcs(self):
        with pytest.raises(ValueError):
            endpoint_linking(curve(T, Slope(0, 1)), torus_arc(Slope(1, 0)))


def _direction(v):
    g = math.gcd(*v)
    return (v[0] // g, v[1] // g)


@st.composite
def ccw_cases(draw):
    """A base ray and 1-8 rays in pairwise distinct directions, none along
    the base, sometimes with the ray opposite the base among them."""
    bound = draw(st.sampled_from((3, 10**9)))
    coord = st.integers(-bound, bound)
    vec = st.tuples(coord, coord).filter(lambda v: v != (0, 0))
    base = draw(vec)
    rays = draw(
        st.lists(
            vec.filter(lambda v: _direction(v) != _direction(base)),
            min_size=1,
            max_size=8,
            unique_by=_direction,
        )
    )
    opposite = (-base[0], -base[1])
    if draw(st.booleans()) and _direction(opposite) not in map(_direction, rays):
        k = draw(st.integers(1, 3))
        rays.insert(draw(st.integers(0, len(rays))), (k * opposite[0], k * opposite[1]))
    return base, rays


def _reference_ccw(base, rays):
    """The order by pairwise exact tests: u comes before v when u is in an
    earlier half-turn from base (the opposite ray ends the first), or in the
    same one with v counterclockwise of u."""

    def cross(a, b):
        return a[0] * b[1] - a[1] * b[0]

    def half(v):
        c = cross(base, v)
        return 0 if c > 0 or (c == 0 and base[0] * v[0] + base[1] * v[1] < 0) else 1

    def before(u, v):
        return half(u) < half(v) or (half(u) == half(v) and cross(u, v) > 0)

    ranks = [sum(before(v, u) for v in rays) for u in rays]
    assert sorted(ranks) == list(range(len(rays)))
    return sorted(range(len(rays)), key=ranks.__getitem__)


class TestCcwOrder:
    @settings(max_examples=300, deadline=None)
    @given(ccw_cases())
    def test_matches_pairwise_reference(self, case):
        base, rays = case
        assert _ccw_order(base, rays) == _reference_ccw(base, rays)

    def test_rejects_a_ray_along_the_base(self):
        with pytest.raises(AssertionError, match="coincides with the reference"):
            _ccw_order((2, 3), [(0, 1), (4, 6)])

    def test_rejects_two_rays_in_one_direction(self):
        with pytest.raises(AssertionError, match="share a direction"):
            _ccw_order((1, 0), [(1, 2), (0, 1), (3, 6)])
        with pytest.raises(AssertionError, match="share a direction"):
            _ccw_order((1, 0), [(-1, 0), (-5, 0)])


class TestSerialization:
    def test_object_round_trip(self, mixed_objects):
        from fareyflats.orbifold import PieceObject

        for obj in [*mixed_objects, torus_arc(Slope(1, 2)), curve(T, Slope(0, 1))]:
            assert PieceObject.from_json_dict(obj.to_json_dict()) == obj


@st.composite
def piece_objects(draw, piece, kind, height=100):
    """A curve, seam (torus arc on the torus) or wave of height <= height."""
    slope = draw(st.sampled_from(slopes_up_to(height)))
    if kind == "curve":
        return curve(piece, slope)
    if piece is T:
        return torus_arc(slope)
    s = seam(S, slope, seam_pairs(slope)[draw(st.integers(0, 1))])
    return s if kind == "seam" else wave(s, s.endpoints[draw(st.integers(0, 1))])


KIND_PAIRS = [
    (piece, a, b)
    for piece, kinds in ((T, ("curve", "seam")), (S, ("curve", "seam", "wave")))
    for a, b in itertools.combinations_with_replacement(kinds, 2)
]
KIND_PAIR_IDS = [f"{piece.value}-{a}-{b}" for piece, a, b in KIND_PAIRS]
# shrink moves only waves, and waves live on the sphere
WAVE_PAIRS = [pair for pair in KIND_PAIRS if "wave" in pair]
WAVE_PAIR_IDS = [f"{piece.value}-{a}-{b}" for piece, a, b in WAVE_PAIRS]
SPHERE_PAIRS = [pair for pair in KIND_PAIRS if pair[0] is S]
SPHERE_PAIR_IDS = [f"{piece.value}-{a}-{b}" for piece, a, b in SPHERE_PAIRS]


class TestKernelProperties:
    """The integer kernel against the literal translate counter."""

    @pytest.mark.parametrize("piece, kx, ky", KIND_PAIRS, ids=KIND_PAIR_IDS)
    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_matches_literal_counter(self, piece, kx, ky, data):
        x = data.draw(piece_objects(piece, kx))
        y = data.draw(piece_objects(piece, ky))
        assert inum(x, y) == literal_intersection_number(x, y)

    @pytest.mark.parametrize("piece, kx, ky", WAVE_PAIRS, ids=WAVE_PAIR_IDS)
    @settings(max_examples=6, deadline=None)
    @given(data=st.data(), shrink=st.integers(2, 9))
    def test_matches_literal_counter_on_shrunk_offsets(
        self, piece, kx, ky, data, shrink
    ):
        x = data.draw(piece_objects(piece, kx))
        y = data.draw(piece_objects(piece, ky))
        assume(x != y)
        ctx = RealizationContext((x, y), shrink)
        assert ctx.count(0, 1) == literal_intersection_number(x, y, ctx)
        assert ctx.count(0, 1) == inum(x, y)

    @pytest.mark.parametrize("piece, kx, ky", SPHERE_PAIRS, ids=SPHERE_PAIR_IDS)
    @settings(max_examples=8, deadline=None)
    @given(data=st.data(), shrink=st.integers(1, 9), extra=st.integers(0, 2))
    def test_negated_segment_counts_the_same(self, piece, kx, ky, data, shrink, extra):
        # y's preimage is closed under z -> -z, so the mirror image of x's
        # fundamental segment meets it as often as the segment itself
        x = data.draw(piece_objects(piece, kx))
        y = data.draw(piece_objects(piece, ky))
        assume(x != y)
        others = [data.draw(piece_objects(piece, "curve")) for _ in range(extra)]
        ctx = RealizationContext((*others, x, y), shrink)
        i, j = extra, extra + 1
        if ky == "wave" and kx != "wave":  # count puts the wave on the x side
            i, j = j, i
        ((a, b, ends),) = ctx.x_side(i)
        mirrored = (((-a[0], -a[1]), (-b[0], -b[1]), ends),)
        raw = _crossing_events(
            ctx.objects[i], mirrored, ctx.objects[j], ctx.y_side(j), ctx.scale, True
        )
        assert raw == ctx.count(i, j) == ctx.count(j, i)
        assert ctx.count(i, j) == literal_intersection_number(x, y, ctx)

    @pytest.mark.parametrize("piece", (T, S), ids=lambda piece: piece.value)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), at_crossing=st.booleans(), x_side=st.booleans())
    def test_split_period_counts_the_same(self, piece, data, at_crossing, x_side):
        # a curve's period split at a grid point, on the other object or
        # not, is read half open at the joint as at its anchor: the point
        # is on exactly one of the two pieces
        kinds = ("curve", "seam") if piece is T else ("curve", "seam", "wave")
        c = data.draw(piece_objects(piece, "curve"))
        y = data.draw(st.sampled_from(kinds).flatmap(partial(piece_objects, piece)))
        assume(c != y)
        ctx = RealizationContext((c, y))
        L = ctx.scale
        ((a, b, _),) = ctx.x_side(0)
        d = (b[0] - a[0], b[1] - a[1])
        steps = math.gcd(*d)  # the grid points of the period are a + k*d/steps
        events = _crossing_events(c, ctx.x_side(0), y, ctx.y_side(1), L)
        crossings = [
            num * steps // den
            for (num, den), _, _ in events
            if num and num * steps % den == 0
        ]
        if at_crossing and crossings:
            k = data.draw(st.sampled_from(crossings))
        else:
            k = data.draw(st.integers(1, steps - 1))
        m = (a[0] + k * d[0] // steps, a[1] + k * d[1] // steps)
        signs = (1,) if piece is T else (1, -1)

        def signed(points):
            return [
                tuple((s * p[0], s * p[1]) for p in seg)
                for seg in zip(points, points[1:])
                for s in signs
            ]

        ((ya, yb, _),) = ctx.x_side(1)
        ys = signed([ya, yb])

        def count(segments):
            if x_side:
                return _literal_count(c, segments, y, ys, L)
            return _literal_count(y, ys, c, segments, L)

        assert count(signed([a, m, b])) == count(signed([a, b]))

    def test_count_makes_one_kernel_pass_per_pair(self, monkeypatch):
        passes = []

        def kernel(x_obj, x_segments, *args):
            passes.append(len(x_segments))
            return _crossing_events(x_obj, x_segments, *args)

        monkeypatch.setattr(orbifold, "_crossing_events", kernel)
        a, b = Slope(1, 2), Slope(3, 1)
        ctx = RealizationContext((curve(S, a), curve(S, b)))
        assert ctx.count(0, 1) == 2 * abs(det(a, b))
        assert passes == [1]


def sphere_waves(height):
    """Every wave of height at most height."""
    return [
        wave(seam(S, u, pair), over)
        for u in slopes_up_to(height)
        for pair in seam_pairs(u)
        for over in pair
    ]


class TestBoundsByName:
    """Bounds that follow from the objects' names, not from their drawing.

    The kernel and the literal counter count one drawing, so a drawing
    that is not the object its name says passes both; only a bound read
    off the names can catch it.  These are lower bounds and identities:
    no |det| formula is assumed for waves.
    """

    @pytest.mark.xfail(
        strict=True,
        reason="176 of the 256 pairs count 0: a wave is drawn parallel to "
        "its seam, so no wave encloses another's end",
    )
    def test_annulus_bound_at_height_2(self):
        """Take waves x and y with x ending at y's 'over' corner c.  y and
        an arc of the hole at y's own end bound a disc whose one hole is c,
        an annulus around hole c, and both ends of x lie on hole c, inside
        it.  An arc from a hole back to the same hole inside an annulus
        cuts off a disc, so it is inessential.  A wave is essential, so x
        leaves the annulus across y and comes back: I(x, y) >= 2."""
        waves = sphere_waves(2)
        short = [
            (str(x), str(y))
            for x in waves
            for y in waves
            if x.endpoints[0] == y.over and inum(x, y) < 2
        ]
        assert short == []

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_seam_bound(self, data):
        """Take a wave y over corner c and a seam x with one end at c and
        neither at y's end corner.  x starts on hole c, inside the annulus
        that y bounds around it (see the annulus bound), and ends on a hole
        outside it, so x crosses y: I(x, y) >= 1."""
        y = data.draw(piece_objects(S, "wave", 20))
        u = data.draw(st.sampled_from(slopes_up_to(20)))
        pair = next(pair for pair in seam_pairs(u) if y.over in pair)
        assume(y.endpoints[0] not in pair)
        assert inum(seam(S, u, pair), y) >= 1

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_wave_crosses_a_curve_twice_where_its_seam_does(self, data):
        """wave(s, c) is the frontier of a thin neighbourhood N of s and
        hole c, cut open at the other hole: it runs along s once on each
        side.  A curve g misses the holes, so, with g and s in minimal
        position, g meets N only in arcs that cross s once, each crossing
        the wave twice.  The two bound no bigon: one along a side of s
        would give a bigon of g and s, and one around hole c would make g
        bound a disc with one hole.  So I(wave(s, c), g) = 2 I(s, g)."""
        w = data.draw(piece_objects(S, "wave", 20))
        g = data.draw(piece_objects(S, "curve", 20))
        s = seam(S, w.slope, (w.endpoints[0], w.over))
        assert inum(w, g) == 2 * inum(s, g)

    @pytest.mark.parametrize("piece", (T, S), ids=lambda piece: piece.value)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_symmetry(self, piece, data):
        """I(x, y) is the least number of points of x meeting y over the
        drawings of the two, a count that does not depend on their order;
        the kernel walks the segments of one and the lines of the other,
        so the two orders walk different sides."""
        kinds = ("curve", "seam") if piece is T else ("curve", "seam", "wave")
        one = st.sampled_from(kinds).flatmap(lambda k: piece_objects(piece, k, 20))
        x, y = data.draw(one), data.draw(one)
        assert inum(x, y) == inum(y, x)


@st.composite
def unimodular_matrices(draw, length=3):
    """Products of up to length matrices [[k, 1], [1, 0]] (determinant -1),
    which generate GL2(Z)."""
    m0, m1, m2, m3 = 1, 0, 0, 1
    for k in draw(st.lists(st.integers(-3, 3), max_size=length)):
        m0, m1, m2, m3 = m0 * k + m1, m0, m2 * k + m3, m2
    return (m0, m1, m2, m3)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(slopes_up_to(8)),
    st.sampled_from(slopes_up_to(8)),
    unimodular_matrices(),
    st.sampled_from((T, S)),
)
def test_curve_counts_invariant_under_unimodular_maps(a, b, m, piece):
    ma, mb = apply_unimodular(m, a), apply_unimodular(m, b)
    assert inum(curve(piece, ma), curve(piece, mb)) == inum(
        curve(piece, a), curve(piece, b)
    )


class TestPrimeSearch:
    """Contexts search no prime, so slopes of any size count at once."""

    def test_huge_coprime_curves_count_quickly(self):
        for n in (10**9, 10**13, 10**40):
            start = time.perf_counter()
            assert inum(curve(T, Slope(1, n)), curve(T, Slope(1, n + 1))) == 1
            assert time.perf_counter() - start < 0.5, n


def _mapped(m, obj):
    """The image of obj under the homeomorphism of its piece induced by m.

    Slopes map by apply_unimodular; the plane acts on directions (q, p), so
    by J*m*J with J the coordinate swap, and so corner ab goes to
    ((m3*a + m2*b) mod 2)((m1*a + m0*b) mod 2).  The torus mark is fixed.
    """
    m0, m1, m2, m3 = m

    def corner(label):
        a, b = int(label[0]), int(label[1])
        return f"{(m3 * a + m2 * b) % 2}{(m1 * a + m0 * b) % 2}"

    u = apply_unimodular(m, obj.slope)
    if obj.kind is ObjectKind.CURVE:
        return curve(obj.piece, u)
    if obj.piece is T:
        return torus_arc(u)
    if obj.kind is ObjectKind.SEAM:
        return seam(S, u, tuple(map(corner, obj.endpoints)))
    end, over = corner(obj.endpoints[0]), corner(obj.over)
    return wave(seam(S, u, (end, over)), over)


@pytest.mark.parametrize("piece, kx, ky", KIND_PAIRS, ids=KIND_PAIR_IDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data(), m=unimodular_matrices(length=12))
def test_counts_equivariant_under_unimodular_maps(piece, kx, ky, data, m):
    # a matrix of determinant +-1 is a homeomorphism of both pieces
    x = data.draw(piece_objects(piece, kx, height=6))
    y = data.draw(piece_objects(piece, ky, height=6))
    assert inum(_mapped(m, x), _mapped(m, y)) == inum(x, y)
