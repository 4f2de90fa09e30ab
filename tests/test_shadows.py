import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fareyflats import cli, shadows
from fareyflats.flats import SurfaceDesc, max_handles, product_distance
from fareyflats.orbifold import (
    ObjectKind,
    PieceKind,
    RealizationContext,
    curve,
    seam,
    torus_arc,
)
from fareyflats.shadows import (
    Crossing,
    HandleSystem,
    InGraph,
    MoveAnnotation,
    MoveKind,
    PathShadow,
    VertexShadow,
    _min_distance,
    audit_projection_bound,
    detect_special_couples,
    orthogonality_check,
    project_shadow,
    projection_gap_scenario,
    random_orthogonal_pair,
    random_path_shadow,
    shadow_in_pq,
)
from fareyflats.slopes import Slope, slopes_up_to

T = PieceKind.ONE_HOLED_TORUS
S = PieceKind.FOUR_HOLED_SPHERE


def sl(text):
    return Slope.parse(text)


def two_sphere_system():
    return HandleSystem(SurfaceDesc(0, 6), (S, S))


def mixed_system():
    return HandleSystem(SurfaceDesc(2, 2), (T, T, S))


class TestHandleSystem:
    def test_counts(self):
        sys2 = two_sphere_system()
        assert sys2.n == 2
        sys3 = mixed_system()
        assert sys3.surface.complexity == 5

    def test_too_few_pieces(self):
        with pytest.raises(ValueError):
            HandleSystem(SurfaceDesc(0, 6), (S,))

    def test_too_many_pieces(self):
        with pytest.raises(ValueError):
            HandleSystem(SurfaceDesc(0, 6), (S, S, S))


class TestVertexShadow:
    def test_member_shadow(self):
        v = shadow_in_pq(two_sphere_system(), (sl("0/1"), sl("1/0")))
        assert v.in_pq
        assert project_shadow(v) == (frozenset({sl("0/1")}), frozenset({sl("1/0")}))

    def test_member_flag_requires_all_in_graph(self):
        with pytest.raises(ValueError):
            VertexShadow(
                two_sphere_system(),
                (InGraph(sl("0/1")), Crossing(())),
                in_pq=True,
            )

    def test_all_in_graph_outside_pq_is_legal(self):
        v = VertexShadow(
            two_sphere_system(),
            (InGraph(sl("0/1")), InGraph(sl("0/1"))),
            in_pq=False,
        )
        assert not v.in_pq

    def test_trace_on_wrong_piece_kind(self):
        with pytest.raises(ValueError):
            VertexShadow(
                two_sphere_system(),
                (Crossing((torus_arc(sl("0/1")),)), InGraph(sl("0/1"))),
                in_pq=False,
            )

    def test_trace_mixing_pieces_rejected(self):
        with pytest.raises(ValueError, match="share a piece"):
            Crossing((curve(S, sl("0/1")), torus_arc(sl("0/1"))))

    def test_intersecting_trace_rejected(self):
        bad = (seam(S, sl("0/1")), curve(S, sl("1/1")))
        with pytest.raises(ValueError):
            VertexShadow(
                two_sphere_system(),
                (Crossing(bad), InGraph(sl("0/1"))),
                in_pq=False,
            )

    def test_parallel_strands_allowed(self):
        s = seam(S, sl("0/1"))
        v = VertexShadow(
            two_sphere_system(),
            (Crossing((s, s)), InGraph(sl("0/1"))),
            in_pq=False,
        )
        assert project_shadow(v) == (frozenset({sl("0/1")}), frozenset({sl("0/1")}))

    def test_arity_checked(self):
        with pytest.raises(ValueError):
            VertexShadow(
                two_sphere_system(), (InGraph(sl("0/1")),), in_pq=False
            )


class TestProjectShadow:
    def test_empty_trace_gives_free_marker(self):
        v = VertexShadow(
            two_sphere_system(),
            (Crossing(()), InGraph(sl("3/1"))),
            in_pq=False,
        )
        assert project_shadow(v) == (frozenset({None}), frozenset({sl("3/1")}))

    def test_two_arc_trace_with_distinct_projections(self):
        a = seam(S, sl("0/1"), ("00", "10"))
        b = seam(S, sl("1/0"), ("01", "00"))
        # the seams share corner 00 only, hence are disjoint
        v = VertexShadow(
            two_sphere_system(),
            (Crossing((a, b)), InGraph(sl("0/1"))),
            in_pq=False,
        )
        assert project_shadow(v) == (
            frozenset({sl("0/1"), sl("1/0")}),
            frozenset({sl("0/1")}),
        )


class TestOrthogonality:
    def test_single_arc_neighbor(self):
        system = two_sphere_system()
        v0 = shadow_in_pq(system, (sl("1/1"), sl("0/1")))
        trace = (curve(S, sl("1/1")), seam(S, sl("1/1")))
        v1 = VertexShadow(
            system, (Crossing(trace), InGraph(sl("0/1"))), in_pq=False
        )
        assert orthogonality_check(v0, v1)

    def test_exchange_outside_all_pieces(self):
        system = two_sphere_system()
        v0 = shadow_in_pq(system, (sl("1/1"), sl("0/1")))
        v1 = VertexShadow(
            system,
            (InGraph(sl("1/1")), InGraph(sl("0/1"))),
            in_pq=False,
        )
        assert orthogonality_check(v0, v1)

    def test_wrong_slope_fails(self):
        system = two_sphere_system()
        v0 = shadow_in_pq(system, (sl("0/1"), sl("0/1")))
        off = (seam(S, sl("1/0"), ("00", "01")), seam(S, sl("1/0"), ("10", "11")))
        v1 = VertexShadow(
            system, (Crossing(off), InGraph(sl("0/1"))), in_pq=False
        )
        assert not orthogonality_check(v0, v1)

    def test_non_singleton_fails(self):
        system = two_sphere_system()
        v0 = shadow_in_pq(system, (sl("0/1"), sl("0/1")))
        mixed = (seam(S, sl("0/1"), ("00", "10")), seam(S, sl("1/0"), ("01", "00")))
        v1 = VertexShadow(
            system, (Crossing(mixed), InGraph(sl("0/1"))), in_pq=False
        )
        assert not orthogonality_check(v0, v1)

    def test_preconditions(self):
        system = two_sphere_system()
        v0 = shadow_in_pq(system, (sl("0/1"), sl("0/1")))
        v1 = VertexShadow(
            system, (Crossing(()), InGraph(sl("0/1"))), in_pq=False
        )
        with pytest.raises(ValueError):
            orthogonality_check(v1, v0)
        with pytest.raises(ValueError):
            orthogonality_check(v0, v0)
        other = VertexShadow(
            mixed_system(), (InGraph(sl("0/1")),) * 3, in_pq=False
        )
        with pytest.raises(ValueError, match="different handle systems"):
            orthogonality_check(v0, other)


class TestPathValidation:
    def test_silent_change_rejected(self):
        system = two_sphere_system()
        v0 = shadow_in_pq(system, (sl("0/1"), sl("0/1")))
        v1 = shadow_in_pq(system, (sl("0/1"), sl("1/0")))
        noop = MoveAnnotation(MoveKind.SECOND, (), ())
        with pytest.raises(ValueError):
            PathShadow((v0, v1), (noop,))

    def test_removing_absent_object_rejected(self):
        system = two_sphere_system()
        v0 = shadow_in_pq(system, (sl("0/1"), sl("0/1")))
        v1 = shadow_in_pq(system, (sl("1/0"), sl("0/1")))
        move = MoveAnnotation(
            MoveKind.SECOND,
            removed=((0, curve(S, sl("5/2"))),),
            added=((0, curve(S, sl("1/0"))),),
        )
        with pytest.raises(ValueError):
            PathShadow((v0, v1), (move,))

    def test_crossing_budget_enforced(self):
        system = two_sphere_system()
        v0 = shadow_in_pq(system, (sl("0/1"), sl("0/1")))
        v1 = shadow_in_pq(system, (sl("1/0"), sl("0/1")))
        # a sphere curve exchange crosses twice; First-kind allows one
        move = MoveAnnotation(
            MoveKind.FIRST,
            removed=((0, curve(S, sl("0/1"))),),
            added=((0, curve(S, sl("1/0"))),),
        )
        with pytest.raises(ValueError):
            PathShadow((v0, v1), (move,))

    def test_out_of_range_piece(self):
        system = two_sphere_system()
        v0 = shadow_in_pq(system, (sl("0/1"), sl("0/1")))
        move = MoveAnnotation(
            MoveKind.SECOND, removed=((5, curve(S, sl("0/1"))),), added=()
        )
        with pytest.raises(ValueError):
            PathShadow((v0, v0), (move,))

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError, match="empty path"):
            PathShadow((), ())

    def test_vertices_over_different_systems_rejected(self):
        v0 = shadow_in_pq(two_sphere_system(), (sl("0/1"), sl("0/1")))
        v1 = shadow_in_pq(mixed_system(), (sl("0/1"),) * 3)
        noop = MoveAnnotation(MoveKind.SECOND, (), ())
        with pytest.raises(ValueError, match="share one handle system"):
            PathShadow((v0, v1), (noop,))

    def test_object_on_wrong_piece_kind_rejected(self):
        v0 = shadow_in_pq(two_sphere_system(), (sl("0/1"), sl("0/1")))
        move = MoveAnnotation(
            MoveKind.FIRST, removed=((0, torus_arc(sl("0/1"))),), added=()
        )
        with pytest.raises(ValueError, match="wrong piece kind"):
            PathShadow((v0, v0), (move,))

    def test_move_other_than_annotated_rejected(self):
        system = two_sphere_system()
        v0 = shadow_in_pq(system, (sl("0/1"), sl("0/1")))
        v1 = shadow_in_pq(system, (sl("1/0"), sl("0/1")))
        move = MoveAnnotation(
            MoveKind.SECOND,
            removed=((0, curve(S, sl("0/1"))),),
            added=((0, curve(S, sl("2/1"))),),
        )
        with pytest.raises(ValueError, match="as annotated"):
            PathShadow((v0, v1), (move,))


@pytest.fixture
def checks(monkeypatch):
    """The objects of each realization context shadows builds, in order:
    one per trace disjointness check."""
    built = []

    class Counting(RealizationContext):
        def __init__(self, objects, shrink=1):
            built.append(tuple(objects))
            super().__init__(objects, shrink)

    monkeypatch.setattr(shadows, "RealizationContext", Counting)
    return built


class TestCheckedOnce:
    """A trace is checked when its Crossing is built; the vertices and
    paths that carry the Crossing check it no more."""

    def test_carried_trace_is_checked_once(self, checks):
        system = two_sphere_system()
        extra = seam(S, sl("0/1"))
        crossed = Crossing((curve(S, sl("0/1")), extra))
        Crossing((extra, extra))  # parallel strands: nothing to count
        Crossing(())
        vertices = [
            shadow_in_pq(system, (sl("0/1"), sl("0/1"))),
            VertexShadow(system, (crossed, InGraph(sl("0/1"))), in_pq=False),
        ]
        moves = [MoveAnnotation(MoveKind.SECOND, (), ((0, extra),))]
        for a, b in (("0/1", "1/0"), ("1/0", "1/1"), ("1/1", "0/1")):
            vertices.append(
                VertexShadow(system, (crossed, InGraph(sl(b))), in_pq=False)
            )
            moves.append(
                MoveAnnotation(
                    MoveKind.SECOND,
                    removed=((1, curve(S, sl(a))),),
                    added=((1, curve(S, sl(b))),),
                )
            )
        path = PathShadow(tuple(vertices), tuple(moves))
        assert audit_projection_bound(path)["pass"]
        assert checks == [crossed.trace]

    def test_generated_paths_check_each_crossing_once(self, checks):
        rng = random.Random(3)
        paths = [
            random_path_shadow(
                two_sphere_system() if k % 2 else mixed_system(), rng, length=8
            )
            for k in range(8)
        ]
        carried = [
            entry
            for path in paths
            for v in path.vertices
            for entry in v.data
            if isinstance(entry, Crossing) and len(set(entry.trace)) >= 2
        ]
        built = {id(entry) for entry in carried}
        assert len(carried) > len(built)  # some vertex carries a trace over
        assert len(checks) == len(built)


def _crossing_twins(trace):
    """Pairs of waves x, y of the trace with x ending at y's 'over' corner;
    the annulus bound (tests/test_orbifold.py) makes each cross twice."""
    waves = [o for o in trace if o.kind is ObjectKind.WAVE]
    return [(x, y) for x in waves for y in waves if x.endpoints[0] == y.over]


@pytest.mark.xfail(
    strict=True,
    reason="a sphere trace's two wave companions may be twins over opposite "
    "corners, which must cross",
)
def test_default_orthogonality_draws_hold_no_crossing_twins():
    """The draws of ``scenario orthogonality`` at its defaults (seed 0, 200
    pairs, height 6) hold no pair of trace components that must cross.
    Today 6 of their 296 traces hold one, such as curve(-1/3),
    wave(-1/3; at 11 over 00), wave(-1/3; at 00 over 11); the kernel counts
    the twins 0, so the Crossing check passes them."""
    rng = random.Random(0)
    systems = (two_sphere_system(), mixed_system())
    twins = []
    for k in range(200):
        _, v1 = random_orthogonal_pair(systems[k % 2], rng, height=6)
        for entry in v1.data:
            if isinstance(entry, Crossing):
                twins += _crossing_twins(entry.trace)
    assert twins == []


def two_couple_chain(gamma: str):
    """v0 -> Crossing(seam 0/1) -> InGraph(gamma), both edges special."""
    system = two_sphere_system()
    s = seam(S, sl("0/1"))
    beta = curve(S, sl("2/1"))
    after = curve(S, sl(gamma))
    v0 = shadow_in_pq(system, (sl("2/1"), sl("0/1")))
    v1 = VertexShadow(
        system, (Crossing((s,)), InGraph(sl("0/1"))), in_pq=False
    )
    v2 = VertexShadow(
        system, (InGraph(sl(gamma)), InGraph(sl("0/1"))), in_pq=False
    )
    e0 = MoveAnnotation(
        MoveKind.SECOND, removed=((0, beta),), added=((0, s),)
    )
    e1 = MoveAnnotation(
        MoveKind.SECOND, removed=((0, s),), added=((0, after),)
    )
    return PathShadow((v0, v1, v2), (e0, e1))


class TestSpecialCouples:
    def test_gap_scenario_is_flagged(self):
        path, _ = projection_gap_scenario()
        found = detect_special_couples(path)
        assert len(found) == 1
        edge, piece, couple = found[0]
        assert (edge, piece) == (0, 0)
        assert couple.seam_obj.slope == sl("0/1")
        assert couple.curve_obj.slope == sl("2/1")

    def test_torus_step_never_flagged(self):
        system = mixed_system()
        v0 = shadow_in_pq(system, (sl("0/1"), sl("0/1"), sl("0/1")))
        v1 = shadow_in_pq(system, (sl("1/0"), sl("0/1"), sl("0/1")))
        move = MoveAnnotation(
            MoveKind.FIRST,
            removed=((0, curve(T, sl("0/1"))),),
            added=((0, curve(T, sl("1/0"))),),
        )
        path = PathShadow((v0, v1), (move,))
        assert detect_special_couples(path) == []

    def test_disjoint_exchange_not_flagged(self):
        system = two_sphere_system()
        v0 = shadow_in_pq(system, (sl("0/1"), sl("0/1")))
        extra = seam(S, sl("0/1"))
        v1 = VertexShadow(
            system,
            (Crossing((curve(S, sl("0/1")), extra)), InGraph(sl("0/1"))),
            in_pq=False,
        )
        move = MoveAnnotation(
            MoveKind.SECOND, removed=(), added=((0, extra),)
        )
        path = PathShadow((v0, v1), (move,))
        assert detect_special_couples(path) == []

    @pytest.mark.parametrize(
        "gamma", ["2/3", "2/1"], ids=["distinct-curves", "repeated-curve"]
    )
    def test_chain_flags_both_edges(self, gamma):
        found = detect_special_couples(two_couple_chain(gamma))
        assert [(edge, piece) for edge, piece, _ in found] == [(0, 0), (1, 0)]
        assert [couple.seam_obj.slope for _, _, couple in found] == [sl("0/1")] * 2
        assert [couple.curve_obj.slope for _, _, couple in found] == [
            sl("2/1"),
            sl(gamma),
        ]


class TestAudit:
    def test_constant_path(self):
        v0 = shadow_in_pq(two_sphere_system(), (sl("0/1"), sl("0/1")))
        report = audit_projection_bound(PathShadow((v0,), ()))
        assert report == {
            "r": 0,
            "best": 0,
            "pass": True,
            "evidence": "instance",
        }

    def test_single_adjacent_step(self):
        system = two_sphere_system()
        v0 = shadow_in_pq(system, (sl("0/1"), sl("0/1")))
        v1 = shadow_in_pq(system, (sl("1/0"), sl("0/1")))
        move = MoveAnnotation(
            MoveKind.SECOND,
            removed=((0, curve(S, sl("0/1"))),),
            added=((0, curve(S, sl("1/0"))),),
        )
        report = audit_projection_bound(PathShadow((v0, v1), (move,)))
        assert report["best"] == 1
        assert report["pass"]

    def test_gap_scenario_fails_the_bound(self):
        _, report = projection_gap_scenario()
        assert report["r"] == 1
        assert report["best"] == 2
        assert not report["pass"]


def brute_min_distance(a, b):
    """The best product distance over every pair of whole points, each
    point one coordinate per piece."""
    return min(
        product_distance(s, t)
        for s in itertools.product(*a)
        for t in itertools.product(*b)
    )


PIECE_SETS = st.frozensets(
    st.sampled_from([None, *slopes_up_to(3)]), min_size=1, max_size=3
)


class TestMinDistance:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 4).flatmap(
        lambda n: st.tuples(*[st.tuples(PIECE_SETS, PIECE_SETS)] * n)
    ))
    def test_matches_the_product_on_any_piece_sets(self, pieces):
        a, b = tuple(x for x, _ in pieces), tuple(y for _, y in pieces)
        assert _min_distance(a, b) == brute_min_distance(a, b)

    def test_matches_the_product_on_generated_paths(self):
        # the generators' piece sets are singletons; the property above
        # covers several coordinates and free markers in one piece
        rng = random.Random(26)
        systems = (
            two_sphere_system(),
            mixed_system(),
            HandleSystem(SurfaceDesc(0, 8), (S, S, S)),
        )
        pairs = 0
        for k in range(90):
            path = random_path_shadow(systems[k % 3], rng, length=1 + k % 8)
            projected = [project_shadow(v) for v in path.vertices]
            for a, b in itertools.combinations_with_replacement(projected, 2):
                assert _min_distance(a, b) == brute_min_distance(a, b)
                pairs += 1
        assert pairs > 1000

    def test_different_ranks_raise(self):
        two = project_shadow(shadow_in_pq(two_sphere_system(), (sl("0/1"),) * 2))
        three = project_shadow(shadow_in_pq(mixed_system(), (sl("0/1"),) * 3))
        with pytest.raises(ValueError):
            _min_distance(two, three)
        with pytest.raises(ValueError):
            _min_distance(three, two)


def many_sphere_fixture(tmp_path, boundary):
    """A one-vertex path over every sphere piece of SurfaceDesc(0, boundary);
    each piece's trace is two disjoint seams of slopes 1/0 and -1/1."""
    surface = SurfaceDesc(0, boundary)
    n = max_handles(surface)
    trace = Crossing(
        (seam(S, sl("1/0"), ("00", "01")), seam(S, sl("-1/1"), ("00", "11")))
    )
    v = VertexShadow(HandleSystem(surface, (S,) * n), (trace,) * n, in_pq=False)
    path = tmp_path / f"spheres{n}.json"
    path.write_text(json.dumps(PathShadow((v,), ()).to_json_dict()))
    return n, str(path)


class TestManyPieces:
    """An audit costs a few distances per piece, not a product over them."""

    def test_ten_pieces_audit_with_four_distances_each(
        self, capsys, monkeypatch, tmp_path
    ):
        n, fixture = many_sphere_fixture(tmp_path, 22)
        assert n == 10
        calls = []

        def counting(u, v):
            calls.append((u, v))
            return product_distance(u, v)

        monkeypatch.setattr(shadows, "product_distance", counting)
        code = cli.main(["scenario", "audit", fixture, "--no-timestamp"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["best"] == 0 and report["r"] == 0
        assert len(calls) <= 4 * n

    def test_forty_pieces_audit(self, capsys, tmp_path):
        n, fixture = many_sphere_fixture(tmp_path, 82)
        assert n == 40
        assert cli.main(["scenario", "audit", fixture, "--no-timestamp"]) == 0
        assert json.loads(capsys.readouterr().out)["best"] == 0


class TestGapScenario:
    def test_report_values(self):
        _, report = projection_gap_scenario()
        assert report["special_couple"]
        assert report["without_far_trace"] == 2
        assert report["disjoint_control"] <= 1

    def test_gap_is_stable_under_completion_choices(self):
        # the free far coordinate never shrinks the distance below 2
        base = (sl("0/1"), sl("0/1"))
        for c in slopes_up_to(8):
            assert product_distance(base, (sl("2/1"), c)) >= 2


class TestGenerators:
    def test_orthogonal_fixtures_hold(self):
        rng = random.Random(20260814)
        for k in range(60):
            system = two_sphere_system() if k % 2 else mixed_system()
            v0, v1 = random_orthogonal_pair(system, rng)
            assert orthogonality_check(v0, v1)

    def test_generated_paths_satisfy_bound(self):
        rng = random.Random(99)
        for k in range(20):
            system = two_sphere_system() if k % 2 else mixed_system()
            path = random_path_shadow(system, rng, length=1 + k % 8)
            assert path.length == 1 + k % 8
            assert audit_projection_bound(path)["pass"]

    def test_generated_paths_avoid_special_couples(self):
        rng = random.Random(4)
        for k in range(12):
            path = random_path_shadow(two_sphere_system(), rng, length=6)
            assert detect_special_couples(path) == []

    def test_determinism(self):
        a = random_path_shadow(mixed_system(), random.Random(5), length=5)
        b = random_path_shadow(mixed_system(), random.Random(5), length=5)
        assert a == b
        va = random_orthogonal_pair(mixed_system(), random.Random(6))
        vb = random_orthogonal_pair(mixed_system(), random.Random(6))
        assert va == vb


class TestSerialization:
    def test_handle_system_round_trip(self):
        for system in (two_sphere_system(), mixed_system()):
            assert HandleSystem.from_json_dict(system.to_json_dict()) == system

    def test_vertex_round_trip(self):
        system = mixed_system()
        v, _ = random_orthogonal_pair(system, random.Random(1))
        data = v.to_json_dict()
        assert VertexShadow.from_json_dict(system, data) == v

    def test_path_round_trip_random(self):
        for seed in range(4):
            system = two_sphere_system() if seed % 2 else mixed_system()
            path = random_path_shadow(system, random.Random(seed), length=5)
            back = PathShadow.from_json_dict(path.to_json_dict())
            assert back == path

    def test_path_round_trip_gap_scenario(self):
        path, _ = projection_gap_scenario()
        back = PathShadow.from_json_dict(path.to_json_dict())
        assert back == path
        assert len(detect_special_couples(back)) == 1

    def test_move_annotation_round_trip(self):
        system = mixed_system()
        path = random_path_shadow(system, random.Random(7), length=4)
        for move in path.moves:
            back = MoveAnnotation.from_json_dict(move.to_json_dict())
            assert back == move

    def test_from_json_dict_revalidates(self):
        path, _ = projection_gap_scenario()
        data = path.to_json_dict()
        data["moves"] = data["moves"][:-1]  # length no longer matches
        with pytest.raises(ValueError):
            PathShadow.from_json_dict(data)
