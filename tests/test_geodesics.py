import random
from collections import deque
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fareyflats.geodesics import (
    FareyGraph,
    Subgraph,
    bfs_distance,
    build_ball,
    check_subgraph,
    geodesic_count,
    geodesics,
)
from fareyflats.slopes import (
    INFINITY,
    Slope,
    adjacent,
    apply_unimodular,
    distance,
    neighbors,
    slopes_in_interval,
    slopes_up_to,
)


class TestOracleAgreement:
    def test_bfs_matches_closed_form_height_eight(self):
        graph = FareyGraph(24)
        verts = slopes_up_to(8)
        for i, a in enumerate(verts):
            level = graph.bfs(a)
            for b in verts[i + 1 :]:
                assert level[b] == distance(a, b), (str(a), str(b))

    def test_truncations_stay_connected(self):
        # Parent chains decrease height, so truncations are connected and
        # the unreachable branch of bfs_distance never fires in practice.
        graph = FareyGraph(12)
        reach = graph.bfs(Slope(0, 1))
        assert len(reach) == len(graph.vertices)

    def test_endpoints_must_respect_bound(self):
        with pytest.raises(ValueError):
            bfs_distance(Slope(1, 9), Slope(0, 1), 5)


class TestGeodesicEnumeration:
    def test_unit_interval_pair(self):
        g = geodesics(Slope(-1, 1), Slope(1, 1), 8)
        assert g.length == 2
        assert not g.truncated
        assert {tuple(map(str, p)) for p in g.paths} == {
            ("-1/1", "0/1", "1/1"),
            ("-1/1", "1/0", "1/1"),
        }

    def test_adjacent_pair_single_path(self):
        g = geodesics(Slope(0, 1), INFINITY, 6)
        assert g.length == 1
        assert g.paths == ((Slope(0, 1), INFINITY),)

    def test_paths_are_geodesics(self):
        g = geodesics(Slope(2, 5), Slope(-1, 2), 20)
        assert g.length == distance(Slope(2, 5), Slope(-1, 2))
        for path in g.paths:
            assert len(path) == g.length + 1
            assert path[0] == g.a and path[-1] == g.b
            for u, w in zip(path, path[1:]):
                assert adjacent(u, w)

    def test_json_round_trip_fields(self):
        g = geodesics(Slope(-1, 1), Slope(1, 1), 8)
        d = g.to_json_dict()
        assert d["count"] == 2
        assert d["truncated"] is False

    def test_geodesics_respect_endpoint_heights(self):
        # No geodesic vertex exceeds the height of the endpoints, so the
        # truncation flag never fires (exhaustive, h <= 5).
        verts = slopes_up_to(5)
        for i, a in enumerate(verts):
            for b in verts[i + 1 :]:
                g = geodesics(a, b, 5)
                assert not g.truncated
                cap = max(a.height, b.height)
                for path in g.paths:
                    assert all(v.height <= cap for v in path)


@cache
def graph_at(height):
    """One truncation per height, shared by this module's oracle searches."""
    return FareyGraph(height)


def truncated_geodesics(a, b, height):
    """Every shortest a-b path inside the height truncation, sorted.

    Breadth-first levels from a in the truncated graph, then a walk back
    from b through strictly decreasing levels.  It shares nothing with the
    walk over the fans, which makes it that walk's oracle.
    """
    graph = graph_at(height)
    level = graph.bfs(a)
    paths = []
    stack = [(b, (b,))]
    while stack:
        v, tail = stack.pop()
        if v == a:
            paths.append(tail[::-1])
            continue
        for j in graph.adj[graph._by_pair[v.p, v.q]]:
            w = graph.vertices[j]
            if level.get(w) == level[v] - 1:
                stack.append((w, tail + (w,)))
    key = lambda path: tuple(s.sort_key() for s in path)
    return level[b], tuple(sorted(paths, key=key))


def assert_ladder_matches_truncation(a, b, oracle_height):
    g = geodesics(a, b, 1)
    assert (g.length, g.paths) == truncated_geodesics(a, b, oracle_height)
    assert g.length == distance(a, b)
    assert not g.truncated
    cap = max(a.height, b.height)
    assert g.height_bound == cap
    assert all(v.height <= cap for path in g.paths for v in path)


class TestLadderAgainstTruncation:
    def test_exhaustive_height_six(self):
        verts = slopes_up_to(6)
        for a in verts:
            for b in verts:
                assert_ladder_matches_truncation(a, b, 12)

    @settings(deadline=None)
    @given(
        st.sampled_from(slopes_up_to(10)),
        st.sampled_from(slopes_up_to(10)),
    )
    def test_sampled_height_ten(self, a, b):
        assert_ladder_matches_truncation(a, b, 20)


def test_count_matches_enumeration_height_six():
    verts = slopes_up_to(6)
    for a in verts:
        for b in verts:
            assert geodesic_count(a, b) == len(geodesics(a, b, 1).paths)


def all_twos(n):
    """[0; 2, ..., 2] with n twos."""
    prev, cur = (1, 0), (0, 1)
    for _ in range(n):
        prev, cur = cur, (2 * cur[0] + prev[0], 2 * cur[1] + prev[1])
    return Slope(*cur)


def fibonacci(n):
    """F(n), with F(1) = F(2) = 1."""
    x, y = 0, 1
    for _ in range(n):
        x, y = y, x + y
    return x


def test_count_is_fibonacci_on_the_all_twos_slopes():
    # Every fan has a_k = 2, so each convergent's geodesics come from both
    # of the two before it: F(n + 2) geodesics of length n + 1.
    for n in range(13):
        g = geodesics(INFINITY, all_twos(n), 1)
        assert g.length == n + 1
        assert geodesic_count(INFINITY, all_twos(n)) == len(g.paths) == fibonacci(n + 2)
    count = geodesic_count(INFINITY, all_twos(300))
    assert count == fibonacci(302) and len(str(count)) == 63
    assert distance(INFINITY, all_twos(300)) == 301


LARGE = 10**6


@st.composite
def large_slopes(draw):
    """Slopes of height up to 10**6.

    Half are drawn uniformly; the other half are continued fractions with
    partial quotients 1 to 3, cut before their height passes 10**6, whose
    fans have inner spokes and can hold many geodesics.
    """
    if draw(st.booleans()):
        q = draw(st.integers(0, LARGE))
        return Slope(draw(st.integers(-LARGE, LARGE)), q) if q else INFINITY
    prev, cur = (1, 0), (draw(st.integers(-3, 3)), 1)
    for ak in draw(st.lists(st.integers(1, 3), max_size=30)):
        nxt = (ak * cur[0] + prev[0], ak * cur[1] + prev[1])
        if max(abs(nxt[0]), nxt[1]) > LARGE:
            break
        prev, cur = cur, nxt
    return Slope(*cur)


def seeded_unimodular(seed):
    """A product of a few shears, with a swap of columns half the time."""
    rng = random.Random(seed)
    m = (1, 0, 0, 1)
    for _ in range(rng.randint(0, 6)):
        t = rng.choice([v for v in range(-9, 10) if v])
        a, b, c, d = m
        if rng.random() < 0.5:
            m = (a, a * t + b, c, c * t + d)
        else:
            m = (a + b * t, b, c + d * t, d)
    return (m[1], m[0], m[3], m[2]) if rng.random() < 0.5 else m


def path_key(path):
    return tuple(s.sort_key() for s in path)


class TestLadderProperties:
    @settings(deadline=None)
    @given(large_slopes(), large_slopes())
    def test_paths_are_the_sorted_geodesics(self, a, b):
        g = geodesics(a, b, 1)
        assert g.length == distance(a, b)
        assert g.paths and geodesic_count(a, b) == len(g.paths)
        assert list(g.paths) == sorted(set(g.paths), key=path_key)
        cap = max(a.height, b.height)
        for path in g.paths:
            assert len(path) == g.length + 1
            assert path[0] == a and path[-1] == b
            assert all(adjacent(u, w) for u, w in zip(path, path[1:]))
            assert all(v.height <= cap for v in path)

    @settings(deadline=None)
    @given(large_slopes(), large_slopes())
    def test_reversing_the_ends_reverses_the_paths(self, a, b):
        assert geodesic_count(a, b) == geodesic_count(b, a)
        there, back = geodesics(a, b, 1).paths, geodesics(b, a, 1).paths
        assert sorted(back, key=path_key) == sorted(
            (path[::-1] for path in there), key=path_key
        )

    @settings(deadline=None)
    @given(large_slopes(), large_slopes(), st.integers(0, 2**32))
    def test_unimodular_maps_carry_paths_to_paths(self, a, b, seed):
        m = seeded_unimodular(seed)
        g = geodesics(a, b, 1)
        image = geodesics(apply_unimodular(m, a), apply_unimodular(m, b), 1)
        assert image.length == g.length
        assert set(image.paths) == {
            tuple(apply_unimodular(m, v) for v in path) for path in g.paths
        }


class TestBall:
    def test_ball_contains_center_and_respects_radius(self):
        ball = build_ball(Slope(0, 1), 2, 20)
        assert Slope(0, 1) in ball.vertices
        for v, d in ball.dist_from_center.items():
            assert d <= 2
            assert distance(Slope(0, 1), v) <= d

    def test_edges_are_farey_edges(self):
        ball = build_ball(INFINITY, 2, 10)
        for e in ball.edges:
            u, w = tuple(e)
            assert adjacent(u, w)

    def test_negative_radius_is_refused(self):
        with pytest.raises(ValueError, match="negative"):
            build_ball(Slope(0, 1), -1, 5)
        ball = build_ball(Slope(0, 1), 0, 5)
        assert ball.vertices == (Slope(0, 1),) and not ball.edges

    def test_dot_output_mentions_all_vertices(self):
        ball = build_ball(Slope(0, 1), 1, 5)
        dot = ball.to_dot()
        for v in ball.vertices:
            assert f'"{v}"' in dot


@pytest.fixture(scope="module")
def host():
    return build_ball(Slope(0, 1), 6, 12)


class TestSubgraphChecks:
    def test_host_covers_truncation(self, host):
        # The radius-6 ball at height 12 exhausts the truncation, so ball
        # distances agree with the infinite graph on these vertices.
        assert set(slopes_up_to(12)) <= set(host.vertices)

    def test_interval_convex_but_not_totally_geodesic(self, host):
        iv = slopes_in_interval(Fraction(-1), Fraction(1), 12)
        report = check_subgraph(Subgraph.induced(iv, host), host)
        assert report["convex"] and report["convex_witness"] is None
        assert not report["totally_geodesic"]
        assert report["geodesic_witness"] == ["-1/1", "1/0", "1/1"]

    def test_triangle_passes_both(self, host):
        tri = [Slope(0, 1), Slope(1, 1), INFINITY]
        report = check_subgraph(Subgraph.induced(tri, host), host)
        assert report["convex"] and report["convex_witness"] is None
        assert report["totally_geodesic"] and report["geodesic_witness"] is None

    def test_missing_edge_breaks_convexity(self, host):
        verts = frozenset((Slope(0, 1), Slope(1, 1), INFINITY))
        sub = Subgraph(
            vertices=verts,
            edges=frozenset(
                {
                    frozenset((Slope(0, 1), INFINITY)),
                    frozenset((Slope(1, 1), INFINITY)),
                }
            ),
        )
        report = check_subgraph(sub, host)
        assert not report["convex"]
        assert report["convex_witness"] == ["0/1", "1/1"]

    def test_stray_vertex_is_refused(self, host):
        sub = Subgraph(vertices=frozenset((Slope(0, 1), Slope(13, 1))), edges=frozenset())
        with pytest.raises(ValueError, match="vertex 13/1 is outside the host ball"):
            check_subgraph(sub, host)
        with pytest.raises(ValueError, match=r"outside the host ball: \['13/1'\]"):
            Subgraph.induced(sub.vertices, host)

    @pytest.mark.parametrize("center, radius, height", [("0/1", 6, 12), ("2/5", 2, 9)])
    def test_ball_lists_vertices_in_sort_key_order(self, center, radius, height):
        # check_subgraph indexes the ball's vertices in the order given
        vertices = build_ball(Slope.parse(center), radius, height).vertices
        assert list(vertices) == sorted(vertices, key=Slope.sort_key)

    def test_check_subgraph_report(self, host):
        iv = slopes_in_interval(Fraction(-1), Fraction(1), 12)
        sub = Subgraph.induced(iv, host)
        report = check_subgraph(sub, host)
        assert report["convex"] is True
        assert report["totally_geodesic"] is False
        assert report["geodesic_witness"] == ["-1/1", "1/0", "1/1"]
        assert report["passed"] is False

    def test_subgraph_json_round_trip(self, host):
        tri = Subgraph.induced([Slope(0, 1), Slope(1, 1), INFINITY], host)
        again = Subgraph.from_json_dict(tri.to_json_dict())
        assert again == tri

    def test_subgraph_rejects_dangling_edge(self):
        with pytest.raises(ValueError):
            Subgraph(
                vertices=frozenset({Slope(0, 1)}),
                edges=frozenset({frozenset((Slope(0, 1), Slope(1, 1)))}),
            )


def test_graph_adjacency_is_symmetric():
    graph = FareyGraph(6)
    for i, nbrs in enumerate(graph.adj):
        for j in nbrs:
            assert i in graph.adj[j]


def _plain_bfs(source, height, radius):
    """Levels by a dict-keyed search over slopes.neighbors, capped at radius."""
    pool = slopes_up_to(height)
    adj = {v: neighbors(v, height) for v in pool}
    dist = {source: 0}
    frontier = deque([source])
    while frontier:
        v = frontier.popleft()
        if radius is not None and dist[v] >= radius:
            continue
        for w in adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                frontier.append(w)
    return dist


@settings(max_examples=60, deadline=None)
@given(
    height=st.integers(1, 20),
    pick=st.integers(0, 10**6),
    radius=st.one_of(st.none(), st.integers(0, 6)),
)
def test_bfs_view_matches_plain_search(height, pick, radius):
    graph = graph_at(height)
    source = graph.vertices[pick % len(graph.vertices)]
    view = graph.bfs(source, radius)
    want = _plain_bfs(source, height, radius)
    assert view == want and want == view
    assert len(view) == len(want)
    assert list(view) == list(want)  # discovery order
    assert list(view.items()) == list(want.items())
    for v in graph.vertices:
        assert (v in view) == (v in want)
        assert view.get(v) == want.get(v)
        if v in want:
            assert view[v] == want[v]
        else:
            assert radius is not None and distance(source, v) > radius
            with pytest.raises(KeyError):
                view[v]
    assert Slope(1, height + 1) not in view
    assert view.get(Slope(1, height + 1), -1) == -1


@settings(max_examples=60, deadline=None)
@given(
    height=st.integers(1, 20),
    picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=12),
    ends=st.lists(st.integers(0, 10**6), max_size=30),
)
def test_bfs_many_rows_match_single_searches(height, picks, ends):
    graph = graph_at(height)
    verts = graph.vertices
    sources = [verts[k % len(verts)] for k in picks]
    sources += [INFINITY, sources[0]]  # 1/0 and a repeated source
    targets = [verts[k % len(verts)] for k in ends] + [INFINITY]
    rows = graph.bfs_many(sources, targets)
    assert len(rows) == len(sources)
    for source, row in zip(sources, rows):
        level = graph.bfs(source)
        assert list(row) == [level[t] for t in targets]


def test_bfs_many_every_pair_at_height_sixteen():
    # more than 256 sources, so each source's bit lies past the first byte
    graph = graph_at(16)
    verts = graph.vertices
    assert len(verts) > 256
    rows = graph.bfs_many(verts, verts)
    for source, row in zip(verts, rows):
        level = graph.bfs(source)
        assert list(row) == [level[t] for t in verts]


def test_bfs_many_edge_shapes():
    graph = graph_at(4)
    assert graph.bfs_many([], [INFINITY]) == []
    assert graph.bfs_many([INFINITY, Slope(0, 1)], []) == [(), ()]
    with pytest.raises(ValueError):
        graph.bfs_many([Slope(1, 5)], [INFINITY])
    with pytest.raises(ValueError):
        graph.bfs_many([INFINITY], [Slope(1, 5)])
