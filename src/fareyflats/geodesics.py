"""Truncated Farey graphs, balls, geodesic enumeration, and subgraph checks.

Every search here runs on integer vertex indices: one level-synchronous
breadth-first search, :func:`_bfs_levels`, over a neighbour table
``adj[v]`` of ints (:attr:`FareyGraph.adj`, or the tables a subgraph
check builds from a ball's edges), which returns a level list
and the discovery order, and :func:`_walk_back`, which turns the levels
into every shortest path to a target.  Slopes are built only for output:
the vertices of the returned paths and witnesses.  :meth:`FareyGraph.bfs`
hands its levels out through :class:`Levels`, a read-only slope-keyed
view and the only one here, so no slope-keyed dict is built per search.

The closed form :func:`fareyflats.slopes.distance` is the ground truth for
lengths; :func:`bfs_distance` exists as an independent oracle computed from
nothing but the adjacency relation inside a height truncation, so the two
can be checked against each other.  :meth:`FareyGraph.bfs_many` is the same
oracle for many sources at once: one bit-parallel search that reads out
only the requested targets.  Balls and subgraph checks also work
inside an explicit truncation.  Each call builds the truncation it needs;
nothing is cached between calls.

Geodesic enumeration needs no truncation and no search.  Every geodesic
between two slopes lies in the fans of Farey triangles crossed by the
hyperbolic segment joining them, one fan per partial quotient of one
endpoint in the frame where the other is 1/0, and no fan vertex is higher
than the higher endpoint.  One walk over the partial quotients,
:func:`_fans`, says which of the two convergents before each convergent
its geodesics come through; :func:`geodesics` steps back along that
from one end to the other, and :func:`geodesic_count` sums it as counts.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from typing import Iterable

from .slopes import Slope, _frame, _neighbor_pairs, slopes_up_to


def _bfs_levels(
    adj, source: int, radius: int | None = None
) -> tuple[list[int], list[int]]:
    """Breadth-first levels from source over the neighbour table adj[v].

    Returns level, a list with level[v] = -1 for every vertex not reached,
    and the reached vertices in discovery order.  Level-synchronous: each
    round scans the whole frontier in discovery order and appends the next
    one, so the levels and the order are those of a first-in first-out
    search.  Vertices at level radius are reached but not expanded.
    """
    level = [-1] * len(adj)
    level[source] = 0
    order = [source]
    frontier = [source]
    d = 0
    while frontier and (radius is None or d < radius):
        d += 1
        start = len(order)
        for v in frontier:
            for w in adj[v]:
                if level[w] < 0:
                    level[w] = d
                    order.append(w)
        frontier = order[start:]
    return level, order


def _walk_back(adj, level: list[int], target: int) -> list[tuple[int, ...]]:
    """Every shortest path from the search's source to target, unsorted.

    level holds the breadth-first levels from the source, the one vertex
    at level 0, so each path climbs down the levels from target to it.
    The target must have been reached; the one caller, _leaving_path,
    searches a ball, which is connected.
    """
    paths = []
    stack = [(target, (target,))]
    while stack:
        v, tail = stack.pop()
        d = level[v] - 1
        if d < 0:
            paths.append(tail[::-1])
            continue
        for w in adj[v]:
            if level[w] == d:
                stack.append((w, tail + (w,)))
    return paths


class Levels(Mapping):
    """Read-only slope-keyed view of the levels of one :func:`_bfs_levels`.

    view[s] is the level of s's vertex index, and a vertex not reached is
    not a key; iteration follows the discovery order.  No slope-keyed dict
    is built, so a caller pays only for what it reads.
    """

    __slots__ = ("_level", "_order", "_by_pair", "_vertices")

    def __init__(self, searched: tuple[list[int], list[int]], graph: "FareyGraph"):
        self._level, self._order = searched
        self._by_pair = graph._by_pair
        self._vertices = graph.vertices

    def __getitem__(self, s: Slope) -> int:
        try:
            d = self._level[self._by_pair[s.p, s.q]]
        except (AttributeError, KeyError):
            raise KeyError(s) from None
        if d < 0:
            raise KeyError(s)
        return d

    def __contains__(self, s) -> bool:
        try:
            return self._level[self._by_pair[s.p, s.q]] >= 0
        except (AttributeError, KeyError):
            return False

    def __iter__(self):
        vertices = self._vertices
        return (vertices[i] for i in self._order)

    def __len__(self) -> int:
        return len(self._order)


class FareyGraph:
    """The induced graph on all slopes of height <= height_bound.

    adj[i] lists the indices of vertex i's neighbours in increasing order,
    which is the (height, q, p) order of the slopes themselves.  Vertex
    indices are looked up by the integer pair (p, q) in _by_pair, which
    hashes without calling into Slope.
    """

    def __init__(self, height_bound: int):
        self.height_bound = h = height_bound
        self.vertices: tuple[Slope, ...] = slopes_up_to(h)
        self._by_pair = {(v.p, v.q): i for i, v in enumerate(self.vertices)}
        self.adj: list[tuple[int, ...]] = [
            tuple(sorted(self._by_pair[w] for w in _neighbor_pairs(v.p, v.q, h)))
            for v in self.vertices
        ]

    def __contains__(self, s: Slope) -> bool:
        return (s.p, s.q) in self._by_pair

    def _index(self, s: Slope) -> int:
        i = self._by_pair.get((s.p, s.q))
        if i is None:
            raise ValueError(f"{s} exceeds height bound {self.height_bound}")
        return i

    def bfs(self, source: Slope, radius: int | None = None) -> Levels:
        """Distances from source within the truncation (optionally capped)."""
        return Levels(_bfs_levels(self.adj, self._index(source), radius), self)

    def bfs_many(
        self, sources: Sequence[Slope], targets: Sequence[Slope]
    ) -> list[tuple[int, ...]]:
        """Distances in the truncation: rows[i][j] from sources[i] to targets[j].

        One level-synchronous search serves every source (Then et al., "The
        More the Merrier", PVLDB 8(4), 2014): source i owns bit i, seen[v]
        holds the bits of the sources that have reached v, and each round
        ORs a frontier vertex's new bits into its neighbours.  A target's
        new bits at level d are spread to one byte per source and added,
        times d, into its column, so the columns are read out in bulk and
        nothing is read for a vertex that is not a target.  Every height
        truncation is connected (each slope but 0/1 and 1/0 has a lower
        neighbour), so every entry is a distance.  Each entry fits in its
        byte: geodesics never climb above their ends, so a distance in the
        truncation is one in the whole graph, at most the two ends'
        distances to 1/0, and each of those grows like log_phi of the
        height (phi the golden ratio, one step per partial quotient).  So
        the levels stay far below 256 at any height that can be built.
        """
        adj, index = self.adj, self._index
        seen = [0] * len(adj)
        for bit, s in enumerate(sources):
            seen[index(s)] |= 1 << bit
        ends = [index(t) for t in targets]
        column = dict.fromkeys(ends, 0)
        frontier = [(v, bits) for v, bits in enumerate(seen) if bits]
        d = 0
        while frontier:
            d += 1
            reach: dict[int, int] = {}
            get = reach.get
            for v, bits in frontier:
                for w in adj[v]:
                    reach[w] = get(w, 0) | bits
            frontier = []
            for w, bits in reach.items():
                new = bits & ~seen[w]
                if new:
                    seen[w] |= new
                    frontier.append((w, new))
                    if w in column:
                        column[w] += d * _byte_per_bit(new)
        n = len(sources)
        columns = [column[t].to_bytes(n, "little") for t in ends]
        return list(zip(*columns)) if columns else [() for _ in sources]


_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _byte_per_bit(bits: int) -> int:
    """The int whose byte i, counted from the low end, is bit i of bits."""
    return int.from_bytes(format(bits, "b").encode().translate(_BIT_BYTES), "big")


def bfs_distance(a: Slope, b: Slope, height_bound: int) -> int | None:
    """Distance in the height truncation by plain breadth-first search.

    Returns None when b is not reachable from a within the truncation.
    This deliberately shares no logic with slopes.distance.
    """
    graph = FareyGraph(height_bound)
    if a not in graph or b not in graph:
        raise ValueError("both endpoints must respect the height bound")
    return graph.bfs(a).get(b)


@dataclass(frozen=True)
class GeodesicSet:
    """All length-minimal paths between two slopes in the infinite graph.

    height_bound is the larger of the requested bound and the endpoints'
    heights; no path vertex exceeds it.  truncated is always False, since
    the paths are all the geodesics; the field and its JSON key are kept
    so the output format does not change.
    """

    a: Slope
    b: Slope
    length: int
    height_bound: int
    paths: tuple[tuple[Slope, ...], ...]
    truncated: bool

    def to_json_dict(self) -> dict:
        return {
            "a": str(self.a),
            "b": str(self.b),
            "length": self.length,
            "height_bound": self.height_bound,
            "count": len(self.paths),
            "truncated": self.truncated,
            "paths": [[str(s) for s in path] for path in self.paths],
        }


def _fans(a: Slope, b: Slope):
    """The fans of Farey triangles that the segment from a to b crosses.

    In the frame where a is 1/0, b is p/q = [a0; a1, ..., an] with
    convergents C_k = p_k/q_k and C_-1 = 1/0, and the segment crosses the
    edge 1/0 -- a0/1 = C_0 and then one fan per later partial quotient:
    fan k pivots on C_{k-1}, and its spokes C_{k-2} + j*C_{k-1},
    j = 0..a_k, run from C_{k-2} to C_k, each joined to the pivot and to
    the next spoke.  Every path from a to C_k passes C_{k-1} or C_{k-2},
    and one that avoids the pivot walks the whole fan, so the distances
    D_k from a obey D_-1 = 0, D_0 = 1 and D_k = min(D_{k-1} + 1,
    D_{k-2} + a_k), as in :func:`fareyflats.slopes.distance`.

    Yields (pivot, spoke, C_k) for k = 0..n, the vectors in a's
    coordinates through the inverse frame map, and nothing when a == b.
    pivot says whether D_{k-1} + 1 = D_k.  spoke is None unless
    D_{k-2} + a_k = D_k, which needs a_k <= 2 since D_k <= D_{k-2} + 2;
    then it is spoke 1, C_{k-2} + C_{k-1}: the fan's one inner spoke when
    a_k = 2, and the yielded C_k object itself when a_k = 1.
    """
    x, y, p, q = _frame(a, b)
    if q == 0:  # det(a, b) = 0: reduced slopes, so a == b
        return
    a0, rem = divmod(p, q)
    prev, cur = (a.p, a.q), (a0 * a.p - y, a0 * a.q + x)
    yield True, None, cur
    before, d = 0, 1
    while rem:
        ak, q, rem = q // rem, rem, q % rem
        (pp, pq), (cp, cq) = prev, cur
        prev, cur = cur, (pp + ak * cp, pq + ak * cq)
        via = before + ak
        before, d = d, (via if via <= d else d + 1)
        spoke = None if via > d else cur if ak == 1 else (pp + cp, pq + cq)
        yield before < d, spoke, cur


def geodesics(a: Slope, b: Slope, height_bound: int) -> GeodesicSet:
    """Every geodesic from a to b, walked back from b over the fans.

    A geodesic to C_k is a geodesic to C_{k-1} and then C_k, or one to
    C_{k-2} and then fan k's spokes, as :func:`_fans` says, so each
    geodesic is found by stepping back from b = C_n to a = C_-1.  A slope
    is built for each convergent and for each inner spoke a path uses.
    """
    fans = list(_fans(a, b))
    conv = [Slope(*end) for _, _, end in fans[:-1]] + [b, a]  # conv[-1] is a
    paths, stack = [], [(len(fans) - 1, (b,))]
    while stack:
        k, tail = stack.pop()
        if k < 0:
            paths.append(tail)
            continue
        pivot, spoke, end = fans[k]
        if pivot:
            stack.append((k - 1, (conv[k - 1],) + tail))
        if spoke is not None:
            inner = () if spoke is end else (Slope(*spoke),)
            stack.append((k - 2, (conv[k - 2],) + inner + tail))
    if len(paths) > 1:  # the paths share both ends, so interiors decide
        paths.sort(key=lambda path: [s.sort_key() for s in path[1:-1]])
    height = max(height_bound, abs(a.p), a.q, abs(b.p), b.q)
    return GeodesicSet(a, b, len(paths[0]) - 1, height, tuple(paths), False)


def geodesic_count(a: Slope, b: Slope) -> int:
    """The number of geodesics from a to b, counted without listing them.

    ways_k is ways_{k-1} when D_{k-1} + 1 = D_k, plus ways_{k-2} when
    D_{k-2} + a_k = D_k (see :func:`_fans`): one pass over the partial
    quotients, however many geodesics there are.
    """
    older, ways = 0, 1
    for pivot, spoke, _ in _fans(a, b):
        older, ways = ways, (ways if pivot else 0) + (0 if spoke is None else older)
    return ways


@dataclass(frozen=True)
class FareyBall:
    """A breadth-first ball with its induced edges, vertices in sort_key order."""

    center: Slope
    radius: int
    height_bound: int
    vertices: tuple[Slope, ...]
    edges: frozenset[frozenset[Slope]]
    dist_from_center: dict = field(hash=False, compare=False, default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "center": str(self.center),
            "radius": self.radius,
            "height_bound": self.height_bound,
            "vertex_count": len(self.vertices),
            "edge_count": len(self.edges),
            "vertices": [str(v) for v in self.vertices],
            "edges": sorted(
                sorted(str(v) for v in e) for e in self.edges
            ),
        }

    def to_dot(self) -> str:
        lines = ["graph fareyball {"]
        lines.append('  node [shape=circle fontsize=10];')
        for v in self.vertices:
            d = self.dist_from_center.get(v)
            label = f"{v}" if d is None else f"{v}\\nd={d}"
            lines.append(f'  "{v}" [label="{label}"];')
        for e in sorted(sorted(str(v) for v in e) for e in self.edges):
            lines.append(f'  "{e[0]}" -- "{e[1]}";')
        lines.append("}")
        return "\n".join(lines)


def build_ball(center: Slope, radius: int, height_bound: int) -> FareyBall:
    """The ball of the given radius about center in the height truncation.

    The search and the edge tests run on vertex indices, whose order is
    the slopes' sort_key order; slopes are hashed only into the returned
    edges and distances.
    """
    if radius < 0:
        raise ValueError(f"radius {radius} is negative")
    graph = FareyGraph(height_bound)
    level, order = _bfs_levels(graph.adj, graph._index(center), radius)
    vertices, adj = graph.vertices, graph.adj
    inside = sorted(order)
    edges = {
        frozenset((vertices[i], vertices[j]))
        for i in inside
        for j in adj[i]
        if i < j and level[j] >= 0
    }
    return FareyBall(
        center=center,
        radius=radius,
        height_bound=height_bound,
        vertices=tuple(vertices[i] for i in inside),
        edges=frozenset(edges),
        dist_from_center={vertices[i]: level[i] for i in order},
    )


@dataclass(frozen=True)
class Subgraph:
    """An explicit vertex/edge set to be tested against a host ball."""

    vertices: frozenset[Slope]
    edges: frozenset[frozenset[Slope]]

    def __post_init__(self):
        for e in self.edges:
            if len(e) != 2 or not e <= self.vertices:
                raise ValueError("edges must join two distinct listed vertices")

    @staticmethod
    def induced(vertices: Iterable[Slope], host: FareyBall) -> "Subgraph":
        vset = frozenset(vertices)
        missing = vset - set(host.vertices)
        if missing:
            raise ValueError(f"vertices outside the host ball: {sorted(map(str, missing))}")
        edges = frozenset(e for e in host.edges if e <= vset)
        return Subgraph(vertices=vset, edges=edges)

    @staticmethod
    def from_json_dict(data: dict) -> "Subgraph":
        verts = frozenset(Slope.parse(t) for t in data["vertices"])
        edges = frozenset(
            frozenset((Slope.parse(u), Slope.parse(w))) for u, w in data["edges"]
        )
        return Subgraph(vertices=verts, edges=edges)

    def to_json_dict(self) -> dict:
        return {
            "vertices": sorted(
                (str(v) for v in self.vertices),
                key=lambda t: Slope.parse(t).sort_key(),
            ),
            "edges": sorted(
                sorted(str(v) for v in e) for e in self.edges
            ),
        }


def _ball_tables(sub: Subgraph, ball: FareyBall):
    """Int tables of a subgraph and its host ball.

    The ball's vertices come in sort_key order, so the order of int
    tuples is the order of the slope tuples they stand for.  Returns the
    ball's vertices, the sorted indices of the subgraph's vertices, and
    the neighbour tables of the ball's edges and of the subgraph's edges.
    """
    verts = ball.vertices  # build_ball, the only constructor, sorts them
    index = {(v.p, v.q): i for i, v in enumerate(verts)}
    try:
        vs = sorted(index[v.p, v.q] for v in sub.vertices)
    except KeyError as exc:
        stray = Slope(*exc.args[0])
        raise ValueError(f"subgraph vertex {stray} is outside the host ball") from None

    def table(edges) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in verts]
        for u, w in edges:
            i, j = index[u.p, u.q], index[w.p, w.q]
            adj[i].append(j)
            adj[j].append(i)
        return adj

    return verts, vs, table(ball.edges), table(sub.edges)


def _witnesses(
    verts, vs, outer, inner
) -> tuple[tuple[Slope, Slope] | None, tuple[Slope, ...] | None]:
    """The first convexity witness and the first total-geodesy witness.

    The convexity witness is the first vertex pair whose subgraph and ball
    distances differ; the total-geodesy witness is the first ball-geodesic
    between subgraph vertices that leaves the subgraph.  Both scan the
    pairs (x, y) in the same order, so one ball search from each x serves
    both; a witness not found is None.
    """
    pair = path = None
    convex = geodesic = True
    for k, x in enumerate(vs):
        if not (convex or geodesic):
            break
        level, _ = _bfs_levels(outer, x)
        later = vs[k + 1 :]
        if convex:
            inner_level, _ = _bfs_levels(inner, x)
            y = next((y for y in later if inner_level[y] != level[y]), None)
            if y is not None:
                pair, convex = (verts[x], verts[y]), False
        if geodesic:
            found = _leaving_path(outer, inner, level, later)
            if found is not None:
                path, geodesic = tuple(verts[i] for i in found), False
    return pair, path


def _leaving_path(outer, inner, level, later) -> tuple[int, ...] | None:
    """The first outer geodesic to a vertex of later that leaves inner."""
    for y in later:
        for path in sorted(_walk_back(outer, level, y)):
            # Subgraph edges join subgraph vertices, so the edges decide.
            if not all(w in inner[v] for v, w in zip(path, path[1:])):
                return path
    return None


def check_subgraph(sub: Subgraph, ball: FareyBall) -> dict:
    """Combined convexity / total geodesy report for a subgraph in a ball."""
    convex_witness, tg_witness = _witnesses(*_ball_tables(sub, ball))
    convex, tg = convex_witness is None, tg_witness is None
    return {
        "ball": {
            "center": str(ball.center),
            "radius": ball.radius,
            "height_bound": ball.height_bound,
        },
        "vertex_count": len(sub.vertices),
        "convex": convex,
        "convex_witness": (
            None if convex_witness is None else [str(v) for v in convex_witness]
        ),
        "totally_geodesic": tg,
        "geodesic_witness": (
            None if tg_witness is None else [str(v) for v in tg_witness]
        ),
        "passed": convex and tg,
    }
