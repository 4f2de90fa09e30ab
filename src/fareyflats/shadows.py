"""Local shadows of decomposition vertices near a handle family.

A handle family is a maximal-or-smaller collection of disjoint
complexity-1 pieces together with the complementary multicurve Q.  A
vertex of the decomposition graph is seen by the pieces only through its
traces: either the vertex contains the piece's own curve, or some of its
curves cross the piece in arcs.  This truncated view is exactly what the
coordinate projection consumes, so shadows model vertices as per-piece
trace data, moves as annotated exchanges, and the audits check distance
bounds between projected endpoint sets, one set per piece: the sum
metric splits by piece, so each piece's best pair is found on its own.

Each check runs where its object is built: a Crossing checks that its
trace's distinct components are pairwise disjoint, a VertexShadow that
each trace lies on its slot's piece and the P_Q rule, a PathShadow that
each move is as annotated.  A path vertex carries a Crossing over as the
checked object, so each trace is checked once.

All reports are instance evidence: nothing here certifies that a path is
geodesic in the ambient graph.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from itertools import combinations

from .flats import Coordinate, SurfaceDesc, max_handles, product_distance
from .orbifold import (
    PieceKind,
    PieceObject,
    RealizationContext,
    curve,
    intersection_number,
    random_seam,
    random_slope,
    random_wave,
    seam,
    torus_arc,
)
from .pieces import is_special_couple
from .slopes import Slope, neighbors


@dataclass(frozen=True)
class HandleSystem:
    """A family of n disjoint pieces on a fixed surface."""

    surface: SurfaceDesc
    pieces: tuple[PieceKind, ...]

    def __post_init__(self):
        n = len(self.pieces)
        if n < 2:
            raise ValueError("a handle system needs at least two pieces")
        if n > max_handles(self.surface):
            raise ValueError(
                f"{n} pieces exceed the maximum "
                f"{max_handles(self.surface)} for {self.surface}"
            )

    @property
    def n(self) -> int:
        return len(self.pieces)

    def to_json_dict(self) -> dict:
        return {
            "surface": {
                "genus": self.surface.genus,
                "boundary": self.surface.boundary,
            },
            "pieces": [k.value for k in self.pieces],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "HandleSystem":
        return HandleSystem(
            SurfaceDesc(
                data["surface"]["genus"], data["surface"]["boundary"]
            ),
            tuple(PieceKind(v) for v in data["pieces"]),
        )


@dataclass(frozen=True)
class InGraph:
    """The piece is undisturbed: the vertex contains this curve in it."""

    slope: Slope


@dataclass(frozen=True)
class Crossing:
    """Trace of the vertex on the piece: contained curves and/or arcs.

    Components belong to pairwise disjoint curves, so distinct
    descriptors must have oracle crossing number zero; equal ones are
    parallel strands of one curve.  The check runs here, once per trace:
    the distinct components are counted pairwise on one realization
    context, which also refuses a trace that mixes pieces.  Which piece
    the trace must lie on is the VertexShadow's check.  An empty trace
    records that the curve being followed misses this piece entirely.
    """

    trace: tuple[PieceObject, ...]

    def __post_init__(self):
        distinct = list(dict.fromkeys(self.trace))
        if len(distinct) < 2:
            return
        ctx = RealizationContext(distinct)
        for i, j in combinations(range(len(distinct)), 2):
            if ctx.count(i, j) != 0:
                raise ValueError(
                    f"trace components {distinct[i]} and {distinct[j]} intersect"
                )


PieceData = InGraph | Crossing


@dataclass(frozen=True)
class VertexShadow:
    """Per-piece view of a decomposition vertex.

    in_pq declares membership of P_Q (the vertices containing the full
    multicurve Q).  Membership forces every piece to be InGraph, but the
    converse direction cannot be seen locally: a vertex whose exchanged
    curve lives entirely outside the pieces still fails to contain Q, so
    in_pq=False is legal alongside all-InGraph data.

    Each trace was checked for disjointness when its Crossing was built;
    here each is only checked to lie on its slot's piece.
    """

    system: HandleSystem
    data: tuple[PieceData, ...]
    in_pq: bool

    def __post_init__(self):
        if len(self.data) != self.system.n:
            raise ValueError("one entry per piece required")
        for kind, entry in zip(self.system.pieces, self.data):
            if isinstance(entry, InGraph):
                continue
            for obj in entry.trace:
                if obj.piece is not kind:
                    raise ValueError(
                        f"{obj} does not live on a {kind.value} piece"
                    )
        if self.in_pq and not all(
            isinstance(e, InGraph) for e in self.data
        ):
            raise ValueError("a P_Q member leaves every piece undisturbed")

    def piece_objects(self, i: int) -> tuple[PieceObject, ...]:
        entry = self.data[i]
        if isinstance(entry, InGraph):
            return (curve(self.system.pieces[i], entry.slope),)
        return entry.trace

    def to_json_dict(self) -> dict:
        entries = []
        for entry in self.data:
            if isinstance(entry, InGraph):
                entries.append({"in_graph": str(entry.slope)})
            else:
                entries.append(
                    {"trace": [o.to_json_dict() for o in entry.trace]}
                )
        return {"in_pq": self.in_pq, "data": entries}

    @staticmethod
    def from_json_dict(system: HandleSystem, data: dict) -> "VertexShadow":
        entries: list[PieceData] = []
        for entry in data["data"]:
            if "in_graph" in entry:
                entries.append(InGraph(Slope.parse(entry["in_graph"])))
            else:
                entries.append(
                    Crossing(
                        tuple(
                            PieceObject.from_json_dict(d)
                            for d in entry["trace"]
                        )
                    )
                )
        return VertexShadow(system, tuple(entries), in_pq=data["in_pq"])


def shadow_in_pq(system: HandleSystem, slopes) -> VertexShadow:
    return VertexShadow(
        system, tuple(InGraph(s) for s in slopes), in_pq=True
    )


def project_shadow(v: VertexShadow) -> tuple[frozenset[Coordinate], ...]:
    """One set of coordinates per piece, never empty: an InGraph piece's
    slope, the projection of each component of a crossed piece's trace,
    or the free marker None for an empty trace."""
    return tuple(
        frozenset((entry.slope,))
        if isinstance(entry, InGraph)
        else frozenset(o.slope for o in entry.trace) or frozenset((None,))
        for entry in v.data
    )


def _min_distance(a: tuple, b: tuple) -> int:
    """Best product distance between projections, one set per piece: the
    sum metric splits by piece, so each piece's best pair is summed.
    Projections of different ranks raise ValueError."""
    return sum(
        min(product_distance((s,), (t,)) for s in x for t in y)
        for x, y in zip(a, b, strict=True)
    )


def orthogonality_check(v0: VertexShadow, v1: VertexShadow) -> bool:
    """Does the neighbor outside P_Q project exactly onto the member?

    v0 must be declared in P_Q, v1 must not be; the check passes when
    project_shadow(v1), one set per piece, is a singleton in every piece
    matching v0's (free markers match anything, encoding the convention
    that untouched pieces keep their curve).
    """
    if not v0.in_pq:
        raise ValueError("v0 must lie in P_Q")
    if v1.in_pq:
        raise ValueError("v1 must lie outside P_Q")
    if v0.system != v1.system:
        raise ValueError("shadows live over different handle systems")
    projected = project_shadow(v1)
    return (
        all(len(p) == 1 for p in projected)
        and _min_distance(projected, project_shadow(v0)) == 0
    )


class MoveKind(Enum):
    FIRST = 1
    SECOND = 2


@dataclass(frozen=True)
class MoveAnnotation:
    """One edge of a path: the exchanged curve's traces, per piece.

    removed lists (piece index, object) pairs taken out of the source
    shadow, added the ones appearing in the target.  The global exchange
    crosses itself once (FIRST) or twice (SECOND); only the crossings
    inside pieces are visible here, so their total may fall short of the
    kind's count but never exceeds it.
    """

    kind: MoveKind
    removed: tuple[tuple[int, PieceObject], ...]
    added: tuple[tuple[int, PieceObject], ...]

    @property
    def active_pieces(self) -> tuple[int, ...]:
        return tuple(
            sorted({i for i, _ in self.removed} | {i for i, _ in self.added})
        )

    def visible_crossings(self) -> int:
        total = 0
        for i, x in self.removed:
            for j, y in self.added:
                if i == j:
                    total += intersection_number(x, y)
        return total

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "removed": [[i, o.to_json_dict()] for i, o in self.removed],
            "added": [[i, o.to_json_dict()] for i, o in self.added],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "MoveAnnotation":
        def pairs(key):
            return tuple(
                (i, PieceObject.from_json_dict(d)) for i, d in data[key]
            )

        return MoveAnnotation(
            kind=MoveKind(data["kind"]),
            removed=pairs("removed"),
            added=pairs("added"),
        )


@dataclass(frozen=True)
class PathShadow:
    vertices: tuple[VertexShadow, ...]
    moves: tuple[MoveAnnotation, ...]

    def __post_init__(self):
        if not self.vertices:
            raise ValueError("empty path")
        if len(self.moves) != len(self.vertices) - 1:
            raise ValueError("one move per edge required")
        system = self.vertices[0].system
        if any(v.system != system for v in self.vertices):
            raise ValueError("all vertices share one handle system")
        for k, move in enumerate(self.moves):
            self._check_move(k, move)

    @property
    def system(self) -> HandleSystem:
        return self.vertices[0].system

    @property
    def length(self) -> int:
        return len(self.moves)

    def _check_move(self, k: int, move: MoveAnnotation):
        src, dst = self.vertices[k], self.vertices[k + 1]
        n = self.system.n
        for i, obj in move.removed + move.added:
            if not 0 <= i < n:
                raise ValueError(f"move {k} touches piece {i} out of range")
            if obj.piece is not self.system.pieces[i]:
                raise ValueError(f"move {k}: {obj} on wrong piece kind")
        active = set(move.active_pieces)
        for i in range(n):
            before = Counter(src.piece_objects(i))
            after = Counter(dst.piece_objects(i))
            if i not in active:
                if before != after:
                    raise ValueError(
                        f"move {k} silently changes piece {i}"
                    )
                continue
            expected = before.copy()
            expected.subtract(
                Counter(o for j, o in move.removed if j == i)
            )
            if any(c < 0 for c in expected.values()):
                raise ValueError(
                    f"move {k} removes an object absent from piece {i}"
                )
            expected.update(Counter(o for j, o in move.added if j == i))
            if +expected != after:
                raise ValueError(
                    f"move {k} does not transform piece {i} as annotated"
                )
        visible = move.visible_crossings()
        if visible > move.kind.value:
            raise ValueError(
                f"move {k} shows {visible} crossings, more than a "
                f"{move.kind.name.lower()}-kind move allows"
            )

    def to_json_dict(self) -> dict:
        return {
            "system": self.system.to_json_dict(),
            "vertices": [v.to_json_dict() for v in self.vertices],
            "moves": [m.to_json_dict() for m in self.moves],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "PathShadow":
        system = HandleSystem.from_json_dict(data["system"])
        return PathShadow(
            tuple(
                VertexShadow.from_json_dict(system, v)
                for v in data["vertices"]
            ),
            tuple(
                MoveAnnotation.from_json_dict(m) for m in data["moves"]
            ),
        )


@dataclass(frozen=True)
class SpecialCouple:
    seam_obj: PieceObject
    curve_obj: PieceObject


def detect_special_couples(
    path: PathShadow,
) -> list[tuple[int, int, SpecialCouple]]:
    """Edges whose exchanged traces form a seam/curve couple crossing twice.

    Only four-holed-sphere pieces can carry one, so first-kind (torus)
    moves are never flagged.
    """
    found = []
    for k, move in enumerate(path.moves):
        for i in move.active_pieces:
            outgoing = [o for j, o in move.removed if j == i]
            incoming = [o for j, o in move.added if j == i]
            for x in outgoing:
                for y in incoming:
                    if is_special_couple(x, y):
                        found.append((k, i, SpecialCouple(x, y)))
                    elif is_special_couple(y, x):
                        found.append((k, i, SpecialCouple(y, x)))
    return found


def audit_projection_bound(path: PathShadow) -> dict:
    """Best product distance between the endpoint projections, vs length.

    Minimizes over all choices in the two projections, piece by piece, the
    reading under which the distance bound "there exist projections within
    r" is checked.  Instance evidence only.
    """
    best = _min_distance(
        project_shadow(path.vertices[0]), project_shadow(path.vertices[-1])
    )
    return {
        "r": path.length,
        "best": best,
        "pass": best <= path.length,
        "evidence": "instance",
    }


# ---------------------------------------------------------------------------
# the two-piece projection gap scenario


def projection_gap_scenario() -> tuple[PathShadow, dict]:
    """A single move whose endpoint projections sit at distance two.

    Two four-holed-sphere pieces on a six-holed sphere.  The moving curve
    crosses the first piece in a seam and the second in another seam; its
    replacement is a curve inside the first piece crossing that seam four
    times, twice on each of two parallel strands -- a special couple.
    The replacement's projection is then two steps from the seam's slope,
    and no other choice exists, so one move displaces the projection by
    two: the coordinate projection is not distance non-increasing.
    """
    system = HandleSystem(
        SurfaceDesc(0, 6),
        (PieceKind.FOUR_HOLED_SPHERE, PieceKind.FOUR_HOLED_SPHERE),
    )
    s1 = seam(PieceKind.FOUR_HOLED_SPHERE, Slope(0, 1))
    s2 = seam(PieceKind.FOUR_HOLED_SPHERE, Slope(0, 1))
    beta = curve(PieceKind.FOUR_HOLED_SPHERE, Slope(2, 1))
    v0 = VertexShadow(
        system, (Crossing((s1,)), Crossing((s2,))), in_pq=False
    )
    v1 = VertexShadow(
        system, (InGraph(Slope(2, 1)), Crossing(())), in_pq=False
    )
    move = MoveAnnotation(
        kind=MoveKind.SECOND,
        removed=((0, s1), (1, s2)),
        added=((0, beta),),
    )
    path = PathShadow((v0, v1), (move,))

    report = audit_projection_bound(path)
    report["special_couple"] = bool(detect_special_couples(path))

    # dropping the far trace does not relieve the gap
    v0_near = VertexShadow(
        system, (Crossing((s1,)), Crossing(())), in_pq=False
    )
    report["without_far_trace"] = _min_distance(
        project_shadow(v0_near), project_shadow(v1)
    )

    # control: a replacement disjoint from the seam stays within one step
    v1_control = VertexShadow(
        system, (InGraph(Slope(0, 1)), Crossing(())), in_pq=False
    )
    report["disjoint_control"] = _min_distance(
        project_shadow(v0), project_shadow(v1_control)
    )
    return path, report


# ---------------------------------------------------------------------------
# seeded fixture generators


def _crossed_trace(
    rng: random.Random, kind: PieceKind, slope: Slope
) -> Crossing:
    """The piece's own curve and one or two arcs of its slope.

    Each arc is disjoint from the curve; the Crossing checks the arcs
    against each other.
    """
    strands = []
    for _ in range(rng.randrange(1, 3)):
        if kind is PieceKind.ONE_HOLED_TORUS:
            strands.append(torus_arc(slope))
        else:
            s = random_seam(rng, slope.height, slope)
            strands.append(
                s if rng.random() < 0.5 else random_wave(rng, slope.height, s)
            )
    return Crossing((curve(kind, slope), *strands))


def random_orthogonal_pair(
    system: HandleSystem, rng: random.Random, height: int = 6
) -> tuple[VertexShadow, VertexShadow]:
    """A P_Q member and a neighbor produced by exchanging a Q-curve.

    The exchanged curve's traces stay disjoint from each piece's own
    curve, which pins every trace projection to that curve's slope; the
    neighbor then projects onto the member exactly.  Some pairs leave all
    pieces untouched (the exchange happened entirely outside them).
    """
    slopes = [random_slope(rng, height) for _ in range(system.n)]
    v0 = shadow_in_pq(system, slopes)
    hit = [i for i in range(system.n) if rng.random() < 0.6]
    data: list[PieceData] = []
    for i in range(system.n):
        if i not in hit:
            data.append(InGraph(slopes[i]))
            continue
        data.append(_crossed_trace(rng, system.pieces[i], slopes[i]))
    v1 = VertexShadow(system, tuple(data), in_pq=False)
    return v0, v1


def random_path_shadow(
    system: HandleSystem,
    rng: random.Random,
    length: int,
    height: int = 5,
) -> PathShadow:
    """A path whose every move displaces the projection by at most one.

    Three move flavors: stepping a piece's curve to a Farey neighbor,
    sending a curve across a piece (trace disjoint from the piece curve),
    and pulling such a trace back in.  Each keeps all projection choices
    within one step in one coordinate, so the endpoint bound holds by
    construction; the audit re-checks it from the projections alone.
    """
    slopes = [random_slope(rng, height) for _ in range(system.n)]
    vertices = [shadow_in_pq(system, slopes)]
    moves = []
    crossed: dict[int, tuple[PieceObject, ...]] = {}
    cur = list(slopes)
    for _ in range(length):
        v_prev = vertices[-1]
        i = rng.randrange(system.n)
        kind = system.pieces[i]
        if i in crossed:
            # pull the stray curve back out of the piece
            strands = crossed.pop(i)
            move = MoveAnnotation(
                kind=MoveKind.SECOND,
                removed=tuple((i, o) for o in strands),
                added=(),
            )
            new_data = list(v_prev.data)
            new_data[i] = InGraph(cur[i])
        else:
            choice = rng.random()
            if choice < 0.5:
                nxt_options = neighbors(cur[i], height + 2)
                nxt = nxt_options[rng.randrange(len(nxt_options))]
                move_kind = (
                    MoveKind.FIRST
                    if kind is PieceKind.ONE_HOLED_TORUS
                    else MoveKind.SECOND
                )
                move = MoveAnnotation(
                    kind=move_kind,
                    removed=((i, curve(kind, cur[i])),),
                    added=((i, curve(kind, nxt)),),
                )
                new_data = list(v_prev.data)
                new_data[i] = InGraph(nxt)
                cur[i] = nxt
            else:
                crossing = _crossed_trace(rng, kind, cur[i])
                strands = crossing.trace[1:]
                move = MoveAnnotation(
                    kind=MoveKind.SECOND,
                    removed=(),
                    added=tuple((i, o) for o in strands),
                )
                new_data = list(v_prev.data)
                new_data[i] = crossing
                crossed[i] = strands
        in_pq = all(isinstance(e, InGraph) for e in new_data)
        vertices.append(
            VertexShadow(system, tuple(new_data), in_pq=in_pq)
        )
        moves.append(move)
    return PathShadow(tuple(vertices), tuple(moves))
