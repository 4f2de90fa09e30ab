"""Surface arithmetic, product metrics, and certified lattice flats.

A surface of genus g with r boundary circles and 3g - 3 + r >= 1 carries
families of disjoint complexity-1 pieces; the largest such family has
floor((3g + r - 2)/2) members.  Fixing one family, the decompositions
containing its complementary multicurve form a product of Farey graphs,
one factor per piece, metrized by the sum of factor distances.  This
module certifies isometric embeddings of Z^n into that product over
finite windows.  The default lines are grown from fixed seed edges by a
deterministic search, and :func:`certify_flat` checks each one on its
window (:meth:`GeodesicLine.check_window`) before it is used.

Both exhaustive checks run on tables built once: :func:`certify_flat`
sums per-factor excess rows d(i, j) - |i - j| over a window's points, and
:func:`subproduct_total_geodesy` sums entries of one factor distance table
over the slope pool.  Each still visits every pair or triple in order and
reports the same counts and witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import add
from typing import Sequence

from .orbifold import PieceKind
from .slopes import Slope, adjacent, distance, neighbors, slopes_up_to

Coordinate = Slope | None  # None is the base marker: "nothing projected here"


@dataclass(frozen=True)
class SurfaceDesc:
    """Genus and boundary count, constrained to complexity >= 1."""

    genus: int
    boundary: int

    def __post_init__(self):
        if self.genus < 0 or self.boundary < 0:
            raise ValueError("genus and boundary counts are nonnegative")
        if self.complexity < 1:
            raise ValueError(
                f"surface ({self.genus},{self.boundary}) has no decomposition"
            )

    @property
    def complexity(self) -> int:
        return 3 * self.genus - 3 + self.boundary

    @property
    def pants_count(self) -> int:
        return 2 * self.genus - 2 + self.boundary


def max_handles(surface: SurfaceDesc) -> int:
    """Largest number of disjoint complexity-1 pieces the surface carries."""
    return (3 * surface.genus + surface.boundary - 2) // 2


@dataclass(frozen=True)
class Template:
    """Piece counts for the standard maximal family."""

    tori: int
    spheres: int
    has_pants: bool

    @property
    def piece_count(self) -> int:
        return self.tori + self.spheres

    def piece_kinds(self) -> tuple[PieceKind, ...]:
        return (PieceKind.ONE_HOLED_TORUS,) * self.tori + (
            PieceKind.FOUR_HOLED_SPHERE,
        ) * self.spheres


def decompose_template(surface: SurfaceDesc) -> Template:
    g, r = surface.genus, surface.boundary
    tori = g
    spheres = (g + r) // 2 - 1
    has_pants = (g + r) % 2 == 1
    t = Template(tori=tori, spheres=spheres, has_pants=has_pants)
    expected = (surface.complexity + 1) // 2
    if t.piece_count != expected or t.piece_count != max_handles(surface):
        raise AssertionError(f"template count mismatch for {surface}")
    # area bookkeeping: pieces and the leftover pair of pants tile the surface
    if t.tori + 2 * t.spheres + int(t.has_pants) != surface.pants_count:
        raise AssertionError(f"template does not tile {surface}")
    return t


def product_distance(
    u: Sequence[Coordinate], v: Sequence[Coordinate]
) -> int:
    """Sum of factor distances; the base marker None matches anything."""
    if len(u) != len(v):
        raise ValueError("tuples live in products of different ranks")
    total = 0
    for a, b in zip(u, v):
        if a is None or b is None:
            continue
        total += distance(a, b)
    return total


# ---------------------------------------------------------------------------
# geodesic lines and lattice embeddings


@dataclass(frozen=True)
class GeodesicLine:
    """A finite window of a geodesic, indexed relative to base_index."""

    slopes: tuple[Slope, ...]
    base_index: int

    def __post_init__(self):
        if not 0 <= self.base_index < len(self.slopes):
            raise ValueError("base index outside the stored window")

    @property
    def lo(self) -> int:
        return -self.base_index

    @property
    def hi(self) -> int:
        return len(self.slopes) - 1 - self.base_index

    def point(self, i: int) -> Slope:
        if not self.lo <= i <= self.hi:
            raise ValueError(f"index {i} outside window [{self.lo}, {self.hi}]")
        return self.slopes[i + self.base_index]

    def check_window(self) -> tuple[bool, tuple[int, int] | None]:
        """All stored pairs at exact distance equal to their index gap."""
        n = len(self.slopes)
        for i in range(n):
            for j in range(i + 1, n):
                if distance(self.slopes[i], self.slopes[j]) != j - i:
                    return False, (i - self.base_index, j - self.base_index)
        return True, None

    def to_json_dict(self) -> dict:
        return {
            "slopes": [str(s) for s in self.slopes],
            "base_index": self.base_index,
        }


@dataclass(frozen=True)
class LatticeEmbedding:
    """Coordinatewise indexing of Z^n into a product of Farey graphs."""

    lines: tuple[GeodesicLine, ...]

    @property
    def rank(self) -> int:
        return len(self.lines)

    def map_point(self, x: Sequence[int]) -> tuple[Slope, ...]:
        if len(x) != self.rank:
            raise ValueError("wrong rank")
        return tuple(line.point(i) for line, i in zip(self.lines, x))

    def check_cover(self, window: int) -> None:
        """Raise ValueError unless every line covers [-window, window]."""
        for idx, line in enumerate(self.lines):
            if line.lo > -window or line.hi < window:
                msg = f"line {idx} window [{line.lo},{line.hi}] too small for {window}"
                raise ValueError(msg)


# search_geodesic_line tries no candidate endpoint taller than this
SEARCH_HEIGHT_CAP = 512


def search_geodesic_line(
    half_length: int, seed_pair: tuple[Slope, Slope]
) -> GeodesicLine:
    """Grow a geodesic window around a seed edge by deterministic DFS.

    Extends alternately right and left; each candidate endpoint must keep
    every stored pair at distance equal to its index gap.  Candidates are
    tried in (height, q, p) order, backtracking when a side dead-ends
    below the height cap.
    """
    a, b = seed_pair
    if not adjacent(a, b):
        raise ValueError("seed pair must span an edge")

    # A candidate adjacent to the tip extends the window iff it sits at
    # full distance from the opposite end: the triangle inequality then
    # pins every intermediate distance to its index gap.  Candidate
    # heights are capped at a small multiple of the window's tallest
    # slope; geodesic continuations never need more, and the cap keeps
    # the neighbor scan and the exact distance checks cheap.
    def grow(line: list[Slope], want: int) -> list[Slope] | None:
        if len(line) >= want:
            return line
        extend_right = len(line) % 2 == 0
        tip = line[-1] if extend_right else line[0]
        far = line[0] if extend_right else line[-1]
        local = min(SEARCH_HEIGHT_CAP, max(8, 4 * max(s.height for s in line)))
        for cand in neighbors(tip, local):
            if distance(cand, far) != len(line):
                continue
            nxt = line + [cand] if extend_right else [cand] + line
            found = grow(nxt, want)
            if found is not None:
                return found
        return None

    want = 2 * half_length + 1
    grown = grow([a, b], want)
    if grown is None:
        raise RuntimeError("geodesic search exhausted below the height cap")
    # the seed edge starts at position 0; recover the base offset
    base = grown.index(a)
    return GeodesicLine(slopes=tuple(grown), base_index=base)


DEFAULT_SEEDS = (
    (Slope(0, 1), Slope(1, 0)),
    (Slope(1, 1), Slope(1, 2)),
    (Slope(-1, 1), Slope(0, 1)),
)
DEFAULT_HALF_LENGTH = 6


def default_embedding(n: int) -> LatticeEmbedding:
    """The lines grown afresh (no cache) from DEFAULT_SEEDS, cycled to rank n."""
    if n < 1:
        raise ValueError("rank must be positive")
    lines = [
        search_geodesic_line(DEFAULT_HALF_LENGTH, seed) for seed in DEFAULT_SEEDS
    ]
    return LatticeEmbedding(
        lines=tuple(lines[i % len(lines)] for i in range(n))
    )


# ---------------------------------------------------------------------------
# certification


def certify_flat(embedding: LatticeEmbedding, window: int) -> dict:
    """Exhaustive isometry check of the embedding over [-window, window]^n.

    Verifies each line on the window first, then every pair of lattice
    points; the certificate carries the first witness on failure.
    """
    n = embedding.rank
    if window < 1:
        raise ValueError("window must be positive")
    embedding.check_cover(window)
    factor_reports = []
    rows: list[list[list[int]]] = []
    for idx, line in enumerate(embedding.lines):
        ok, witness = line.check_window()
        factor_reports.append(
            {"line": idx, "geodesic": ok, "witness": witness}
        )
        pts = [line.point(i) for i in range(-window, window + 1)]
        rows.append(
            [[distance(p, q) for q in pts] for p in pts]
        )
    if not all(r["geodesic"] for r in factor_reports):
        return {
            "n": n,
            "window": window,
            "passed": False,
            "pairs_checked": 0,
            "witness": None,
            "factor_reports": factor_reports,
        }

    # excess[k][i][j] = d_k(i, j) - |i - j|: a pair is isometric exactly
    # when its factor excesses sum to zero
    excess = [
        [[d - abs(i - j) for j, d in enumerate(row)] for i, row in enumerate(table)]
        for table in rows
    ]
    points = list(product(range(-window, window + 1), repeat=n))
    pairs = 0
    witness = None
    for ai, x in enumerate(points):
        # the excess from x to every point, in point order: the outer sum
        # of x's excess rows, the last factor varying fastest
        over = [0]
        for k in range(n):
            row = excess[k][x[k] + window]
            over = [a + b for a in over for b in row]
        later = over[ai + 1 :]
        if not any(later):
            pairs += len(later)
            continue
        bi = next(j for j, e in enumerate(later) if e)
        pairs += bi + 1
        y = points[ai + 1 + bi]
        expected = sum(abs(xi - yi) for xi, yi in zip(x, y))
        witness = {
            "x": list(x),
            "y": list(y),
            "expected": expected,
            "actual": expected + later[bi],
        }
        break
    return {
        "n": n,
        "window": window,
        "passed": witness is None,
        "pairs_checked": pairs,
        "witness": witness,
        "factor_reports": factor_reports,
    }


def subproduct_total_geodesy(
    n: int,
    k: int,
    radius: int,
    height: int = 3,
    subgraph: str = "factor",
) -> dict:
    """Check that a subset of a truncated product ball is totally geodesic.

    subgraph "factor" keeps the first k coordinates free and pins the rest
    to the base slope; "diagonal" takes equal coordinates everywhere (the
    control case, which fails with a witness).  A point w lies on some
    geodesic between u and v exactly when the distances add up; total
    geodesy means no such w escapes the subset.

    Points are index tuples into slopes_up_to(height), the ball runs in
    itertools.product order, and every product distance is a sum of
    entries of one factor distance table over that pool.
    """
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    if subgraph not in ("factor", "diagonal"):
        raise ValueError(f"unknown subgraph {subgraph!r}")
    pool = slopes_up_to(height)
    table = [[distance(a, b) for b in pool] for a in pool]
    base = pool.index(Slope(0, 1))

    def dist(u: tuple[int, ...], v: tuple[int, ...]) -> int:
        return sum(table[a][b] for a, b in zip(u, v))

    def inside(t: tuple[int, ...]) -> bool:
        if subgraph == "factor":
            return all(t[i] == base for i in range(k, n))
        return all(t[i] == t[0] for i in range(1, n))

    origin = (base,) * n
    ball = [t for t in product(range(len(pool)), repeat=n) if dist(t, origin) <= radius]
    members = [t for t in ball if inside(t)]
    outside = [w for w in ball if not inside(w)]
    # each member's distances to the outside points, in ball order
    reach = [[dist(u, w) for w in outside] for u in members]
    checked = 0
    witness = None
    for ui, u in enumerate(members):
        for vi in range(ui + 1, len(members)):
            v = members[vi]
            via = list(map(add, reach[ui], reach[vi]))
            duv = dist(u, v)
            if duv not in via:
                checked += len(via)
                continue
            wi = via.index(duv)
            checked += wi + 1
            witness = {
                "u": [str(pool[i]) for i in u],
                "v": [str(pool[i]) for i in v],
                "via": [str(pool[i]) for i in outside[wi]],
            }
            break
        if witness:
            break
    return {
        "subgraph": subgraph,
        "n": n,
        "k": k,
        "radius": radius,
        "height": height,
        "member_count": len(members),
        "triples_checked": checked,
        "totally_geodesic": witness is None,
        "witness": witness,
    }


# ---------------------------------------------------------------------------
# DOT export


def flat_to_dot(embedding: LatticeEmbedding, window: int) -> str:
    """The window's grid graph; product edges are exactly the grid edges."""
    embedding.check_cover(window)
    n = embedding.rank
    lines = ["graph flat {"]
    for x in product(range(-window, window + 1), repeat=n):
        label = ",".join(str(s) for s in embedding.map_point(x))
        lines.append(f'  "{_pt_name(x)}" [label="{label}"];')
    for x in product(range(-window, window + 1), repeat=n):
        for k in range(n):
            if x[k] + 1 <= window:
                y = tuple(
                    xi + 1 if i == k else xi for i, xi in enumerate(x)
                )
                lines.append(f'  "{_pt_name(x)}" -- "{_pt_name(y)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _pt_name(x: tuple[int, ...]) -> str:
    return "p" + "_".join(str(i) for i in x).replace("-", "m")
