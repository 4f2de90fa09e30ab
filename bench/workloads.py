"""Inputs, timed calls and answer checks for the three benchmark workloads.

A round is one closed loop with one client: each call into the package is
made only after the previous one returned.  ``prepare`` builds a round's
inputs, ``answer_queries`` adds the oracle value of every query (the answer
key, built by the benchmark's own search and not part of set-up), and the
runners make the calls and check the answers.  Every package
function is reached through its module attribute (``slopes.distance``,
``sweeps.identity_sweep``), so a tracer that rebinds module attributes sees
every call the benchmark makes.

Every round of a run gets the same inputs, fixed by the workload and the
seed.  Sizes are constants here so that every run of a workload does the
same amount of work; tests pass smaller sizes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import resource
import time
from collections import deque
from fractions import Fraction
from math import gcd

from fareyflats import cli, flats, geodesics, orbifold, shadows, slopes, sweeps
from fareyflats.slopes import INFINITY, Slope

T = orbifold.PieceKind.ONE_HOLED_TORUS
S = orbifold.PieceKind.FOUR_HOLED_SPHERE

WORKLOADS = ("exhaustive", "fixtures", "queries")

# Gate drivers at sizes that keep a round near three seconds on one core.
EXHAUSTIVE = {
    "distance_height": 16,
    "oracle_heights": (32, 64),
    "ball": {"radius": 6, "height": 12},
    "crossing_height": 8,
    "identity_height": 4,
    "linking_height": 12,
    "disjoint_height": 3,
    "flats": ((1, 5), (2, 5), (3, 4)),
    "subproducts": ((2, 1, 3, "factor"), (3, 1, 2, "factor"), (2, 1, 3, "diagonal")),
}

# Seeded suites, each as several short CLI calls with their own seeds.  A
# run repeats the same inputs, so the seed's share of the cost must be steady:
# the cost of ``lemmas ml`` per sample varies widely with the fixtures
# drawn, so it runs at height 2 with many samples, beside larger counts of
# the steadier suites.
FIXTURES = {
    # (command, samples per call, height, calls)
    "cli": (
        ("ml", 10, 2, 12),
        ("prt", 100, 5, 6),
        ("sc", 100, 8, 6),
        ("prs", 100, 8, 6),
    ),
    "orthogonal_pairs": 400,
    "path_lengths": (1, 2, 3, 4, 5, 6, 7, 8),
    "paths_per_length": 6,
}

# The interactive stream.  Deep queries are 2% of the distance queries and
# cold heights 2% of the geodesic queries, so each p99 lands inside the
# deep or cache-miss population with ten samples beyond it.  Each round asks
# every cold height once, which widens the working set past get_graph's
# eight entries.  Fixed counts keep the cost nearly seed-independent.
QUERIES = {
    "sources": 32,
    "small": 980,
    "small_height": 30,
    "deep": 20,
    "deep_sum": (12_000, 14_000),
    "geodesics": 1000,
    "geodesic_height": 6,
    "hot_heights": (10, 20),
    "cold_heights": (11, 12, 13, 14, 15, 16, 17, 18, 19, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31),
    "oracle_height": 60,
}

# Exhaustive and fixtures report the query latencies from this fixed
# (seed-independent) slice of the query stream, run in probe rounds of its
# own between their verdict rounds.  A probe round keeps the stream's 2%
# deep and cold shares, so its p99 is the cheaper of its two deep distance
# queries and of its two cold geodesic queries.  The two cold heights cost
# about the same and more than the hot heights' first builds, and all seven
# graphs fit get_graph's eight entries.
PROBE = dict(QUERIES, sources=8, small=98, deep=2, geodesics=100, cold_heights=(24, 25))
PROBE_SEED = "probe"


class RoundResult:
    """What one round did: units attempted and failed, and query timings.

    Each checked answer closes a unit.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.distance_ns: list[int] = []
        self.geodesics_ns: list[int] = []
        self.geodesic_hits = 0
        self.geodesic_known = 0
        self.tallies: dict[str, dict] = {}  # suite driver -> summed report counts

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def unit(self, what: str, body) -> None:
        """Run one unit; an exception or a False answer fails it."""
        try:
            ok = body()
        except Exception as exc:  # a raising unit is a failed unit
            self.check(False, f"{what}: {type(exc).__name__}: {exc}")
            return
        self.check(bool(ok), what)


def seeded_rng(workload: str, seed: int) -> random.Random:
    """The generator of a workload's inputs; str seeds hash deterministically."""
    return random.Random(f"{workload}:{seed}")


# ---------------------------------------------------------------------------
# oracles built from the adjacency rule alone (no package caches touched)


def own_pool(height: int) -> list[Slope]:
    """Every slope of height <= the bound, 1/0 first, enumerated here."""
    out = [INFINITY]
    for q in range(1, height + 1):
        for p in range(-height, height + 1):
            if gcd(abs(p), q) == 1:
                out.append(Slope(p, q))
    return out


def pool_size(height: int) -> int:
    return len(own_pool(height))


def bfs_table(sources, height: int) -> dict[Slope, dict[Slope, int]]:
    """Truncated-graph distances from each source, by plain search."""
    adj = {v: slopes.neighbors(v, height) for v in own_pool(height)}
    table = {}
    for src in set(sources):
        dist = {src: 0}
        frontier = deque([src])
        while frontier:
            v = frontier.popleft()
            for w in adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    frontier.append(w)
        table[src] = dist
    return table


# ---------------------------------------------------------------------------
# queries


def _unimodular(rng: random.Random) -> tuple[int, int, int, int]:
    m = (1, 0, 0, 1)
    for _ in range(6):
        t = rng.choice([v for v in range(-9, 10) if v])
        a, b, c, d = m
        if rng.random() < 0.5:
            m = (a, a * t + b, c, c * t + d)
        else:
            m = (a + b * t, b, c + d * t, d)
    if rng.random() < 0.5:
        m = (m[1], m[0], m[3], m[2])  # determinant -1
    return m


def _deep_slope(rng: random.Random, sizes, family: int, shift: int) -> tuple[Slope, int]:
    """A slope [shift; n] (distance 2 from 1/0) or [shift; n, k] (distance 3).

    Distinct integer shifts keep the deep slopes' parent chains disjoint, so
    each deep query costs what its own partial quotients cost.
    """
    total = rng.randint(*sizes["deep_sum"])
    if family == 0:
        return Slope(shift * total + 1, total), 2
    k = rng.randint(2, total - 2)
    q = (total - k) * k + 1
    return Slope(shift * q + k, q), 3


def prepare_queries(rng: random.Random, sizes) -> dict:
    """The shuffled queries, without their answers (see ``answer_queries``)."""
    pool = own_pool(sizes["small_height"])
    small_pool = own_pool(sizes["geodesic_height"])
    sources = [rng.choice(pool) for _ in range(sizes["sources"])]
    items = []
    for _ in range(sizes["small"]):
        a, b = rng.choice(sources), rng.choice(pool)
        items.append(("small", a, b) if rng.random() < 0.5 else ("small", b, a))
    for i in range(sizes["deep"]):
        # moved off 1/0 by a seeded unimodular map, which keeps the distance
        x, want = _deep_slope(rng, sizes, i % 2, shift=(i + 1) * 10**6)
        m = _unimodular(rng)
        pair = (slopes.apply_unimodular(m, x), slopes.apply_unimodular(m, INFINITY))
        items.append(("deep", *pair, want))
    cold = list(sizes["cold_heights"])
    heights = cold + [
        rng.choice(sizes["hot_heights"]) for _ in range(sizes["geodesics"] - len(cold))
    ]
    for height in heights:
        a, b = rng.sample(small_pool, 2)
        items.append(("geodesics", a, b, height))
    rng.shuffle(items)
    return {"items": items, "sources": sources, "sizes": sizes}


def answer_queries(inputs: dict) -> None:
    """Adds ``stream``: every query of ``items`` with its oracle value."""
    items, sources, sizes = inputs["items"], inputs["sources"], inputs["sizes"]
    table = bfs_table(sources, sizes["oracle_height"])
    # slopes of height <= h are joined by geodesics within height 2h
    near = bfs_table(
        [it[1] for it in items if it[0] == "geodesics"], 2 * sizes["geodesic_height"]
    )
    stream = []
    for it in items:
        if it[0] == "small":
            a, b = it[1], it[2]
            src, other = (a, b) if a in sources else (b, a)
            stream.append(("distance", a, b, table[src][other]))
        elif it[0] == "deep":
            stream.append(("distance", it[1], it[2], it[3]))
        else:
            stream.append(("geodesics", it[1], it[2], it[3], near[it[1]][it[2]]))
    inputs["stream"] = stream


def _graph_info():
    """get_graph's cache statistics, or None once the cache is gone."""
    info = getattr(getattr(geodesics, "get_graph", None), "cache_info", None)
    return None if info is None else info()


def _graph_misses():
    info = _graph_info()
    return None if info is None else info.misses


def _geodesics_ok(gs, a, b, want) -> bool:
    if gs.length != want or not gs.paths:
        return False
    if len(set(gs.paths)) != len(gs.paths):
        return False
    for path in gs.paths:
        if path[0] != a or path[-1] != b or len(path) != want + 1:
            return False
        if not all(slopes.adjacent(u, v) for u, v in zip(path, path[1:])):
            return False
    return True


def run_queries(inputs: dict, out: RoundResult) -> None:
    """Each query timed on its own; its check runs after the clock stops."""
    clock = time.perf_counter_ns
    symmetric: dict[frozenset, int] = {}
    for item in inputs["stream"]:
        if item[0] == "distance":
            _, a, b, want = item
            try:
                t0 = clock()
                got = slopes.distance(a, b)
                out.distance_ns.append(clock() - t0)
            except Exception as exc:
                out.check(False, f"distance({a}, {b}): {type(exc).__name__}: {exc}")
                continue
            key = frozenset((a, b))
            seen = symmetric.setdefault(key, got)
            out.check(
                got == want and seen == got, f"distance({a}, {b}) = {got}, want {want}"
            )
        else:
            _, a, b, height, want = item
            before = _graph_misses()
            try:
                t0 = clock()
                gs = geodesics.geodesics(a, b, height)
                out.geodesics_ns.append(clock() - t0)
            except Exception as exc:
                out.check(False, f"geodesics({a}, {b}, {height}): {type(exc).__name__}: {exc}")
                continue
            after = _graph_misses()
            if before is not None:
                out.geodesic_known += 1
                out.geodesic_hits += after == before
            out.check(_geodesics_ok(gs, a, b, want), f"geodesics({a}, {b}, {height})")


# ---------------------------------------------------------------------------
# exhaustive


def _distance_row(a: Slope, pool, low, high) -> bool:
    if a.p >= 0:
        near, far = low.bfs(a), high.bfs(a)
        return all(near[b] == far[b] == slopes.distance(a, b) for b in pool)
    # negating both numerators is an automorphism: the p < 0 sources are
    # covered by checking that symmetry of the closed form
    na = Slope(-a.p, a.q)
    return all(slopes.distance(a, b) == slopes.distance(na, Slope(-b.p, b.q)) for b in pool)


def _interval_ball(sizes) -> bool:
    ball = sizes["ball"]
    host = geodesics.build_ball(Slope(0, 1), ball["radius"], ball["height"])
    inside = slopes.slopes_in_interval(Fraction(-1), Fraction(1), ball["height"])
    report = geodesics.check_subgraph(geodesics.Subgraph.induced(inside, host), host)
    return (
        report["convex"] is True
        and report["totally_geodesic"] is False
        and report["geodesic_witness"] == ["-1/1", "1/0", "1/1"]
    )


def _crossing_row(a: Slope, later) -> bool:
    for b in later:
        d = abs(slopes.det(a, b))
        if orbifold.intersection_number(orbifold.curve(T, a), orbifold.curve(T, b)) != d:
            return False
        if orbifold.intersection_number(orbifold.curve(S, a), orbifold.curve(S, b)) != 2 * d:
            return False
    return True


def _identity(sizes) -> bool:
    h = sizes["identity_height"]
    n = pool_size(h)
    report = sweeps.identity_sweep(h)
    # torus: one arc per slope; sphere: two seams per slope
    want = {
        T.value: {"seam_vs_seam": math.comb(n, 2), "seam_vs_curve": n * n},
        S.value: {"seam_vs_seam": math.comb(2 * n, 2), "seam_vs_curve": 2 * n * n},
    }
    return report["pass"] and not report["violations"] and report["tallies"] == want


def _linking(sizes) -> bool:
    h = sizes["linking_height"]
    report = sweeps.linking_sweep(h)
    return report["pass"] and report["checked"] == math.comb(pool_size(h), 2)


def _disjoint(sizes) -> bool:
    # which pairs are disjoint is the sweep's own finding, so no count
    # derived from the pool size bounds it: the gate is pass and checked > 0
    report = sweeps.disjoint_projection_sweep(sizes["disjoint_height"])
    return report["pass"] and report["checked"] > 0


def _certify(n: int, window: int) -> bool:
    report = flats.certify_flat(flats.default_embedding(n), window)
    return report["passed"] and report["pairs_checked"] == math.comb((2 * window + 1) ** n, 2)


def _subproduct(n: int, k: int, radius: int, subgraph: str) -> bool:
    report = flats.subproduct_total_geodesy(n, k, radius=radius, subgraph=subgraph)
    return report["totally_geodesic"] is (subgraph == "factor")


def run_exhaustive(inputs: dict, out: RoundResult) -> None:
    """The gate drivers; criteria 1 and 3 check one source slope per unit."""
    sizes = inputs["sizes"]
    h = sizes["distance_height"]
    oracle: dict = {}

    def graphs() -> bool:
        oracle["pool"] = slopes.slopes_up_to(h)
        oracle["graphs"] = [geodesics.FareyGraph(k) for k in sizes["oracle_heights"]]
        return len(oracle["pool"]) == pool_size(h)

    out.unit("criterion 1: slope pool and oracle graphs", graphs)
    pool = oracle.get("pool", ())
    for a in sorted(pool, key=lambda s: s.p < 0):
        out.unit(f"criterion 1: row {a}", lambda: _distance_row(a, pool, *oracle["graphs"]))
    out.unit("criterion 2: interval convex, not totally geodesic", lambda: _interval_ball(sizes))
    h = sizes["crossing_height"]
    pool = slopes.slopes_up_to(h)
    out.check(len(pool) == pool_size(h), "criterion 3: slope pool")
    for i, a in enumerate(pool):
        out.unit(f"criterion 3: row {a}", lambda: _crossing_row(a, pool[i + 1 :]))
    out.unit("identity_sweep", lambda: _identity(sizes))
    out.unit("linking_sweep", lambda: _linking(sizes))
    out.unit("disjoint_projection_sweep", lambda: _disjoint(sizes))
    for n, window in sizes["flats"]:
        out.unit(f"certify_flat n={n} window={window}", lambda: _certify(n, window))
    for n, k, radius, subgraph in sizes["subproducts"]:
        out.unit(
            f"subproduct_total_geodesy {subgraph} n={n} radius={radius}",
            lambda: _subproduct(n, k, radius, subgraph),
        )


# ---------------------------------------------------------------------------
# fixtures


SUITE_DRIVERS = {
    "ml": "sphere_move_suite",
    "prt": "torus_move_suite",
    "sc": "couple_trace_suite",
    "prs": "disjoint_projection_suite",
}


def prepare_fixtures(rng: random.Random, sizes) -> dict:
    argvs = [
        [
            "lemmas", name,
            "--samples", str(samples),
            "--seed", str(rng.randrange(2**31)),
            "--height", str(height),
            "--no-timestamp",
        ]
        for name, samples, height, calls in sizes["cli"]
        for _ in range(calls)
    ]
    return {"argvs": argvs, "shadow_seed": rng.randrange(2**31)}


def _cli_suite(argv: list[str], out: RoundResult) -> bool:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    report = json.loads(buf.getvalue())
    tally = out.tallies.setdefault(SUITE_DRIVERS[argv[1]], {})
    for key in ("checked", "resampled", "rejected", "degenerate_skipped"):
        tally[key] = tally.get(key, 0) + report.get(key, 0)
    return (
        code == 0
        and report["pass"] is True
        and not report["violations"]
        and report["checked"] == int(argv[3])
        and report.get("degenerate_skipped", 0) == 0
    )


def run_fixtures(inputs: dict, out: RoundResult) -> None:
    sizes = inputs["sizes"]
    for argv in inputs["argvs"]:
        out.unit(" ".join(argv), lambda: _cli_suite(argv, out))
    systems = (
        shadows.HandleSystem(flats.SurfaceDesc(0, 6), (S, S)),
        shadows.HandleSystem(flats.SurfaceDesc(2, 2), (T, T, S)),
    )
    rng = random.Random(inputs["shadow_seed"])
    for k in range(sizes["orthogonal_pairs"]):
        def orthogonal(system=systems[k % 2]):
            v0, v1 = shadows.random_orthogonal_pair(system, rng)
            return shadows.orthogonality_check(v0, v1)

        out.unit(f"orthogonal pair {k}", orthogonal)
    for system in systems:
        for length in sizes["path_lengths"]:
            for _ in range(sizes["paths_per_length"]):
                def audited(system=system, length=length):
                    path = shadows.random_path_shadow(system, rng, length=length)
                    return shadows.audit_projection_bound(path)["pass"]

                out.unit(f"path shadow n={system.n} length={length}", audited)


# ---------------------------------------------------------------------------
# one round


def prepare(workload: str, seed: int, sizes=None) -> dict:
    """Inputs of a round, the same for every round; exhaustive ignores the seed.

    A query stream comes without its answer key: ``answer_queries`` adds it.
    """
    if workload == "queries":
        sizes = sizes or QUERIES
        inputs = prepare_queries(seeded_rng(workload, seed), sizes)
    elif workload == "fixtures":
        sizes = sizes or FIXTURES
        inputs = prepare_fixtures(seeded_rng(workload, seed), sizes)
    elif workload == "exhaustive":
        sizes = sizes or EXHAUSTIVE
        inputs = {}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    inputs["sizes"] = sizes
    return inputs


def prepare_probe(sizes=PROBE) -> dict:
    """The probe's query stream, the same for every workload and seed."""
    return prepare_queries(seeded_rng(PROBE_SEED, 0), sizes)


RUNNERS = {"exhaustive": run_exhaustive, "fixtures": run_fixtures, "queries": run_queries}


def counters() -> dict:
    """Process-global state read at the end of the verdict span."""
    memo = getattr(slopes, "_DIST_TO_INFINITY", None)
    info = _graph_info()
    return {
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "memo_entries": 0 if memo is None else len(memo),
        "graph_hits": None if info is None else info.hits,
        "graph_misses": None if info is None else info.misses,
    }
