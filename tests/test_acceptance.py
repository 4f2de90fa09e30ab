"""The acceptance gate: ten numbered end-to-end checks, one line each.

Every test recomputes its claim from scratch at the stated scale; a
failure's assertion message carries the offending fixtures.  Run with
``-s`` (or read the terminal summary) for the per-criterion lines.
"""

import itertools
import json
import random

from conftest import ACCEPTANCE_LINES

from fareyflats.flats import (
    SurfaceDesc,
    certify_flat,
    default_embedding,
    max_handles,
    subproduct_total_geodesy,
)
from fareyflats.geodesics import FareyGraph, Subgraph, build_ball, check_subgraph
from fareyflats.orbifold import PieceKind, curve, intersection_number
from fareyflats.shadows import (
    HandleSystem,
    audit_projection_bound,
    orthogonality_check,
    projection_gap_scenario,
    random_orthogonal_pair,
    random_path_shadow,
)
from fareyflats.slopes import Slope, det, distance, slopes_in_interval, slopes_up_to
from fareyflats import sweeps

T = PieceKind.ONE_HOLED_TORUS
S = PieceKind.FOUR_HOLED_SPHERE


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    ACCEPTANCE_LINES.append(line)
    assert ok, line


def test_01_closed_form_distance_matches_bfs_oracle():
    pool = slopes_up_to(30)
    # negating both numerators is a graph automorphism, so breadth-first
    # searches run only from sources with p >= 0; the remaining pairs are
    # covered by checking that negation symmetry of the closed form
    sources = [s for s in pool if s.p >= 0]
    # one bit-parallel search per truncation serves every source
    rows60 = FareyGraph(60).bfs_many(sources, pool)
    rows120 = FareyGraph(120).bfs_many(sources, pool)
    mismatches = []
    pairs = 0
    for a, row60, row120 in zip(sources, rows60, rows120):
        for b, d60, d120 in zip(pool, row60, row120):
            pairs += 1
            want = distance(a, b)
            if d60 != want or d120 != want:
                mismatches.append((str(a), str(b), want, d60, d120))
    symmetry_pairs = 0
    for a in pool:
        if a.p >= 0:
            continue
        na = Slope(-a.p, a.q)
        for b in pool:
            symmetry_pairs += 1
            if distance(a, b) != distance(na, Slope(-b.p, b.q)):
                mismatches.append((str(a), str(b), "negation"))
    _report(
        1,
        not mismatches,
        f"closed-form distance equals breadth-first search on {pairs} "
        f"slope pairs at height 30 (oracle height 60, stable at height "
        f"120, {symmetry_pairs} negation pairs); mismatches: "
        f"{mismatches[:5]}",
    )


def test_02_interval_is_convex_but_not_totally_geodesic():
    from fractions import Fraction

    host = build_ball(Slope(0, 1), 6, 12)
    sub = Subgraph.induced(slopes_in_interval(Fraction(-1), Fraction(1), 12), host)
    report = check_subgraph(sub, host)
    ok = (
        report["convex"] is True
        and report["totally_geodesic"] is False
        and report["geodesic_witness"] == ["-1/1", "1/0", "1/1"]
    )
    _report(
        2,
        ok,
        "the [-1,1] interval is convex yet misses the escaping geodesic "
        f"{report['geodesic_witness']}",
    )


def test_03_curve_crossing_laws():
    pool = slopes_up_to(12)
    exceptions = []
    pairs = 0
    for a, b in itertools.combinations(pool, 2):
        pairs += 1
        d = abs(det(a, b))
        if intersection_number(curve(T, a), curve(T, b)) != d:
            exceptions.append(("torus", str(a), str(b)))
        if intersection_number(curve(S, a), curve(S, b)) != 2 * d:
            exceptions.append(("sphere", str(a), str(b)))
    _report(
        3,
        not exceptions,
        f"curve crossings equal |det| (torus) and 2|det| (sphere) on "
        f"{pairs} slope pairs at height 12; exceptions: {exceptions[:5]}",
    )


def test_04_projection_identities_exhaustive():
    report = sweeps.identity_sweep(10)
    total = sum(
        v for tallies in report["tallies"].values() for v in tallies.values()
    )
    _report(
        4,
        report["pass"],
        f"both closing-up identities hold on {total} seam/curve pairs at "
        f"height 10, all endpoint pairs; violations: "
        f"{report['violations'][:3]}",
    )


def test_05_arc_endpoints_always_link():
    report = sweeps.linking_sweep(12)
    _report(
        5,
        report["pass"],
        f"endpoints of distinct tight torus arcs link on "
        f"{report['checked']} pairs at height 12; violations: "
        f"{report['violations'][:3]}",
    )


def test_06_fixture_suites_have_zero_violations():
    reports = [
        sweeps.disjoint_projection_suite(samples=500, seed=0),
        sweeps.torus_move_suite(samples=500, seed=0),
        sweeps.sphere_move_suite(samples=500, seed=0),
        sweeps.couple_trace_suite(samples=500, seed=0),
    ]
    bad = {
        r["driver"]: r["violations"] for r in reports if not r["pass"]
    }
    _report(
        6,
        not bad,
        "distance-bound suites at 500 seeded fixtures each "
        f"({', '.join(r['driver'] for r in reports)}); violating "
        f"fixtures: {json.dumps(bad)[:400] if bad else 'none'}",
    )


def test_07_two_piece_gap_is_exactly_two():
    _, audit = projection_gap_scenario()
    ok = (
        audit["r"] == 1
        and audit["best"] == 2
        and audit["special_couple"]
        and audit["without_far_trace"] == 2
    )
    _report(
        7,
        ok,
        "the two-piece scenario's projection sets sit at distance exactly "
        f"2 with no completion below 2 (best={audit['best']}, edge radius "
        f"r={audit['r']})",
    )


def test_08_orthogonal_pairs_project_to_the_vertex():
    systems = (
        HandleSystem(SurfaceDesc(0, 6), (S, S)),
        HandleSystem(SurfaceDesc(2, 2), (T, T, S)),
    )
    rng = random.Random(0)
    failures = []
    for k in range(200):
        v0, v1 = random_orthogonal_pair(systems[k % 2], rng)
        if not orthogonality_check(v0, v1):
            failures.append(k)
    _report(
        8,
        not failures,
        f"200 seeded orthogonal adjacent pairs all project to the "
        f"in-graph vertex; failing indices: {failures[:5]}",
    )


def test_09_path_shadows_respect_the_radius_bound():
    systems = (
        HandleSystem(SurfaceDesc(0, 6), (S, S)),
        HandleSystem(SurfaceDesc(2, 2), (T, T, S)),
    )
    rng = random.Random(814)
    audited = 0
    failures = []
    for system in systems:
        for length in range(1, 9):
            for _ in range(3):
                path = random_path_shadow(system, rng, length=length)
                audited += 1
                if not audit_projection_bound(path)["pass"]:
                    failures.append((system.n, length))
    gap_path, gap_audit = projection_gap_scenario()
    noncontractive = (
        gap_path.length == 1
        and not gap_audit["pass"]
        and gap_audit["best"] > gap_audit["r"]
    )
    _report(
        9,
        not failures and noncontractive,
        f"{audited} generated path shadows of length <= 8 over 2-3 pieces "
        f"keep projection distance within the radius; the crafted "
        f"single-edge scenario audits as the expected non-contractive "
        f"exception (best={gap_audit['best']} > r={gap_audit['r']}); "
        f"failures: {failures[:5]}",
    )


def test_10_lattice_flats_certify():
    certified = {}
    for n in (1, 2, 3):
        rep = certify_flat(default_embedding(n), 5)
        certified[n] = (rep["passed"], rep["pairs_checked"])
    factor2 = subproduct_total_geodesy(2, 1, radius=3)
    factor3 = subproduct_total_geodesy(3, 1, radius=3)
    control = subproduct_total_geodesy(2, 1, radius=3, subgraph="diagonal")
    rank = max_handles(SurfaceDesc(7, 0))
    ok = (
        all(passed for passed, _ in certified.values())
        and factor2["totally_geodesic"]
        and factor3["totally_geodesic"]
        and not control["totally_geodesic"]
        and rank == 9
    )
    _report(
        10,
        ok,
        "flats certify on windows [-5,5]^n for n=1,2,3 "
        f"({', '.join(f'n={n}: {p[1]} pairs' for n, p in certified.items())}); "
        f"factor subgraphs totally geodesic at radius 3 (diagonal control "
        f"fails as expected); genus-7 closed surface rank {rank}",
    )
