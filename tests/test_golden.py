"""Golden outputs: exact bytes of seeded and exhaustive reports.

Each case pins the SHA-256 of a ``--no-timestamp`` JSON report (or of a
``check_subgraph``, ``certify_flat`` or ``subproduct_total_geodesy`` report
dumped with sorted keys, of the sorted ``neighborhood_boundary``
components of seeded configurations, of ``FareyGraph`` neighbour tables,
of seeded ``FareyGraph.bfs`` levels with their discovery order, or of
every ``geodesics`` set between slopes of height at most 7).  A
refactor of the drivers, samplers, graph searches or crossing kernels must
leave every hash unchanged: the same seed draws the same fixtures, and
every witness, path and boundary component comes out in the same order.
"""

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction
from itertools import product

import pytest

from fareyflats import cli
from fareyflats.flats import certify_flat, default_embedding, subproduct_total_geodesy
from fareyflats.geodesics import (
    FareyGraph,
    Subgraph,
    build_ball,
    check_subgraph,
    geodesics,
)
from fareyflats.orbifold import (
    CORNER_LABELS,
    TORUS_MARK,
    DegenerateRealization,
    PieceKind,
    curve,
    random_arcish,
    random_slope,
    random_torus_arc,
    random_wave,
)
from fareyflats.ribbon import neighborhood_boundary
from fareyflats.slopes import Slope, slopes_in_interval, slopes_up_to

CLI_GOLDEN = {
    ("lemmas", "int", "--height", "3"):
        "86f713a92b7324f5ed1ad70c59a521cb7c861074037f62f9e302b65956ede3f5",
    ("lemmas", "lk", "--height", "6"):
        "9ba261a72aa78dd3e9d8cce18223f328651d1064f4bca4862db1b809e88a90e4",
    ("lemmas", "prs", "--height", "3"):
        "595dd4aeabba4008ab53a7272d3ee02127b4447cf703d8d416379b564144a006",
    ("lemmas", "prs", "--samples", "40", "--seed", "7"):
        "3f980c0fbd51a0e19b184bc7d45fd6fe7526d3f2b01dff30eb0dc389172a3652",
    ("lemmas", "prt", "--samples", "40", "--seed", "7"):
        "91dc40a07b91f12927e82c057b277702703fd8b2ec082921565fe3ef60f59b1b",
    ("lemmas", "ml", "--samples", "40", "--seed", "7"):
        "0a857882921ba2d09b9dafa4d9c4ea98cb4d61026784717bfa2eaf61be510a5b",
    ("lemmas", "sc", "--samples", "40", "--seed", "7"):
        "53bbab24c6c32c8b8900d448d4d3c73b98860dac54aa10ee2eb730732027a125",
    ("scenario", "orthogonality", "--count", "20", "--seed", "7"):
        "ad14e7bc065b7665bce4ed6f3f3967363c7d9b170e7e7dc0d4581056fd4711d6",
    ("scenario", "figure2"):
        "a9cc9caba62a476e48671d80914378632e114284c096e96c5e5c75119204a38d",
    ("farey", "geodesics", "-7/5", "13/8"):
        "1f590b2ff9e91b54c51fd3ca22b39166b772fd436cc1b44dbc7112b43377df74",
    ("farey", "ball", "1/2", "--radius", "2", "--height", "6"):
        "310637beb109d34b517aa4a58422f6678fdbf76a8f341ed5e909c32f54e90fc7",
    ("flats", "export", "--n", "3", "--window", "2", "--format", "dot"):
        "fab1523542ed9d4a44082cd680b95ac64e044f32de01c7222e3a56a3ee3351f4",
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("argv", list(CLI_GOLDEN), ids=" ".join)
def test_cli_report_bytes(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([*argv, "--no-timestamp"])
    assert code == 0
    assert _sha(out.getvalue()) == CLI_GOLDEN[argv]


@pytest.fixture(scope="module")
def host():
    return build_ball(Slope(0, 1), 6, 12)


def _interval(drop=()):
    iv = slopes_in_interval(Fraction(-1), Fraction(1), 12)
    return [s for s in iv if s not in drop]


@pytest.mark.parametrize(
    "drop, digest",
    [
        ((), "9db3b4c9fdb4bedad4d03c457b9940460f94c3356b973ceca575a9bf1c6e7a4d"),
        (
            (Slope(0, 1),),
            "99e6090d1165499750d1109c51fa08ba437f55883cfdc84f9e19e5f7a41e223a",
        ),
    ],
    ids=["interval", "interval-without-0/1"],
)
def test_check_subgraph_report_bytes(host, drop, digest):
    sub = Subgraph.induced(_interval(drop), host)
    report = check_subgraph(sub, host)
    assert _sha(json.dumps(report, sort_keys=True)) == digest


def _ribbon_configurations(count=48, height=3):
    """Seeded unions on both pieces; every third sphere union starts with
    two waves, and each boundary label is welded in with probability 1/3."""
    rng = random.Random(20131)
    configs = []
    for k in range(count):
        torus = k % 2 == 0
        objs = []
        if not torus and k % 3 == 1:
            objs = [random_wave(rng, height), random_wave(rng, height)]
        size = 1 + rng.randrange(3)
        while len(objs) < size:
            if torus:
                obj = (
                    random_torus_arc(rng, height)
                    if rng.randrange(2)
                    else curve(PieceKind.ONE_HOLED_TORUS, random_slope(rng, height))
                )
            else:
                obj = random_arcish(rng, height)
            if obj not in objs:
                objs.append(obj)
        if len(set(objs)) != len(objs):
            objs = objs[:1]
        valid = (TORUS_MARK,) if torus else CORNER_LABELS
        labels = [label for label in valid if rng.randrange(3) == 0]
        configs.append((objs, labels))
    return configs


RIBBON_GOLDEN = "fb33b42e51b25fed9463defc1409a48409a2795242e131643e46f8001f7f4d6a"


def test_neighborhood_boundary_components():
    rows = []
    for objs, labels in _ribbon_configurations():
        try:
            comps = neighborhood_boundary(objs, labels)
        except DegenerateRealization:
            rows.append([[str(o) for o in objs], labels, "degenerate"])
            continue
        rows.append(
            [
                [str(o) for o in objs],
                labels,
                [
                    [c.kind, str(c.object), list(c.labels), c.dart_count]
                    for c in comps
                ],
            ]
        )
    assert _sha(json.dumps(rows)) == RIBBON_GOLDEN


# ---------------------------------------------------------------------------
# graph tables, searches and flat certificates


def _graph_adjacency_rows():
    return [[list(nbrs) for nbrs in FareyGraph(h).adj] for h in range(1, 41)]


ADJACENCY_GOLDEN = "f74f306ede1ea30fe7c3030d46c83b6682b7cd15b8d443194b060ff45d773da4"


def test_farey_graph_adjacency_tables():
    assert _sha(json.dumps(_graph_adjacency_rows())) == ADJACENCY_GOLDEN


def _bfs_rows(height):
    """Sorted items and discovery order of seeded searches in one truncation."""
    graph = FareyGraph(height)
    rng = random.Random(f"bfs:{height}")
    rows = []
    for source in rng.sample(graph.vertices, 6):
        for radius in (None, 1, 3):
            found = graph.bfs(source, radius)
            rows.append(
                [
                    str(source),
                    radius,
                    sorted([*s.sort_key(), d] for s, d in found.items()),
                    [str(s) for s in found],
                ]
            )
    return rows


BFS_GOLDEN = {
    12: "9b5b0f314101fa7c80e45a7a883c3c8b8226b3e8ed6edc64620147954acd43a0",
    32: "e5395681d01bc7255595323aded1ae6146ec2dbae55bd7ad107e854ee721c905",
}


@pytest.mark.parametrize("height", sorted(BFS_GOLDEN))
def test_farey_graph_search_levels(height):
    assert _sha(json.dumps(_bfs_rows(height))) == BFS_GOLDEN[height]


GEODESICS_GOLDEN = "d3406c0f2f7bda0135b6e036bc15a5456d870b7143254aee6013fecc3171907a"


def test_geodesic_sets_up_to_height_seven():
    """Every ordered pair of slopes of height <= 7: ends, length and paths
    in their sorted order."""
    rows = [
        geodesics(a, b, 7).to_json_dict()
        for a, b in product(slopes_up_to(7), repeat=2)
    ]
    assert _sha(json.dumps(rows)) == GEODESICS_GOLDEN


CERTIFY_GOLDEN = {
    (1, 3):
        "8df70407fa30b7d9db15b446ebce5d5972e97205b4c015749109cd56bbcc06d0",
    (1, 4):
        "2333d9ad010347b9e8acf960f3e1726ebd001173850107a179b9bb877eb7497c",
    (1, 5):
        "a496101220ae5199528d7961d0ed9cca23aff6e0a568846b43d4b513fc8460be",
    (2, 3):
        "aa950f5addc5983ec3f10b329011cedb0be6edbe0b07979aa4befe8d74fbe620",
    (2, 4):
        "5b9e32e132f74adc61498fce64cb4e0f1ee8ebdfd9c9bbb25a05f096040ce2c6",
    (2, 5):
        "788ea99ec6de45d6b205ad016c2cb28973266fad0888a3a47f0826e55d10afd3",
    (3, 3):
        "6e675bf4e9b68ac56806f643133849e3b0584737186b37a50b691ad318d66c65",
    (3, 4):
        "c8088e4f5c7607df3134bc8e2fcc9aa132773b216afa364317de9669bf38e195",
    (3, 5):
        "b56065907000bad417acc54aafbd1c8a716ada23d1d68e2f4c8e3587130ec04e",
}


@pytest.mark.parametrize(
    "n, window", sorted(CERTIFY_GOLDEN), ids=lambda v: str(v)
)
def test_certify_flat_report_bytes(n, window):
    report = certify_flat(default_embedding(n), window)
    assert _sha(json.dumps(report, sort_keys=True)) == CERTIFY_GOLDEN[(n, window)]


SUBPRODUCT_GOLDEN = {
    ("factor", 2, 1, 2):
        "747c57610fd6146764f68817c8ef113f5c06cf8a3a713f212e5ca4fe82cc50f7",
    ("factor", 2, 1, 3):
        "4654937fc5bc8577a8feb9696ad008e30082da416a96ebbf6f974d9fa9f8d931",
    ("factor", 3, 1, 2):
        "808e97537d8400c88bc8e91c1eef008fff32d8d643c02a66205f22478a572e79",
    ("factor", 3, 1, 3):
        "c8487b4586e8cdcc4100c07902ed6cb39c4bbc34ecbdd59906e07cca1045a0eb",
    ("factor", 3, 2, 2):
        "b4b6fc8e2db066c7ab45bfd923832a2dcdb44f1ebb81dfd21044969f5abc9b88",
    ("diagonal", 2, 1, 2):
        "4d8d60055f36f5b4ded73be0a5269ef71567be0a1452319d4e4aea8b07c52109",
    ("diagonal", 2, 1, 3):
        "25d229c54dd4ff0ddf851cfda3798bd11c7699fbdda2cf09768ab3be357d0620",
    ("diagonal", 3, 1, 2):
        "61d40a8a4e8414867999f0e6f695ef3500310dc7de3f56fcf93659ba4933ce4b",
    ("diagonal", 3, 1, 3):
        "71270fa42d3db4b1f37604886e3d799f0608201ea5223aea155e532782e17021",
}


@pytest.mark.parametrize(
    "subgraph, n, k, radius", sorted(SUBPRODUCT_GOLDEN), ids=lambda v: str(v)
)
def test_subproduct_total_geodesy_report_bytes(subgraph, n, k, radius):
    report = subproduct_total_geodesy(n, k, radius=radius, subgraph=subgraph)
    digest = SUBPRODUCT_GOLDEN[(subgraph, n, k, radius)]
    assert _sha(json.dumps(report, sort_keys=True)) == digest
