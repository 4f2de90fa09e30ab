"""Golden outputs: exact bytes of seeded and exhaustive reports.

Each case pins the SHA-256 of a ``--no-timestamp`` JSON report (or of a
``check_subgraph`` report dumped with sorted keys, or of the sorted
``neighborhood_boundary`` components of seeded configurations).  A
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

import pytest

from fareyflats import cli
from fareyflats.geodesics import Subgraph, build_ball, check_subgraph
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
from fareyflats.slopes import Slope, slopes_in_interval

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
