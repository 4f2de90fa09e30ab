"""Tests of the benchmark itself, at tiny sizes.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import fareyflats.cli  # noqa: E402,F401  (imports every module)
import tracing  # noqa: E402
import workloads  # noqa: E402
from fareyflats import orbifold, pieces, slopes, sweeps  # noqa: E402

TINY = {
    "exhaustive": dict(
        workloads.EXHAUSTIVE,
        distance_height=4,
        oracle_heights=(8, 16),
        crossing_height=3,
        identity_height=2,
        linking_height=4,
        disjoint_height=2,
        flats=((1, 2), (2, 2)),
        subproducts=((2, 1, 2, "factor"), (2, 1, 3, "diagonal")),
    ),
    "fixtures": dict(
        workloads.FIXTURES,
        cli=(("ml", 3, 3, 1), ("prt", 3, 5, 1), ("sc", 3, 8, 1), ("prs", 3, 8, 1)),
        orthogonal_pairs=4,
        path_lengths=(1, 2),
        paths_per_length=1,
    ),
    "queries": dict(
        workloads.QUERIES, small=20, deep=2, deep_sum=(50, 60), geodesics=6, cold_heights=(12, 30)
    ),
}


def tiny_round(workload: str, seed: int = 0) -> workloads.RoundResult:
    inputs = workloads.prepare(workload, seed, TINY[workload])
    if workload == "queries":
        workloads.answer_queries(inputs)
    out = workloads.RoundResult()
    workloads.RUNNERS[workload](inputs, out)
    if workload != "queries":
        probe = workloads.prepare_probe(TINY["queries"])
        workloads.answer_queries(probe)
        workloads.run_queries(probe, out)
    return out


def snapshot() -> dict:
    """Every module attribute and closure cell of the package, by identity."""
    state = {}
    for mod in tracing.package_modules():
        for key, value in vars(mod).items():
            state[(mod.__name__, key)] = value
            if getattr(value, "__bench_wrapper__", False):
                continue  # a wrapper's own cell holds the original
            for i, cell in enumerate(getattr(value, "__closure__", None) or ()):
                state[(mod.__name__, key, i)] = cell.cell_contents
    return state


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_round_is_correct_and_leaves_package_untouched(workload):
    before = snapshot()
    out = tiny_round(workload)
    after = snapshot()
    assert out.failed == 0, out.failures
    assert out.attempted > 0
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())


def test_tracing_rebinds_every_binding_and_restores_them():
    distance = slopes.distance
    crossing = orbifold.intersection_number
    suite = sweeps.sphere_move_suite
    before = snapshot()
    holders = {k[0] for k, v in before.items() if v is distance}
    assert holders >= {
        "fareyflats", "fareyflats.slopes", "fareyflats.geodesics", "fareyflats.pieces",
        "fareyflats.shadows", "fareyflats.flats", "fareyflats.cli",
    }
    assert {k[0] for k, v in before.items() if v is crossing} >= {
        "fareyflats.orbifold", "fareyflats.pieces", "fareyflats.ribbon",
        "fareyflats.shadows", "fareyflats.sweeps",
    }
    tracer = tracing.Tracer().install()
    try:
        during = snapshot()
        originals = {id(b[2]) for b in tracer.bindings}
        # no binding of a traced function is left pointing at the original
        assert not [k for k, v in during.items() if id(v) in originals]
        assert len(tracer.bindings) == sum(
            1 for v in before.values() if id(v) in originals
        ) + 2  # the two FareyGraph methods live on the class
        assert tracer.absent == []
        tiny = workloads.prepare("fixtures", 0, TINY["fixtures"])
        out = workloads.RoundResult()
        workloads.run_fixtures(tiny, out)
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    assert totals["cli.main"][0] == 4
    # cli reaches sphere_move_suite through a closure cell
    assert totals["sweeps.sphere_move_suite"][0] == 1
    assert tracing.span_metrics(totals)["orbifold.intersection_number.wave_wave.calls"] > 0
    after = snapshot()
    assert all(after[k] is v for k, v in before.items())
    assert sweeps.sphere_move_suite is suite


def test_absent_name_reads_as_absent(monkeypatch):
    monkeypatch.delattr(pieces, "associated_seam")
    monkeypatch.delattr(slopes, "_DIST_TO_INFINITY")
    tracer = tracing.Tracer().install()
    tracer.uninstall()
    assert tracer.absent == ["pieces.associated_seam"]
    assert workloads.counters()["memo_entries"] == 0


def test_planted_wrong_answers_are_counted(monkeypatch):
    right = slopes.distance
    monkeypatch.setattr(slopes, "distance", lambda a, b: right(a, b) + 1)
    out = tiny_round("queries")
    assert out.failed >= TINY["queries"]["small"]


def test_raising_unit_is_counted(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("planted")

    monkeypatch.setattr(sweeps, "linking_sweep", broken)
    out = tiny_round("exhaustive")
    assert out.failed == 1
    assert "planted" in out.failures[0]


@pytest.mark.parametrize("workload", ["fixtures", "queries"])
def test_seed_fixes_inputs(workload):
    sizes = TINY[workload]
    first = workloads.prepare(workload, 7, sizes)
    again = workloads.prepare(workload, 7, sizes)
    other = workloads.prepare(workload, 8, sizes)
    assert first == again
    assert first != other


def test_benchmark_json_names_every_per_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert listed == tracing.PER_LAYER


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "queries", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
