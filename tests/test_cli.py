import argparse
import json
from fractions import Fraction

import pytest

from fareyflats import cli, sweeps
from fareyflats.geodesics import Subgraph, build_ball
from fareyflats.orbifold import ObjectKind, PieceKind, RealizationContext
from fareyflats.shadows import projection_gap_scenario
from fareyflats.slopes import Slope, slopes_in_interval, slopes_up_to
from test_golden import CLI_GOLDEN


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, [*argv, "--no-timestamp"])
    return code, json.loads(out), err


def costs(argv):
    """The (what, cost, limit) of every budget argv meets; nothing runs."""
    args = cli.build_parser().parse_args(argv)
    return list(args.entry.cost(args))


def admitted(argv):
    return all(cost <= limit for _, cost, limit in costs(argv))


def interval_fixture(tmp_path):
    host = build_ball(Slope(0, 1), 6, 12)
    verts = slopes_in_interval(Fraction(-1), Fraction(1), 12)
    sub = Subgraph.induced(verts, host)
    path = tmp_path / "interval.json"
    path.write_text(json.dumps(sub.to_json_dict()))
    return str(path)


def triangle_fixture(tmp_path):
    data = {
        "vertices": ["0/1", "1/1", "1/0"],
        "edges": [["0/1", "1/1"], ["0/1", "1/0"], ["1/0", "1/1"]],
    }
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps(data))
    return str(path)


def gap_fixture_data():
    path_shadow, _ = projection_gap_scenario()
    return path_shadow.to_json_dict()


def gap_fixture(tmp_path):
    path = tmp_path / "gap.json"
    path.write_text(json.dumps(gap_fixture_data()))
    return str(path)


def break_first_fixture(monkeypatch, name, wrong, fixture, owner=sweeps):
    """Patch owner.name (sweeps.name by default), a driver's own comparison,
    to answer wrong(answer) on every call made for one fixture: the one of
    its first call, where fixture(*args) names the fixture a call is made
    for.  Returns a list that holds that name once the driver has run."""
    real = getattr(owner, name)
    first = []

    def patched(*args):
        here = fixture(*args)
        if not first:
            first.append(here)
        answer = real(*args)
        return wrong(answer) if here == first[0] else answer

    monkeypatch.setattr(owner, name, patched)
    return first


def assert_one_violation(capsys, argv, first, named):
    """The driver behind argv reports one violation, the broken fixture
    (named(violation) == first[0]), exits 2, and renders it as text."""
    code, report, _ = run_json(capsys, argv)
    assert code == 2
    assert report["pass"] is False
    (violation,) = report["violations"]
    assert named(violation) == first[0]
    code, out, _ = run(capsys, [*argv, "--format", "text", "--no-timestamp"])
    assert code == 2
    lines = out.splitlines()
    assert "pass: False" in lines
    assert set(cli._render_text(violation, "violations[0]")) <= set(lines)
    return violation


class TestFareyCommands:
    def test_distance(self, capsys):
        code, report, _ = run_json(capsys, ["farey", "distance", "0/1", "1/0"])
        assert code == 0
        assert report == {"a": "0/1", "b": "1/0", "distance": 1}

    def test_distance_negative_slope_positional(self, capsys):
        code, report, _ = run_json(
            capsys, ["farey", "distance", "-1/1", "1/1"]
        )
        assert code == 0
        assert report["distance"] == 2

    def test_geodesics_lists_both_paths(self, capsys):
        code, report, _ = run_json(
            capsys, ["farey", "geodesics", "-1/1", "1/1", "--height", "4"]
        )
        assert code == 0
        assert report["length"] == 2
        assert report["count"] == 2
        assert not report["truncated"]
        assert sorted(report["paths"]) == [
            ["-1/1", "0/1", "1/1"],
            ["-1/1", "1/0", "1/1"],
        ]

    def test_geodesics_height_below_endpoints(self, capsys):
        code, out, err = run(
            capsys, ["farey", "geodesics", "5/7", "1/1", "--height", "2"]
        )
        assert code == 1
        assert "height" in err

    def test_distance_large_slope(self, capsys):
        code, report, _ = run_json(
            capsys, ["farey", "distance", "1/1000000000", "1/0"]
        )
        assert code == 0
        assert report["distance"] == 2

    def test_geodesics_large_partial_quotients(self, capsys):
        # [3; 10^6, 10^6 + 1]: convergents 3/1 and 3000001/1000000.
        n, k = 10**6, 10**6 + 1
        x = Slope(3 * (n * k + 1) + k, n * k + 1)
        code, report, _ = run_json(capsys, ["farey", "geodesics", str(x), "1/0"])
        assert code == 0
        assert report["length"] == 3
        assert report["height_bound"] == x.height
        assert report["truncated"] is False
        assert report["paths"] == [[str(x), "3000001/1000000", "3/1", "1/0"]]

    @pytest.mark.parametrize("height", ["0", "-3"])
    def test_geodesics_rejects_height_below_one(self, capsys, height):
        code, out, err = run(
            capsys, ["farey", "geodesics", "0/1", "1/0", "--height", height]
        )
        assert code == 1
        assert out == ""
        assert f"--height {height} is out of range" in err

    @pytest.mark.parametrize(
        "b, code",
        [
            # [0; 2, ..., 2] with 18 and 19 twos: 6,765 geodesics of 20
            # slopes (135,300) and 10,946 of 21 (229,866)
            ("2744210/6625109", 0),
            ("6625109/15994428", 1),
        ],
    )
    def test_geodesics_fit_the_listing_budget(self, capsys, b, code):
        assert run(capsys, ["farey", "geodesics", "1/0", b])[0] == code

    def test_geodesics_refuses_a_fibonacci_count_before_listing(self, capsys):
        p, q = 0, 1
        for _ in range(60):  # [0; 2, ..., 2] with 60 twos
            p, q = q, 2 * q + p
        code, out, err = run(capsys, ["farey", "geodesics", "1/0", f"{p}/{q}"])
        assert code == 1
        assert out == ""
        assert "geodesics" in err

    def test_ball_dot(self, capsys):
        code, out, _ = run(
            capsys, ["farey", "ball", "0/1", "--radius", "1", "--format", "dot"]
        )
        assert code == 0
        assert out.startswith("graph")
        assert '"0/1"' in out and '"1/0"' in out

    def test_check_subgraph_interval_fails_geodesy(self, capsys, tmp_path):
        fixture = interval_fixture(tmp_path)
        code, report, _ = run_json(capsys, ["farey", "check-subgraph", fixture])
        assert code == 2
        assert report["passed"] is False
        assert report["convex"] is True
        assert report["totally_geodesic"] is False
        assert report["geodesic_witness"] == ["-1/1", "1/0", "1/1"]

    def test_check_subgraph_triangle_passes(self, capsys, tmp_path):
        fixture = triangle_fixture(tmp_path)
        code, report, _ = run_json(capsys, ["farey", "check-subgraph", fixture])
        assert code == 0
        assert report["passed"] is True

    def test_check_subgraph_stray_vertex(self, capsys, tmp_path):
        path = tmp_path / "stray.json"
        path.write_text(json.dumps({"vertices": ["0/1", "13/1"], "edges": []}))
        code, _, err = run(capsys, ["farey", "check-subgraph", str(path)])
        assert code == 1
        assert "outside the host ball" in err

    def test_graph_height_over_budget_is_rejected(self, capsys, tmp_path):
        fixture = triangle_fixture(tmp_path)
        for argv in (
            ["farey", "ball", "0/1", "--height", "316"],
            ["farey", "ball", "1/1000000000"],
            ["farey", "check-subgraph", fixture, "--height", "1000000"],
            ["farey", "check-subgraph", fixture, "--height", "0"],
        ):
            code, out, err = run(capsys, argv)
            assert code == 1, argv
            assert out == ""
            assert "--height" in err

    def test_ball_rejects_negative_radius(self, capsys):
        code, out, err = run(capsys, ["farey", "ball", "0/1", "--radius", "-3"])
        assert code == 1 and out == ""
        assert "--radius -3 is out of range" in err
        code, report, _ = run_json(capsys, ["farey", "ball", "0/1", "--radius", "0"])
        assert code == 0 and report["vertices"] == ["0/1"]

    def test_check_subgraph_rejects_negative_ball_radius(self, capsys, tmp_path):
        fixture = triangle_fixture(tmp_path)
        argv = ["farey", "check-subgraph", fixture, "--ball-radius", "-1"]
        code, out, err = run(capsys, argv)
        assert code == 1 and out == ""
        assert "--ball-radius -1 is out of range" in err

    def test_check_subgraph_center_above_height(self, capsys, tmp_path):
        fixture = triangle_fixture(tmp_path)
        code, _, err = run(
            capsys,
            ["farey", "check-subgraph", fixture, "--center", "1/20", "--height", "12"],
        )
        assert code == 1
        assert "cover the center" in err

    def test_check_subgraph_missing_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys, ["farey", "check-subgraph", str(tmp_path / "nope.json")]
        )
        assert code == 1
        assert "cannot read" in err

    def test_check_subgraph_rejects_a_slope_that_is_not_text(
        self, capsys, tmp_path
    ):
        path = tmp_path / "number.json"
        path.write_text(json.dumps({"vertices": [1], "edges": []}))
        code, out, err = run(capsys, ["farey", "check-subgraph", str(path)])
        assert code == 1 and out == ""
        assert "bad subgraph fixture" in err


class TestLemmasCommands:
    @pytest.mark.parametrize(
        "argv",
        [
            ["lemmas", "int", "--height", "0"],
            ["lemmas", "lk", "--height", "-2"],
            ["lemmas", "prs", "--height", "0"],
            ["lemmas", "int", "--height", "31"],
            ["lemmas", "int", "--height", "40"],
            ["lemmas", "lk", "--height", "61"],
            ["lemmas", "prs", "--height", "28"],
            ["lemmas", "prs", "--height", "1000000000000"],
        ],
    )
    def test_sweep_rejects_vacuous_or_costly_heights(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == 1
        assert out == ""
        assert "fareyflats: error: --height " in err and "out of range" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, largest", [("int", 30), ("lk", 60), ("prs", 27)])
    def test_sweep_budget_admits_the_defaults_and_the_largest_heights(
        self, command, largest
    ):
        _, pairs, per_pair = cli.SWEEPS[command]
        assert pairs(len(slopes_up_to(largest))) * per_pair <= cli.WORK_BUDGET
        assert pairs(len(slopes_up_to(largest + 1))) * per_pair > cli.WORK_BUDGET
        for height in (1, {"int": 6, "lk": 8, "prs": 4}[command], largest):
            assert admitted(["lemmas", command, "--height", str(height)])

    @pytest.mark.parametrize("height", [1, 2, 3, 4])
    def test_sweep_pair_counts_match_the_sweeps(self, height):
        n = len(slopes_up_to(height))
        pairs = {command: entry[1] for command, entry in cli.SWEEPS.items()}
        tallies = sweeps.identity_sweep(height)["tallies"]
        assert pairs["int"](n) == sum(
            count for tally in tallies.values() for count in tally.values()
        )
        assert pairs["lk"](n) == sweeps.linking_sweep(height)["checked"]
        # prs pairs each of the 2n sphere seams with n curves, 2n seams, 4n waves
        assert len(sweeps._all_seams(PieceKind.FOUR_HOLED_SPHERE, height)) == 2 * n
        assert pairs["prs"](n) == 2 * n * 7 * n

    def test_lk(self, capsys):
        code, report, _ = run_json(capsys, ["lemmas", "lk", "--height", "3"])
        assert code == 0
        assert report["checked"] == 120

    def test_sweep_violations_exit_2_and_render(self, capsys, monkeypatch):
        # One crossing too many whenever a curve comes first breaks the
        # closing-up identity on every pair, so every pair is reported; the
        # sweep's counts and the violation report's recounts both see it.
        right = RealizationContext.count
        monkeypatch.setattr(
            RealizationContext,
            "count",
            lambda ctx, i, j: right(ctx, i, j)
            + (ctx.objects[i].kind is ObjectKind.CURVE),
        )
        argv = ["lemmas", "int", "--height", "1"]
        code, report, _ = run_json(capsys, argv)
        assert code == 2
        assert report["pass"] is False
        checked = sum(sum(t.values()) for t in report["tallies"].values())
        assert len(report["violations"]) == checked
        first = report["violations"][0]
        assert first["holds"] is False
        assert first["projected_crossings"] == first["rhs"] + 1
        assert first["s"].startswith("seam(") and first["t"].startswith("seam(")
        code, out, _ = run(capsys, [*argv, "--format", "text", "--no-timestamp"])
        assert code == 2
        lines = out.splitlines()
        assert "pass: False" in lines
        assert f"violations[0].s: {first['s']}" in lines
        assert f"violations[0].t: {first['t']}" in lines
        assert f"violations[{checked - 1}].holds: False" in lines

    def test_linking_sweep_violation_exits_2_and_renders(self, capsys, monkeypatch):
        first = break_first_fixture(
            monkeypatch, "endpoint_linking", lambda linked: not linked,
            lambda a, b: (str(a), str(b)),
        )
        argv = ["lemmas", "lk", "--height", "2"]
        assert_one_violation(capsys, argv, first, lambda v: (v["a"], v["b"]))

    @pytest.mark.parametrize(
        "argv",
        [
            ["lemmas", "prs", "--height", "1"],
            ["lemmas", "prs", "--samples", "20", "--seed", "3", "--height", "6"],
        ],
        ids=["disjoint_projection_sweep", "disjoint_projection_suite"],
    )
    def test_disjoint_projection_violation_exits_2_and_renders(
        self, capsys, monkeypatch, argv
    ):
        # distance sees two slopes only; the fixture is the last one _prs_case saw
        seen = []
        case = sweeps._prs_case

        def seeing(ctx, i, j):
            seen.append((str(ctx.objects[i]), str(ctx.objects[j])))
            return case(ctx, i, j)

        monkeypatch.setattr(sweeps, "_prs_case", seeing)
        first = break_first_fixture(
            monkeypatch, "distance", lambda d: d + 2, lambda u, v: seen[-1]
        )
        assert_one_violation(capsys, argv, first, lambda v: (v["s"], v["b"]))

    def test_move_suite_violation_exits_2_and_renders(self, capsys, monkeypatch):
        # every witness of the fixture fails, whatever the boundary component
        first = break_first_fixture(
            monkeypatch, "_bound_holds", lambda holds: False,
            lambda boundary, objects: [str(o) for o in objects],
        )
        argv = ["lemmas", "prt", "--samples", "5", "--seed", "1"]
        assert_one_violation(
            capsys, argv, first, lambda v: v["component"] + v["extras"]
        )

    def test_couple_trace_violation_exits_2_and_renders(self, capsys, monkeypatch):
        # a fixture's counts are made on its own context [s, c, *seams of c];
        # the twin, the seam of c sharing both of s's ends, crosses s once
        def twin_and_seam(ctx, i, j):
            s = ctx.objects[0]
            twin = next(
                o for o in ctx.objects[2:] if set(o.endpoints) == set(s.endpoints)
            )
            return (str(twin), str(s))

        first = break_first_fixture(
            monkeypatch, "count", lambda n: n + (n == 0), twin_and_seam,
            owner=RealizationContext,
        )
        argv = ["lemmas", "sc", "--samples", "20", "--seed", "2"]
        violation = assert_one_violation(
            capsys, argv, first, lambda v: (v["twin"], v["s"])
        )
        assert violation["problems"] == ["twin crosses the seam"]

    def test_prs_defaults_to_exhaustive_sweep(self, capsys):
        code, report, _ = run_json(capsys, ["lemmas", "prs", "--height", "2"])
        assert code == 0
        assert report["driver"] == "disjoint_projection_sweep"
        assert report["checked"] == 304
        assert report["excluded_two_shared_ends"] == 20

    def test_prs_samples_switches_to_suite(self, capsys):
        code, report, _ = run_json(
            capsys,
            ["lemmas", "prs", "--samples", "25", "--seed", "3", "--height", "6"],
        )
        assert code == 0
        assert report["driver"] == "disjoint_projection_suite"
        assert report["checked"] == 25

    def test_prt(self, capsys):
        code, report, _ = run_json(
            capsys, ["lemmas", "prt", "--samples", "30", "--seed", "1"]
        )
        assert code == 0
        assert report["checked"] == 30

    def test_ml(self, capsys):
        code, report, _ = run_json(
            capsys, ["lemmas", "ml", "--samples", "15", "--seed", "0"]
        )
        assert code == 0
        assert report["checked"] == 15

    def test_sc(self, capsys):
        code, report, _ = run_json(
            capsys, ["lemmas", "sc", "--samples", "30", "--seed", "2"]
        )
        assert code == 0
        assert report["checked"] == 30

    def test_sc_rejects_slopes_without_a_mate(self, capsys):
        # at height 1 only +-1/1 have a mate v with |det(u, v)| = 2
        code, report, _ = run_json(
            capsys, ["lemmas", "sc", "--samples", "20", "--height", "1"]
        )
        assert code == 0
        assert report["checked"] == 20 and report["rejected"] > 0

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["lemmas", "prs", "--samples", "5", "--height", "0"], "--height"),
            (["lemmas", "prt", "--samples", "5", "--height", "0"], "--height"),
            (["lemmas", "ml", "--samples", "5", "--height", "-3"], "--height"),
            (["lemmas", "sc", "--height", "0"], "--height"),
            (["lemmas", "prt", "--samples", "-1"], "--samples"),
            (["lemmas", "prs", "--samples", "-1"], "--samples"),
            (["lemmas", "sc", "--samples", "-5"], "--samples"),
        ],
    )
    def test_suite_rejects_out_of_range_input(self, capsys, argv, flag):
        code, out, err = run(capsys, argv)
        assert code == 1
        assert out == ""
        assert f"{flag} " in err and "out of range" in err

    @pytest.mark.parametrize("command", ["prs", "prt", "ml", "sc"])
    def test_suite_refuses_samples_over_the_budget(self, capsys, command):
        argv = ["lemmas", command, "--samples", str(cli.SAMPLE_BUDGET + 1)]
        assert run(capsys, argv)[0] == 1

    def test_sample_budget_admits_the_defaults_and_its_own_size(self):
        for command in ("prs", "prt", "ml", "sc"):
            for samples in (500, cli.SAMPLE_BUDGET):
                assert admitted(["lemmas", command, "--samples", str(samples)])
        for count in (200, cli.SAMPLE_BUDGET):
            assert admitted(["scenario", "orthogonality", "--count", str(count)])

    def test_suite_work_budget_refuses_hours_and_admits_the_usual_runs(self):
        # about 0.5 s a sample: 50,000 samples would run about 7 hours
        assert not admitted(["lemmas", "ml", "--samples", "50000", "--height", "315"])
        usual = [
            ["lemmas", command, "--samples", str(samples), *height]
            for command in ("prs", "prt", "ml", "sc")
            for samples in (500, cli.SAMPLE_BUDGET)
            for height in ([], ["--height", "8" if command in ("prs", "sc") else "5"])
        ]
        # the seeded suites of the benchmark's fixtures workload
        for command, samples, height in (
            ("ml", 10, 2), ("prt", 100, 5), ("sc", 100, 8), ("prs", 100, 8)
        ):
            usual.append(["lemmas", command, "--samples", str(samples),
                          "--seed", "12345", "--height", str(height)])
        for argv in [*usual, *map(list, CLI_GOLDEN)]:
            assert admitted(argv), argv

    @pytest.mark.parametrize("height, code", [(315, 0), (316, 1)])
    def test_suite_height_fits_the_vertex_budget(self, capsys, height, code):
        argv = ["lemmas", "prt", "--samples", "0", "--height", str(height)]
        assert run(capsys, argv)[0] == code

    def test_prs_seed_without_samples_is_rejected(self, capsys):
        code, out, err = run(capsys, ["lemmas", "prs", "--seed", "7"])
        assert code == 1
        assert out == ""
        assert "--seed" in err and "--samples" in err

    def test_prs_samples_without_seed_uses_seed_zero(self, capsys):
        argv = ["lemmas", "prs", "--samples", "10", "--height", "4"]
        _, implicit, _ = run_json(capsys, argv)
        _, explicit, _ = run_json(capsys, [*argv, "--seed", "0"])
        assert implicit == explicit
        assert implicit["seed"] == 0

    def test_suite_zero_samples_is_vacuous(self, capsys):
        code, report, _ = run_json(capsys, ["lemmas", "prt", "--samples", "0"])
        assert code == 0
        assert report["checked"] == 0


class TestScenarioCommands:
    def test_figure2_reproduces_the_gap(self, capsys):
        code, report, _ = run_json(capsys, ["scenario", "figure2"])
        assert code == 0
        assert report["reproduced"] is True
        assert report["expected_gap"] == 2
        assert report["audit"]["r"] == 1
        assert report["audit"]["best"] == 2

    def test_orthogonality(self, capsys):
        code, report, _ = run_json(
            capsys, ["scenario", "orthogonality", "--count", "6", "--seed", "0"]
        )
        assert code == 0
        assert report["passes"] == 6
        assert report["failures"] == []

    @pytest.mark.parametrize(
        "extra, flag",
        [(["--height", "0"], "--height"), (["--count", "-1"], "--count")],
    )
    def test_orthogonality_rejects_out_of_range_input(self, capsys, extra, flag):
        code, out, err = run(capsys, ["scenario", "orthogonality", *extra])
        assert code == 1
        assert out == ""
        assert f"{flag} " in err and "out of range" in err

    def test_orthogonality_refuses_a_count_over_the_budget(self, capsys):
        argv = ["scenario", "orthogonality", "--count", str(cli.SAMPLE_BUDGET + 1)]
        assert run(capsys, argv)[0] == 1

    @pytest.mark.parametrize("height, code", [(315, 0), (316, 1)])
    def test_orthogonality_height_fits_the_vertex_budget(self, capsys, height, code):
        argv = ["scenario", "orthogonality", "--count", "0", "--height", str(height)]
        assert run(capsys, argv)[0] == code

    def test_orthogonality_lists_at_most_five_failures(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "orthogonality_check", lambda v0, v1: False)
        argv = ["scenario", "orthogonality", "--count", "7"]
        code, report, _ = run_json(capsys, argv)
        assert code == 2
        assert report["pass"] is False and report["passes"] == 0
        assert [f["index"] for f in report["failures"]] == [0, 1, 2, 3, 4]
        for failure in report["failures"]:
            assert set(failure) == {"index", "system", "v0", "v1"}
        code, out, _ = run(capsys, [*argv, "--format", "text", "--no-timestamp"])
        assert code == 2
        lines = out.splitlines()
        assert "pass: False" in lines and "failures[4].index: 4" in lines
        assert not any(line.startswith("failures[5]") for line in lines)

    def test_audit_flags_the_gap_fixture(self, capsys, tmp_path):
        fixture = gap_fixture(tmp_path)
        code, report, _ = run_json(capsys, ["scenario", "audit", fixture])
        assert code == 2
        assert report["pass"] is False
        assert report["best"] == 2
        assert report["r"] == 1
        assert report["special_couples"] == 1

    def test_audit_rejects_malformed_fixture(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\"vertices\": []}")
        code, _, err = run(capsys, ["scenario", "audit", str(path)])
        assert code == 1
        assert "bad path-shadow fixture" in err

    def test_audit_rejects_a_slope_that_is_not_text(self, capsys, tmp_path):
        data = gap_fixture_data()
        assert data["vertices"][1]["data"][0] == {"in_graph": "2/1"}
        data["vertices"][1]["data"][0] = {"in_graph": 3}
        path = tmp_path / "number.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, ["scenario", "audit", str(path)])
        assert code == 1 and out == ""
        assert "bad path-shadow fixture" in err


class TestFlatsCommands:
    def test_certify_line(self, capsys):
        code, report, _ = run_json(
            capsys, ["flats", "certify", "--n", "1", "--window", "3"]
        )
        assert code == 0
        assert report["passed"] is True
        assert report["pairs_checked"] == 7 * 6 // 2

    def test_rank_closed_genus_seven(self, capsys):
        code, report, _ = run_json(
            capsys, ["flats", "rank", "--genus", "7", "--boundary", "0"]
        )
        assert code == 0
        assert report["complexity"] == 18
        assert report["max_handles"] == 9
        assert report["multicurve_size"] == 9
        assert report["has_pants"] is True
        assert report["pieces"].count("one_holed_torus") == 7
        assert report["pieces"].count("four_holed_sphere") == 2

    def test_rank_complexity_one(self, capsys):
        code, report, _ = run_json(
            capsys, ["flats", "rank", "--genus", "0", "--boundary", "4"]
        )
        assert code == 0
        assert report["complexity"] == 1
        assert report["max_handles"] == 1
        assert report["multicurve_size"] == 0
        assert report["pieces"] == ["four_holed_sphere"]

    def test_rank_rejects_degenerate_surface(self, capsys):
        code, _, err = run(
            capsys, ["flats", "rank", "--genus", "0", "--boundary", "0"]
        )
        assert code == 1

    def test_export_dot(self, capsys):
        code, out, _ = run(
            capsys,
            ["flats", "export", "--n", "1", "--window", "1", "--format", "dot"],
        )
        assert code == 0
        assert out.startswith("graph")

    def test_export_window_exceeding_lines(self, capsys):
        code, _, err = run(
            capsys, ["flats", "export", "--n", "1", "--window", "99"]
        )
        assert code == 1
        assert "--window" in err

    def test_certify_window_exceeding_lines(self, capsys):
        # line 0 covers [-5, 7]: the window fits the pair budget, not the line
        code, out, err = run(capsys, ["flats", "certify", "--n", "1", "--window", "6"])
        assert code == 1
        assert out == ""
        assert "too small" in err and "--window" in err


    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["flats", "certify", "--n", "0"], "--n"),
            (["flats", "certify", "--n", "-2"], "--n"),
            (["flats", "export", "--n", "0"], "--n"),
            (["flats", "certify", "--n", "2", "--window", "0"], "--window"),
            (["flats", "export", "--n", "2", "--window", "-1"], "--window"),
        ],
    )
    def test_flats_reject_out_of_range_input(self, capsys, argv, flag):
        code, out, err = run(capsys, argv)
        assert code == 1
        assert out == ""
        assert f"{flag} " in err and "out of range" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["flats", "certify", "--n", "4", "--window", "5"],
            ["flats", "certify", "--n", "2", "--window", "19"],
            ["flats", "certify", "--n", "1000000000", "--window", "1"],
            ["flats", "export", "--n", "12", "--window", "1"],
            ["flats", "export", "--n", "1000000000", "--window", "1"],
        ],
    )
    def test_flats_reject_costly_windows(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == 1
        assert out == ""
        assert "too costly" in err

    def test_certify_budget_admits_the_gate_and_the_defaults(self):
        for n, window in ((3, 5), (2, 18), (1, 5)):
            points = (2 * window + 1) ** n
            assert points * (points - 1) // 2 <= cli.CERTIFY_PAIR_BUDGET
        points = 11**4
        assert points * (points - 1) // 2 > cli.CERTIFY_PAIR_BUDGET


class TestPlumbing:
    def test_missing_subcommand_is_usage_error(self, capsys):
        code, _, err = run(capsys, ["farey"])
        assert code == 1

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, ["--help"])
        assert code == 0
        assert "farey" in out

    def test_bad_slope(self, capsys):
        code, _, err = run(capsys, ["farey", "distance", "x/y", "1/1"])
        assert code == 1
        assert "bad slope" in err

    def test_oversized_slope_names_the_limit_and_is_not_echoed(self, capsys):
        code, out, err = run(capsys, ["farey", "distance", "0/1", "1/" + "9" * 5000])
        assert code == 1
        assert out == ""
        assert "bad slope" in err and "integer string-conversion limit" in err
        assert err.count("9") < 200

    def test_dot_without_drawing(self, capsys):
        code, _, err = run(
            capsys, ["farey", "distance", "0/1", "1/0", "--format", "dot"]
        )
        assert code == 1
        assert "no dot rendering" in err

    def test_text_format(self, capsys):
        code, out, _ = run(
            capsys,
            ["farey", "distance", "0/1", "1/0", "--format", "text",
             "--no-timestamp"],
        )
        assert code == 0
        assert "a: 0/1" in out.splitlines()
        assert "distance: 1" in out.splitlines()

    def test_text_format_renders_an_empty_dict(self, capsys):
        argv = ["lemmas", "prt", "--samples", "0", "--format", "text", "--no-timestamp"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert "witness_kinds: {}" in out.splitlines()

    def test_consecutive_calls_share_no_defaults(self, capsys):
        argv = ["farey", "geodesics", "-1/1", "1/1"]
        _, first, _ = run_json(capsys, [*argv, "--height", "4"])
        _, second, _ = run_json(capsys, argv)
        assert first["height_bound"] == 4
        assert second["height_bound"] == 1
        assert cli.build_parser() is cli.build_parser()

    def test_timestamp_default_and_suppression(self, capsys):
        code, out, _ = run(capsys, ["farey", "distance", "0/1", "1/0"])
        assert code == 0
        assert "timestamp" in json.loads(out)
        _, report, _ = run_json(capsys, ["farey", "distance", "0/1", "1/0"])
        assert "timestamp" not in report

    def test_output_under_env_dir_is_reproducible(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(cli.ENV_OUTPUT_DIR, str(tmp_path))
        argv = [
            "farey", "ball", "0/1", "--radius", "2",
            "--output", "sub/ball.json", "--no-timestamp",
        ]
        assert cli.main(argv) == 0
        target = tmp_path / "sub" / "ball.json"
        first = target.read_bytes()
        assert cli.main(argv) == 0
        assert target.read_bytes() == first
        assert json.loads(first)["center"] == "0/1"
        capsys.readouterr()

    def test_absolute_output_ignores_env_dir(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(cli.ENV_OUTPUT_DIR, str(tmp_path / "elsewhere"))
        target = tmp_path / "direct.json"
        code = cli.main(
            ["farey", "distance", "0/1", "1/0",
             "--output", str(target), "--no-timestamp"]
        )
        assert code == 0
        assert json.loads(target.read_text())["distance"] == 1
        assert not (tmp_path / "elsewhere").exists()
        capsys.readouterr()

    @pytest.mark.parametrize("where", ["a directory", "under a file"])
    def test_unwritable_output_exits_1(self, capsys, tmp_path, where):
        (tmp_path / "taken").mkdir()
        (tmp_path / "plain").write_text("")
        target = {
            "a directory": tmp_path / "taken",
            "under a file": tmp_path / "plain" / "out.json",
        }[where]
        argv = ["farey", "distance", "0/1", "1/0", "--output", str(target)]
        code, out, err = run(capsys, argv)
        assert code == 1 and out == ""
        assert f"cannot write {target}" in err
        assert (tmp_path / "plain").read_text() == ""


# The surface of every command, written from the hand-built parser that the
# command table replaced: positional names, the default of each option
# beyond COMMON, and the required options.
COMMON = {"--format": "json", "--output": None, "--no-timestamp": False}
SUITE = {"--samples": 500, "--seed": 0, "--height": None}
SURFACE = {
    ("farey", "distance"): (["a", "b"], {}, []),
    ("farey", "geodesics"): (["a", "b"], {"--height": None}, []),
    ("farey", "ball"): (["center"], {"--radius": 2, "--height": 12}, []),
    ("farey", "check-subgraph"): (
        ["fixture"], {"--center": "0/1", "--ball-radius": 3, "--height": 12}, []
    ),
    ("lemmas", "int"): ([], {"--height": 6}, []),
    ("lemmas", "lk"): ([], {"--height": 8}, []),
    ("lemmas", "prs"): ([], {"--height": None, "--samples": None, "--seed": None}, []),
    ("lemmas", "prt"): ([], SUITE, []),
    ("lemmas", "ml"): ([], SUITE, []),
    ("lemmas", "sc"): ([], SUITE, []),
    ("scenario", "figure2"): ([], {}, []),
    ("scenario", "orthogonality"): (
        [], {"--count": 200, "--seed": 0, "--height": 6}, []
    ),
    ("scenario", "audit"): (["fixture"], {}, []),
    ("flats", "certify"): ([], {"--n": None, "--window": 5}, ["--n"]),
    ("flats", "rank"): (
        [], {"--genus": None, "--boundary": None}, ["--genus", "--boundary"]
    ),
    ("flats", "export"): ([], {"--n": 2, "--window": 2}, []),
}


def _subparsers(parser):
    (action,) = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return action.choices


def test_parser_surface_is_pinned():
    found = {}
    for group, group_parser in _subparsers(cli.build_parser()).items():
        for name, parser in _subparsers(group_parser).items():
            actions = [a for a in parser._actions if a.dest != "help"]
            positionals = [a.dest for a in actions if not a.option_strings]
            options = {s: a.default for a in actions for s in a.option_strings}
            required = [s for a in actions if a.required for s in a.option_strings]
            found[group, name] = (positionals, options, required)
    assert found == {
        key: (positionals, {**COMMON, **options}, required)
        for key, (positionals, options, required) in SURFACE.items()
    }


# Each budget of the command table, keyed by (group, command, limit): the
# argv tail of its largest admitted input and of its smallest refused one.
FIXTURE = "<fixture>"
V, W, S = cli.GRAPH_VERTEX_BUDGET, cli.WORK_BUDGET, cli.SAMPLE_BUDGET
BUDGET_EDGES = {
    # [0; 2, ..., 2] with 18 and 19 twos
    ("farey", "geodesics", V): (["1/0", "2744210/6625109"], ["1/0", "6625109/15994428"]),
    ("farey", "ball", V): (["0/1", "--height", "315"], ["0/1", "--height", "316"]),
    ("farey", "check-subgraph", V): (
        [FIXTURE, "--height", "315"], [FIXTURE, "--height", "316"]
    ),
    ("lemmas", "int", W): (["--height", "30"], ["--height", "31"]),
    ("lemmas", "lk", W): (["--height", "60"], ["--height", "61"]),
    ("lemmas", "prs", W): (["--height", "27"], ["--height", "28"]),
    **{
        ("lemmas", command, S): (["--samples", str(S)], ["--samples", str(S + 1)])
        for command in ("prs", "prt", "ml", "sc")
    },
    **{
        ("lemmas", command, V): (
            ["--samples", "0", "--height", "315"], ["--samples", "0", "--height", "316"]
        )
        for command in ("prs", "prt", "ml", "sc")
    },
    ("lemmas", "ml", W): (
        ["--samples", "100", "--height", "315"], ["--samples", "101", "--height", "315"]
    ),
    ("scenario", "orthogonality", S): (["--count", str(S)], ["--count", str(S + 1)]),
    ("scenario", "orthogonality", V): (
        ["--count", "0", "--height", "315"], ["--count", "0", "--height", "316"]
    ),
    ("flats", "certify", cli.CERTIFY_PAIR_BUDGET): (
        ["--n", "3", "--window", "5"], ["--n", "3", "--window", "6"]
    ),
    ("flats", "export", V): (["--n", "11", "--window", "1"], ["--n", "12", "--window", "1"]),
    ("flats", "rank", V): (
        ["--genus", "133334", "--boundary", "0"], ["--genus", "133335", "--boundary", "0"]
    ),
}


EDGE_IDS = ["-".join(map(str, key)) for key in BUDGET_EDGES]


def _edge_argv(key, tail, tmp_path):
    group, command, _ = key
    fixture = triangle_fixture(tmp_path) if FIXTURE in tail else None
    return [group, command, *(fixture if a == FIXTURE else a for a in tail)]


@pytest.mark.parametrize("key", BUDGET_EDGES, ids=EDGE_IDS)
def test_largest_admitted_input_fits_its_budget(key, tmp_path):
    argv = _edge_argv(key, BUDGET_EDGES[key][0], tmp_path)
    found = costs(argv)
    assert key[2] in [limit for _, _, limit in found]
    assert all(cost <= limit for _, cost, limit in found)


@pytest.mark.parametrize("key", BUDGET_EDGES, ids=EDGE_IDS)
def test_smallest_refused_input_exits_1_before_any_work(key, capsys, tmp_path):
    argv = _edge_argv(key, BUDGET_EDGES[key][1], tmp_path)
    assert [limit for _, cost, limit in costs(argv) if cost > limit] == [key[2]]
    assert run(capsys, argv)[0] == 1


def test_every_budget_in_the_table_has_its_edges(tmp_path):
    for command in cli.COMMANDS:
        keys = {k for k in BUDGET_EDGES if k[:2] == (command.group, command.name)}
        assert bool(keys) == (command.cost is not cli.Command.cost), command.name
        limits = {
            limit
            for key in keys
            for tail in BUDGET_EDGES[key]
            for _, _, limit in costs(_edge_argv(key, tail, tmp_path))
        }
        assert limits == {limit for _, _, limit in keys}, command.name


# Each declared floor of the command table: the value just below it is
# refused with exit 1 before anything runs.
FLOORS = [
    (command, arg)
    for command in cli.COMMANDS
    for arg in command.args
    if arg.floor is not None
]


def _below_floor_argv(command, arg, tmp_path):
    argv = [command.group, command.name]
    for other in command.args:
        if not other.name.startswith("-"):
            argv.append(triangle_fixture(tmp_path) if other.type is str else "0/1")
        elif other.required and other is not arg:
            argv += [other.name, str(other.floor)]
    return [*argv, arg.name, str(arg.floor - 1)]


@pytest.mark.parametrize(
    "command, arg",
    FLOORS,
    ids=[f"{c.group}-{c.name}-{a.name.lstrip('-')}" for c, a in FLOORS],
)
def test_value_below_each_floor_exits_1(command, arg, capsys, tmp_path):
    code, out, err = run(capsys, _below_floor_argv(command, arg, tmp_path))
    assert code == 1 and out == ""
    want = f"{arg.name} {arg.floor - 1} is out of range: it must be >= {arg.floor}"
    assert want in err


def test_every_height_option_has_a_floor():
    heights = [
        (command.group, command.name, arg.floor)
        for command in cli.COMMANDS
        for arg in command.args
        if arg.name == "--height"
    ]
    assert ("farey", "ball", 1) in heights
    assert all(floor == 1 for _, _, floor in heights)
