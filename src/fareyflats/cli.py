"""Command-line front end for the toolkit.

Subcommand groups:

* ``farey``    -- distance, geodesic, and ball queries on slopes, plus
                  convexity/total-geodesy checks of subgraph fixtures.
* ``lemmas``   -- the exhaustive sweeps and seeded fixture suites.
* ``scenario`` -- the two-piece projection gap reproduction, orthogonality
                  fixtures, and path-shadow audits.
* ``flats``    -- window certification of lattice flats, piece-count
                  arithmetic, and exports.

JSON is the canonical output; ``--format text`` renders the same data as
indented lines, and ``--format dot`` emits Graphviz where a command has a
drawing (balls and flats).  Identical invocations produce identical bytes
once ``--no-timestamp`` is passed.  Exit codes: 0 when the command's
checks pass, 2 when a verified property fails (the report carries the
witness), 1 on usage or input errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import re
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from math import gcd
from pathlib import Path
from typing import Sequence

from . import flats, sweeps
from .flats import SurfaceDesc, certify_flat, default_embedding, flat_to_dot
from .geodesics import Subgraph, build_ball, check_subgraph, geodesic_count, geodesics
from .orbifold import PieceKind
from .shadows import (
    HandleSystem,
    PathShadow,
    audit_projection_bound,
    detect_special_couples,
    orthogonality_check,
    projection_gap_scenario,
    random_orthogonal_pair,
)
from .slopes import Slope, distance

ENV_OUTPUT_DIR = "FAREYFLATS_OUTPUT_DIR"

# The truncation at height H has at most 1 + H*(2H + 1) vertices (1/0 and
# every p/q with |p| <= H, 1 <= q <= H).  Commands that build one, and the
# seeded suites that draw from the same slopes, refuse a height whose bound
# exceeds this budget (H = 315 is the largest accepted).  ``farey geodesics``
# lists count * (length + 1) slopes, and refuses a pair that would list more.
GRAPH_VERTEX_BUDGET = 200_000

# ``flats certify`` checks every pair of the (2w + 1)^n points of its window;
# it refuses more pairs than this (n = 3 at window 5 has 885,115 pairs, n = 4
# at window 5 has over 10^8).  ``flats export`` draws the window's grid and
# refuses more than GRAPH_VERTEX_BUDGET points.
CERTIFY_PAIR_BUDGET = 1_000_000

# The exhaustive ``lemmas int``, ``lk`` and ``prs`` sweeps visit every pair of
# objects built from the n slopes of height <= H: int pairs n arcs (torus)
# and 2n seams (sphere) with each other and with the n curves, lk pairs the
# n torus arcs, and prs pairs the 2n seams with n curves, 2n seams and 4n
# waves.  A height whose pair count exceeds this budget is refused (int
# admits H <= 18, lk H <= 33, prs H <= 14; int costs about 65 us a pair).
SWEEP_PAIR_BUDGET = 1_000_000
SWEEP_PAIRS = {
    "int": lambda n: n * (n - 1) // 2 + n * n + n * (2 * n - 1) + 2 * n * n,
    "lk": lambda n: n * (n - 1) // 2,
    "prs": lambda n: 14 * n * n,
}

# The seeded suites (``lemmas prs|prt|ml|sc --samples``, ``scenario
# orthogonality --count``) refuse more samples than this.  The costliest at
# its default height is ``lemmas ml``, about 1.2 ms a sample, so the budget
# runs about a minute; the height cap above bounds a sample's cost, which at
# height 315 reaches about 0.9 s for ``lemmas ml``.
SAMPLE_BUDGET = 50_000


class CliError(Exception):
    """Bad usage or bad input; maps to exit code 1."""


@dataclass
class Result:
    report: dict
    passed: bool = True
    dot: str | None = None


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract reserves 2 for
    property failures, so remap usage problems to exit code 1.  The
    widened negative-number matcher lets slopes like -1/1 stand as
    positional arguments."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-\d+(/\d+)?$|^-\d*\.\d+$"
        )

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(f"{self.prog}: error: {message}") from None

    def exit(self, status=0, message=None):
        if message:
            sys.stderr.write(message if message.endswith("\n") else message + "\n")
        raise SystemExit(1 if status else 0)


def _slope(text: str) -> Slope:
    try:
        return Slope.parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"bad slope {text!r}: {exc}") from None


def _at_least(flag: str, value: int, low: int) -> int:
    """The value of a numeric flag, once it is known to be at least low."""
    if value < low:
        raise CliError(f"{flag} {value} is out of range: it must be >= {low}")
    return value


def _sample_count(flag: str, value: int) -> int:
    """The number of seeded samples, once it is known to fit the budget."""
    if not 0 <= value <= SAMPLE_BUDGET:
        raise CliError(
            f"{flag} {value} is out of range: it must be >= 0 and "
            f"at most {SAMPLE_BUDGET}"
        )
    return value


def _sweep_height(command: str, height: int) -> int:
    """The height, once the sweep's pair count is known to fit the budget.

    The pool gains 4*phi(k) slopes at height k, so its size is summed up
    from height 1 and the count stops at the first height past the budget,
    whatever height was asked.
    """
    _at_least("--height", height, 1)
    n = 0
    for k in range(1, height + 1):
        n += 4 * sum(1 for j in range(1, k + 1) if gcd(j, k) == 1)
        if SWEEP_PAIRS[command](n) > SWEEP_PAIR_BUDGET:
            raise CliError(
                f"--height {height} is out of range: the {command} sweep "
                f"visits more than {SWEEP_PAIR_BUDGET} pairs above height {k - 1}"
            )
    return height


def _load_json(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise CliError(f"{path} is not valid JSON: {exc}") from None


# ---------------------------------------------------------------------------
# farey group


def _cmd_farey_distance(args) -> Result:
    a, b = _slope(args.a), _slope(args.b)
    return Result({"a": str(a), "b": str(b), "distance": distance(a, b)})


def _cmd_farey_geodesics(args) -> Result:
    a, b = _slope(args.a), _slope(args.b)
    cover = max(a.height, b.height)
    height = cover if args.height is None else _at_least("--height", args.height, 1)
    if height < cover:
        raise CliError("--height must cover both endpoints")
    count = geodesic_count(a, b)
    listed = count * (distance(a, b) + 1)
    if listed > GRAPH_VERTEX_BUDGET:
        raise CliError(
            f"{a} and {b} are joined by {count} geodesics, {listed} slopes in "
            f"all; at most {GRAPH_VERTEX_BUDGET} are listed"
        )
    return Result(geodesics(a, b, height).to_json_dict())


def _bounded_height(height: int) -> int:
    """The height, once the slopes up to it are known to fit the budget.

    Graph commands build the truncation at this height and the seeded
    suites draw from the pool of its slopes; both hold 1 + H*(2H + 1)
    slopes at most.
    """
    bound = 1 + height * (2 * height + 1)
    if height < 1 or bound > GRAPH_VERTEX_BUDGET:
        raise CliError(
            f"--height {height} is out of range: it must be >= 1, with at "
            f"most {GRAPH_VERTEX_BUDGET} slopes up to it"
        )
    return height


def _cmd_farey_ball(args) -> Result:
    center = _slope(args.center)
    height = _bounded_height(max(args.height, center.height))
    ball = build_ball(center, _at_least("--radius", args.radius, 0), height)
    return Result(ball.to_json_dict(), dot=ball.to_dot())


def _cmd_farey_check_subgraph(args) -> Result:
    data = _load_json(args.fixture)
    try:
        sub = Subgraph.from_json_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"bad subgraph fixture: {exc}") from None
    center = _slope(args.center)
    radius = _at_least("--ball-radius", args.ball_radius, 0)
    height = _bounded_height(args.height)
    if center.height > height:
        raise CliError("--height must cover the center")
    host = build_ball(center, radius, height)
    stray = set(sub.vertices) - set(host.vertices)
    if stray:
        raise CliError(
            "subgraph vertices outside the host ball "
            f"(e.g. {next(iter(stray))}); raise --ball-radius or --height"
        )
    report = check_subgraph(sub, host)
    return Result(report, passed=report["passed"])


# ---------------------------------------------------------------------------
# lemmas group


def _cmd_lemmas_int(args) -> Result:
    report = sweeps.identity_sweep(_sweep_height("int", args.height))
    return Result(report, passed=report["pass"])


def _cmd_lemmas_lk(args) -> Result:
    report = sweeps.linking_sweep(_sweep_height("lk", args.height))
    return Result(report, passed=report["pass"])


def _suite_command(driver, default_height):
    def run(args) -> Result:
        height = default_height if args.height is None else args.height
        report = driver(
            samples=_sample_count("--samples", args.samples),
            seed=0 if args.seed is None else args.seed,
            height=_bounded_height(height),
        )
        return Result(report, passed=report["pass"])

    return run


def _cmd_lemmas_prs(args) -> Result:
    if args.samples is not None:
        return _suite_command(sweeps.disjoint_projection_suite, 8)(args)
    if args.seed is not None:
        raise CliError(
            "--seed only applies to the seeded suite, which --samples N "
            "selects; without --samples, prs runs the exhaustive sweep"
        )
    report = sweeps.disjoint_projection_sweep(
        _sweep_height("prs", 4 if args.height is None else args.height)
    )
    return Result(report, passed=report["pass"])


_cmd_lemmas_prt = _suite_command(sweeps.torus_move_suite, 5)
_cmd_lemmas_ml = _suite_command(sweeps.sphere_move_suite, 5)
_cmd_lemmas_sc = _suite_command(sweeps.couple_trace_suite, 8)


# ---------------------------------------------------------------------------
# scenario group


def _cmd_scenario_figure2(args) -> Result:
    path, audit = projection_gap_scenario()
    reproduced = (
        audit["r"] == 1
        and audit["best"] == 2
        and not audit["pass"]
        and audit["special_couple"]
        and audit["without_far_trace"] == 2
        and audit["disjoint_control"] <= 1
    )
    report = {
        "scenario": "figure2",
        "reproduced": reproduced,
        "expected_gap": 2,
        "audit": audit,
        "path": path.to_json_dict(),
    }
    return Result(report, passed=reproduced)


def _cmd_scenario_orthogonality(args) -> Result:
    count = _sample_count("--count", args.count)
    height = _bounded_height(args.height)
    rng = random.Random(args.seed)
    systems = (
        HandleSystem(
            SurfaceDesc(0, 6),
            (PieceKind.FOUR_HOLED_SPHERE, PieceKind.FOUR_HOLED_SPHERE),
        ),
        HandleSystem(
            SurfaceDesc(2, 2),
            (
                PieceKind.ONE_HOLED_TORUS,
                PieceKind.ONE_HOLED_TORUS,
                PieceKind.FOUR_HOLED_SPHERE,
            ),
        ),
    )
    passes = 0
    failures = []
    for k in range(count):
        system = systems[k % len(systems)]
        v0, v1 = random_orthogonal_pair(system, rng, height=height)
        if orthogonality_check(v0, v1):
            passes += 1
        elif len(failures) < 5:
            failures.append(
                {
                    "index": k,
                    "system": system.to_json_dict(),
                    "v0": v0.to_json_dict(),
                    "v1": v1.to_json_dict(),
                }
            )
    report = {
        "scenario": "orthogonality",
        "count": args.count,
        "seed": args.seed,
        "passes": passes,
        "pass": passes == args.count,
        "failures": failures,
    }
    return Result(report, passed=report["pass"])


def _cmd_scenario_audit(args) -> Result:
    try:
        path = PathShadow.from_json_dict(_load_json(args.fixture))
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"bad path-shadow fixture: {exc}") from None
    report = audit_projection_bound(path)
    report["scenario"] = "audit"
    report["fixture"] = args.fixture
    report["special_couples"] = len(detect_special_couples(path))
    return Result(report, passed=report["pass"])


# ---------------------------------------------------------------------------
# flats group


def _window_points(args, cap: int) -> int:
    """The (2*window + 1)^n points of the flat's window, or cap + 1 once
    the count passes cap (so a huge --n costs nothing)."""
    _at_least("--n", args.n, 1)
    _at_least("--window", args.window, 1)
    points = 1
    for _ in range(args.n):
        points *= 2 * args.window + 1
        if points > cap:
            return cap + 1
    return points


def _cmd_flats_certify(args) -> Result:
    points = _window_points(args, CERTIFY_PAIR_BUDGET)
    if points * (points - 1) // 2 > CERTIFY_PAIR_BUDGET:
        raise CliError(
            f"--n {args.n} with --window {args.window} is too costly: "
            f"certifying checks every pair of the window's points, and more "
            f"than {CERTIFY_PAIR_BUDGET} pairs are refused"
        )
    emb = default_embedding(args.n)
    try:
        report = certify_flat(emb, args.window)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    return Result(report, passed=report["passed"])


def _cmd_flats_rank(args) -> Result:
    try:
        surface = SurfaceDesc(args.genus, args.boundary)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    template = flats.decompose_template(surface)
    handles = flats.max_handles(surface)
    return Result(
        {
            "genus": surface.genus,
            "boundary": surface.boundary,
            "complexity": surface.complexity,
            "max_handles": handles,
            "pieces": [k.value for k in template.piece_kinds()],
            "has_pants": template.has_pants,
            "multicurve_size": surface.complexity - handles,
        }
    )


def _cmd_flats_export(args) -> Result:
    if _window_points(args, GRAPH_VERTEX_BUDGET) > GRAPH_VERTEX_BUDGET:
        raise CliError(
            f"--n {args.n} with --window {args.window} is too costly: the "
            f"window's grid has more than {GRAPH_VERTEX_BUDGET} points"
        )
    emb = default_embedding(args.n)
    for idx, line in enumerate(emb.lines):
        if line.lo > -args.window or line.hi < args.window:
            raise CliError(
                f"line {idx} only covers [{line.lo}, {line.hi}]; "
                "shrink --window"
            )
    report = {
        "rank": emb.rank,
        "window": args.window,
        "lines": [line.to_json_dict() for line in emb.lines],
    }
    return Result(report, dot=flat_to_dot(emb, args.window))


# ---------------------------------------------------------------------------
# plumbing


def _render_text(value, prefix: str) -> list[str]:
    if isinstance(value, dict):
        if not value:
            return [f"{prefix}: {{}}"]
        out = []
        for key in sorted(value):
            out.extend(_render_text(value[key], f"{prefix}.{key}" if prefix else str(key)))
        return out
    if isinstance(value, (list, tuple)):
        if all(not isinstance(v, (dict, list, tuple)) for v in value):
            return [f"{prefix}: [{', '.join(str(v) for v in value)}]"]
        out = []
        for i, v in enumerate(value):
            out.extend(_render_text(v, f"{prefix}[{i}]"))
        return out
    return [f"{prefix}: {value}"]


def _destination(args) -> Path | None:
    if args.output is None:
        return None
    path = Path(args.output)
    base = os.environ.get(ENV_OUTPUT_DIR)
    if base and not path.is_absolute():
        path = Path(base) / path
    return path


def _emit(args, result: Result) -> None:
    if args.format == "dot":
        if result.dot is None:
            raise CliError("this command has no dot rendering")
        payload = result.dot
    else:
        report = dict(result.report)
        if not args.no_timestamp:
            report["timestamp"] = datetime.now(timezone.utc).isoformat(
                timespec="seconds"
            )
        if args.format == "json":
            payload = json.dumps(report, indent=2, sort_keys=True) + "\n"
        else:
            payload = "\n".join(_render_text(report, "")) + "\n"
    dest = _destination(args)
    if dest is None:
        sys.stdout.write(payload)
    else:
        dest.parent.mkdir(parents=True, exist_ok=True)
        dest.write_text(payload)


def _common_flags() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("json", "text", "dot"),
        default="json",
        help="output format (default json; dot only for drawings)",
    )
    common.add_argument(
        "--output",
        metavar="PATH",
        help=f"write to PATH instead of stdout; relative paths resolve "
        f"under ${ENV_OUTPUT_DIR} when set",
    )
    common.add_argument(
        "--no-timestamp",
        action="store_true",
        help="omit the timestamp field for byte-identical reruns",
    )
    return common


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args leaves it unchanged."""
    common = _common_flags()
    parser = _Parser(prog="fareyflats", description=__doc__.splitlines()[0])
    groups = parser.add_subparsers(dest="group", required=True)

    farey = groups.add_parser("farey", help="slope graph queries")
    fsub = farey.add_subparsers(dest="command", required=True)

    p = fsub.add_parser("distance", parents=[common])
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(handler=_cmd_farey_distance)

    p = fsub.add_parser("geodesics", parents=[common])
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--height", type=int, default=None)
    p.set_defaults(handler=_cmd_farey_geodesics)

    p = fsub.add_parser("ball", parents=[common])
    p.add_argument("center")
    p.add_argument("--radius", type=int, default=2)
    p.add_argument("--height", type=int, default=12)
    p.set_defaults(handler=_cmd_farey_ball)

    p = fsub.add_parser("check-subgraph", parents=[common])
    p.add_argument("fixture", help="subgraph JSON file")
    p.add_argument("--center", default="0/1")
    p.add_argument("--ball-radius", type=int, default=3)
    p.add_argument("--height", type=int, default=12)
    p.set_defaults(handler=_cmd_farey_check_subgraph)

    lemmas = groups.add_parser("lemmas", help="sweeps and fixture suites")
    lsub = lemmas.add_subparsers(dest="command", required=True)

    p = lsub.add_parser("int", parents=[common])
    p.add_argument("--height", type=int, default=6)
    p.set_defaults(handler=_cmd_lemmas_int)

    p = lsub.add_parser("lk", parents=[common])
    p.add_argument("--height", type=int, default=8)
    p.set_defaults(handler=_cmd_lemmas_lk)

    p = lsub.add_parser("prs", parents=[common])
    p.add_argument("--height", type=int, default=None)
    p.add_argument(
        "--samples",
        type=int,
        default=None,
        help="switch from the exhaustive sweep to the seeded suite",
    )
    p.add_argument(
        "--seed",
        type=int,
        default=None,
        help="seed of the suite (default 0); needs --samples",
    )
    p.set_defaults(handler=_cmd_lemmas_prs)

    for name, handler in (
        ("prt", _cmd_lemmas_prt),
        ("ml", _cmd_lemmas_ml),
        ("sc", _cmd_lemmas_sc),
    ):
        p = lsub.add_parser(name, parents=[common])
        p.add_argument("--samples", type=int, default=500)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--height", type=int, default=None)
        p.set_defaults(handler=handler)

    scenario = groups.add_parser("scenario", help="reproductions and audits")
    ssub = scenario.add_subparsers(dest="command", required=True)

    p = ssub.add_parser("figure2", parents=[common])
    p.set_defaults(handler=_cmd_scenario_figure2)

    p = ssub.add_parser("orthogonality", parents=[common])
    p.add_argument("--count", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--height", type=int, default=6)
    p.set_defaults(handler=_cmd_scenario_orthogonality)

    p = ssub.add_parser("audit", parents=[common])
    p.add_argument("fixture", help="path-shadow JSON file")
    p.set_defaults(handler=_cmd_scenario_audit)

    flats_group = groups.add_parser("flats", help="lattice flats")
    flsub = flats_group.add_subparsers(dest="command", required=True)

    p = flsub.add_parser("certify", parents=[common])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--window", type=int, default=5)
    p.set_defaults(handler=_cmd_flats_certify)

    p = flsub.add_parser("rank", parents=[common])
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--boundary", type=int, required=True)
    p.set_defaults(handler=_cmd_flats_rank)

    p = flsub.add_parser("export", parents=[common])
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--window", type=int, default=2)
    p.set_defaults(handler=_cmd_flats_export)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            sys.stderr.write(exc.code + "\n")
            return 1
        return exc.code or 0
    try:
        result = args.handler(args)
        _emit(args, result)
    except CliError as exc:
        sys.stderr.write(f"fareyflats: error: {exc}\n")
        return 1
    return 0 if result.passed else 2


if __name__ == "__main__":
    sys.exit(main())
