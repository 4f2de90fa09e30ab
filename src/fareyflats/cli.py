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
from typing import Callable, Iterable, Sequence

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
from .slopes import Slope, distance, excerpt

ENV_OUTPUT_DIR = "FAREYFLATS_OUTPUT_DIR"

# The truncation at height H has at most 1 + H*(2H + 1) vertices (1/0 and
# every p/q with |p| <= H, 1 <= q <= H).  Commands that build one, and the
# seeded suites that draw from the same slopes, refuse a height whose bound
# exceeds this budget (H = 315 is the largest accepted).  ``farey geodesics``
# lists count * (length + 1) slopes, ``flats export`` draws the window's
# grid and ``flats rank`` lists max_handles pieces; each refuses more.
GRAPH_VERTEX_BUDGET = 200_000

# ``flats certify`` checks every pair of the (2w + 1)^n points of its window;
# it refuses more pairs than this (n = 3 at window 5 has 885,115 pairs).
CERTIFY_PAIR_BUDGET = 1_000_000

# The seeded suites (``lemmas prs|prt|ml|sc --samples``, ``scenario
# orthogonality --count``) refuse more samples than this.
SAMPLE_BUDGET = 50_000

# The exhaustive sweeps and the ml suite model a run as its units of work
# times the us a unit took (the highest of 3 or more in-process runs at the
# small inputs named below, rounded up; 2-vCPU machine, Python 3.11.7) and
# refuse a run modelled past 100 s.  The largest admitted runs took 46-96 s.
WORK_BUDGET = 100_000_000

# command -> (driver in sweeps, pairs it visits among the n slopes of height
# <= H, us a pair).  int pairs n arcs (torus) and 2n seams (sphere) with each
# other and with the n curves, lk pairs the n torus arcs, and prs pairs the 2n
# seams with n curves, 2n seams and 4n waves.  int and prs count every pair of
# a piece on one realization context, so a pair costs a little more as the
# objects grow in number and size, yet less than at the small inputs: a pair
# took 7.5-12.4 us for int (heights 6, 8 and 12) and 7.1-8.0 us at 20 and 24,
# 7.8-9.7 us for lk (8, 12), and 3.4-7.0 us for prs (4, 6 and 10) and 3.7 us at
# 18 and 22.
SWEEPS = {
    "int": ("identity_sweep",
            lambda n: n * (n - 1) // 2 + n * n + n * (2 * n - 1) + 2 * n * n, 13),
    "lk": ("linking_sweep", lambda n: n * (n - 1) // 2, 10),
    "prs": ("disjoint_projection_sweep", lambda n: 14 * n * n, 8),
}
# command -> (driver in sweeps, default --height, us a sample over the N =
# 1 + H(2H + 1) slopes up to H, or None).  An ml sample took 0.5-1.4, 3.1-3.5
# and 18-25 ms at heights 5, 20 and 80.  The other suites and ``scenario
# orthogonality`` have no model: under 0.4 ms a sample up to height 315 (sc,
# which solves for its mates, 0.08-0.10 ms), 20 s at SAMPLE_BUDGET.
SUITES = {
    "prs": ("disjoint_projection_suite", 8, None),
    "prt": ("torus_move_suite", 5, None),
    "ml": ("sphere_move_suite", 5, lambda n: 1_100 + 5 * n),
    "sc": ("couple_trace_suite", 8, None),
}


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
        raise argparse.ArgumentTypeError(f"bad slope {excerpt(text)}: {exc}") from None


def _fixture(path: str, parse, what: str):
    """What parse builds from the JSON fixture at path."""
    try:
        return parse(json.loads(Path(path).read_text()))
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise CliError(f"{path} is not valid JSON: {exc}") from None
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"bad {what} fixture: {exc}") from None


def _height(args, default: int) -> int:
    return default if args.height is None else args.height


# ---------------------------------------------------------------------------
# handlers: the mathematics of each command, once main has checked its input


def _cmd_farey_distance(args) -> Result:
    a, b = args.a, args.b
    return Result({"a": str(a), "b": str(b), "distance": distance(a, b)})


def _cmd_farey_geodesics(args) -> Result:
    a, b = args.a, args.b
    cover = max(a.height, b.height)
    height = _height(args, cover)
    if height < cover:
        raise CliError("--height must cover both endpoints")
    return Result(geodesics(a, b, height).to_json_dict())


def _cmd_farey_ball(args) -> Result:
    ball = build_ball(args.center, args.radius, max(args.height, args.center.height))
    return Result(ball.to_json_dict(), dot=ball.to_dot())


def _cmd_farey_check_subgraph(args) -> Result:
    sub = _fixture(args.fixture, Subgraph.from_json_dict, "subgraph")
    if args.center.height > args.height:
        raise CliError("--height must cover the center")
    host = build_ball(args.center, args.ball_radius, args.height)
    try:
        report = check_subgraph(sub, host)
    except ValueError as exc:
        raise CliError(f"{exc}; raise --ball-radius or --height") from None
    return Result(report, passed=report["passed"])


def _cmd_lemmas(args) -> Result:
    if vars(args).get("samples") is None:  # int, lk, and prs without --samples
        if vars(args).get("seed") is not None:
            raise CliError(
                "--seed only applies to the seeded suite, which --samples N "
                "selects; without --samples, prs runs the exhaustive sweep"
            )
        report = getattr(sweeps, SWEEPS[args.command][0])(_height(args, 4))
    else:
        driver, height, _ = SUITES[args.command]
        seed = 0 if args.seed is None else args.seed
        report = getattr(sweeps, driver)(args.samples, seed, _height(args, height))
    return Result(report, passed=report["pass"])


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
    for k in range(args.count):
        system = systems[k % len(systems)]
        v0, v1 = random_orthogonal_pair(system, rng, height=args.height)
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
    path = _fixture(args.fixture, PathShadow.from_json_dict, "path-shadow")
    report = audit_projection_bound(path)
    report["scenario"] = "audit"
    report["fixture"] = args.fixture
    report["special_couples"] = len(detect_special_couples(path))
    return Result(report, passed=report["pass"])


def _cmd_flats_certify(args) -> Result:
    emb = default_embedding(args.n)
    try:
        report = certify_flat(emb, args.window)
    except ValueError as exc:
        raise CliError(f"{exc}; shrink --window") from None
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
    emb = default_embedding(args.n)
    try:
        dot = flat_to_dot(emb, args.window)
    except ValueError as exc:
        raise CliError(f"{exc}; shrink --window") from None
    report = {
        "rank": emb.rank,
        "window": args.window,
        "lines": [line.to_json_dict() for line in emb.lines],
    }
    return Result(report, dot=dot)


# ---------------------------------------------------------------------------
# the command table: each cost yields (what, cost, limit) for main to check


def _pool(height: int) -> int:
    return 1 + height * (2 * height + 1)


def _height_cost(height: int):
    yield f"--height {height} (slopes up to it)", _pool(height), GRAPH_VERTEX_BUDGET


def _geodesics_cost(args):
    count = geodesic_count(args.a, args.b)
    what = f"{args.a} and {args.b} (slopes on their {count} geodesics)"
    yield what, count * (distance(args.a, args.b) + 1), GRAPH_VERTEX_BUDGET


def _lemmas_cost(args):
    """A sweep (int, lk, and prs without --samples) models the work of its
    pairs as the pool gains 4*phi(k) slopes at height k, stopping at the first
    height past the budget, whatever height was asked.  A suite counts samples."""
    if vars(args).get("samples") is None:
        _, pairs, per_pair = SWEEPS[args.command]
        height = _height(args, 4)
        n = work = 0
        for k in range(1, height + 1):
            n += 4 * sum(1 for j in range(1, k + 1) if gcd(j, k) == 1)
            work = pairs(n) * per_pair
            if work > WORK_BUDGET:
                break
        yield f"--height {height} (modelled us of work)", work, WORK_BUDGET
        return
    _, height, per_sample = SUITES[args.command]
    yield from _suite_cost("--samples", args.samples, _height(args, height), per_sample)


def _suite_cost(flag: str, samples: int, height: int, per_sample=None):
    yield f"{flag} {samples} (samples)", samples, SAMPLE_BUDGET
    yield from _height_cost(height)
    if per_sample:
        what = f"{flag} {samples} at --height {height} (modelled us of work)"
        yield what, samples * per_sample(_pool(height)), WORK_BUDGET


def _flat_cost(args):
    """The window holds (2w + 1)^n points; past n = 20 it holds more than
    every budget (3^20 > 10^9), so a huge --n costs nothing."""
    points = (2 * args.window + 1) ** min(args.n, 20)
    what = f"--n {args.n} with --window {args.window}"
    if args.command == "export":
        yield f"{what} (grid points)", points, GRAPH_VERTEX_BUDGET
    else:
        pairs = points * (points - 1) // 2
        yield f"{what} (pairs of window points)", pairs, CERTIFY_PAIR_BUDGET


def _rank_cost(args):
    what = f"--genus {args.genus} with --boundary {args.boundary} (pieces listed)"
    pieces = (3 * args.genus + args.boundary - 2) // 2  # flats.max_handles
    yield what, pieces, GRAPH_VERTEX_BUDGET


@dataclass(frozen=True)
class Arg:
    """A positional or an option; an option set below its floor is refused."""

    name: str
    default: object = None
    floor: int | None = None
    type: Callable = int
    help: str | None = None
    required: bool = False


@dataclass(frozen=True)
class Command:
    group: str
    name: str
    handler: Callable[[argparse.Namespace], Result]
    args: tuple[Arg, ...] = ()
    cost: Callable[[argparse.Namespace], Iterable[tuple]] = lambda args: ()


OUTPUT_FLAGS = {  # taken by every command
    "--format": {"choices": ("json", "text", "dot"), "default": "json",
                 "help": "output format (default json; dot only for drawings)"},
    "--output": {"metavar": "PATH", "help": "write to PATH instead of stdout; relative "
                 f"paths resolve under ${ENV_OUTPUT_DIR} when set"},
    "--no-timestamp": {"action": "store_true",
                       "help": "omit the timestamp field for byte-identical reruns"},
}
GROUPS = {"farey": "slope graph queries", "lemmas": "sweeps and fixture suites",
          "scenario": "reproductions and audits", "flats": "lattice flats"}
_AB = (Arg("a", type=_slope), Arg("b", type=_slope))
_HEIGHT = Arg("--height", floor=1)
_SUITE = (Arg("--samples", 500, 0), Arg("--seed", 0), _HEIGHT)
_PRS = (_HEIGHT,
        Arg("--samples", None, 0,
            help="switch from the exhaustive sweep to the seeded suite"),
        Arg("--seed", help="seed of the suite (default 0); needs --samples"))
COMMANDS = (
    Command("farey", "distance", _cmd_farey_distance, _AB),
    Command("farey", "geodesics", _cmd_farey_geodesics,
            (*_AB, _HEIGHT), _geodesics_cost),
    Command("farey", "ball", _cmd_farey_ball,
            (Arg("center", type=_slope), Arg("--radius", 2, 0), Arg("--height", 12, 1)),
            lambda args: _height_cost(max(args.height, args.center.height))),
    Command("farey", "check-subgraph", _cmd_farey_check_subgraph,
            (Arg("fixture", type=str, help="subgraph JSON file"),
             Arg("--center", "0/1", type=_slope), Arg("--ball-radius", 3, 0),
             Arg("--height", 12, 1)),
            lambda args: _height_cost(args.height)),
    Command("lemmas", "int", _cmd_lemmas, (Arg("--height", 6, 1),), _lemmas_cost),
    Command("lemmas", "lk", _cmd_lemmas, (Arg("--height", 8, 1),), _lemmas_cost),
    Command("lemmas", "prs", _cmd_lemmas, _PRS, _lemmas_cost),
    Command("lemmas", "prt", _cmd_lemmas, _SUITE, _lemmas_cost),
    Command("lemmas", "ml", _cmd_lemmas, _SUITE, _lemmas_cost),
    Command("lemmas", "sc", _cmd_lemmas, _SUITE, _lemmas_cost),
    Command("scenario", "figure2", _cmd_scenario_figure2),
    Command("scenario", "orthogonality", _cmd_scenario_orthogonality,
            (Arg("--count", 200, 0), Arg("--seed", 0), Arg("--height", 6, 1)),
            lambda args: _suite_cost("--count", args.count, args.height)),
    Command("scenario", "audit", _cmd_scenario_audit,
            (Arg("fixture", type=str, help="path-shadow JSON file"),)),
    Command("flats", "certify", _cmd_flats_certify,
            (Arg("--n", None, 1, required=True), Arg("--window", 5, 1)), _flat_cost),
    Command("flats", "rank", _cmd_flats_rank,
            (Arg("--genus", None, 0, required=True),
             Arg("--boundary", None, 0, required=True)),
            _rank_cost),
    Command("flats", "export", _cmd_flats_export,
            (Arg("--n", 2, 1), Arg("--window", 2, 1)), _flat_cost),
)


def _check(command: Command, args) -> None:
    """Refuse an option set below its floor, then an input past a budget."""
    for arg in command.args:
        value = getattr(args, arg.name.lstrip("-").replace("-", "_"))
        if arg.floor is not None and value is not None and value < arg.floor:
            raise CliError(
                f"{arg.name} {value} is out of range: it must be >= {arg.floor}"
            )
    for what, cost, limit in command.cost(args):
        if cost > limit:
            raise CliError(f"{what} is out of range: too costly, over {limit}")


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
        try:
            dest.parent.mkdir(parents=True, exist_ok=True)
            dest.write_text(payload)
        except OSError as exc:
            raise CliError(f"cannot write {dest}: {exc}") from None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args leaves it unchanged."""
    common = argparse.ArgumentParser(add_help=False)
    for flag, kwargs in OUTPUT_FLAGS.items():
        common.add_argument(flag, **kwargs)
    parser = _Parser(prog="fareyflats", description=__doc__.splitlines()[0])
    groups = parser.add_subparsers(dest="group", required=True)
    subparsers = {}
    for group, help in GROUPS.items():
        sub = groups.add_parser(group, help=help)
        subparsers[group] = sub.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        p = subparsers[command.group].add_parser(command.name, parents=[common])
        for arg in command.args:
            option = {"default": arg.default, "required": arg.required}
            kwargs = option if arg.name.startswith("-") else {}
            p.add_argument(arg.name, type=arg.type, help=arg.help, **kwargs)
        p.set_defaults(entry=command)
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
        _check(args.entry, args)
        result = args.entry.handler(args)
        _emit(args, result)
    except CliError as exc:
        sys.stderr.write(f"fareyflats: error: {exc}\n")
        return 1
    return 0 if result.passed else 2


if __name__ == "__main__":
    sys.exit(main())
