"""The fareyflats benchmark: three workloads, measured from outside.

    python3 bench/run.py --workload exhaustive|fixtures|queries \\
        --seed N --seconds S --trace 0|1

A run repeats one round while another fits in S seconds.  Each round is a
fresh single-threaded interpreter (``bench/worker.py``), one at a time, so
every round pays the cold process-global caches (the distance memo,
``slopes_up_to``, ``get_graph``) that a one-shot user pays.  Each round is
pinned to the CPU that other tenants slow least when it starts (see
``pin_quickest_cpu``).  Every round of a run gets the same inputs, fixed by
(workload, seed).  On exhaustive and fixtures, each verdict round is
followed by PROBES probe rounds, which time the fixed probe stream of
queries, so that the probe's samples are spread over the whole run.

With ``--trace 0`` the run prints the end-to-end metrics (see
``end_to_end`` for how rounds are combined).  With ``--trace 1`` each
verdict round runs twice, untraced and then traced, no probe runs, and the
run prints the per-layer metrics: counts from the first traced round, which
repeat exactly for a seed, and self times as the mean over the traced
rounds.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full record of the run
(provenance, every round, the aggregated spans) goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("exhaustive", "fixtures", "queries")
GRACE_S = 110  # a round slower than the last may overrun --seconds by this much
PROBES = 2  # probe rounds after each verdict round of exhaustive and fixtures
CPUS = sorted(os.sched_getaffinity(0))  # before any round pins this process


class BenchError(Exception):
    pass


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _spin() -> float:
    t0 = time.perf_counter()
    x = 0
    for i in range(20_000):
        x = (x * 31 + i) % 1_000_003
    return time.perf_counter() - t0


def pin_quickest_cpu() -> int | None:
    """Pins this process to the allowed CPU where a short loop runs fastest.

    Other tenants of the host slow each vCPU by about 1.5x for stretches
    of seconds to minutes, each vCPU on its own, and a lone process tends to
    stay on the CPU it started on.  A round is started from here, so it
    inherits the pin and runs on the CPU that was quickest just before.
    """
    if len(CPUS) < 2:
        return None
    speed = {}
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        speed[cpu] = min(_spin() for _ in range(5))
    quickest = min(CPUS, key=speed.get)
    os.sched_setaffinity(0, {quickest})
    return quickest


def run_round(
    workload: str, seed: int, index: int, trace: int, deadline: float, probe: bool = False
) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cpu = pin_quickest_cpu()
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed),
        "--round", str(index), "--trace", str(trace),
    ] + (["--probe"] if probe else [])
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - t_spawn),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"round {index} of {workload} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(
            f"round {index} of {workload} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["t_setup"] - t_spawn
    result["cpu"] = cpu
    return result


def provenance(args) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(CPUS),
        "loadavg_start": os.getloadavg(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def end_to_end(rounds: list[dict]) -> tuple[dict, dict]:
    """Metrics and their sample counts from the untraced rounds of one run.

    Set-up is the median over the verdict rounds.  The verdict span is the
    mean over the verdict rounds, and each query latency is the mean, over
    the rounds that timed queries (the verdict rounds of queries, the probe
    rounds elsewhere), of that round's median and 99th percentile.  The host
    runs the benchmark in one of two speeds, about 1.5x apart, for stretches
    of seconds to minutes; a mean over the rounds moves smoothly with the
    share of the run spent in the slow state, where a median or a pooled
    percentile jumps from one state to the other.  Memory does not vary.
    """
    verdicts = [r for r in rounds if not r["probe"]]
    timed = [r for r in rounds if r["distance_ns"]]

    def latency(key, q, scale):
        return statistics.fmean(percentile(r[key], q) for r in timed) / scale

    metrics = {
        "setup_s": (statistics.median(r["setup_s"] for r in verdicts), "s"),
        "verdict_s": (statistics.fmean(r["verdict_s"] for r in verdicts), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_kb"] for r in verdicts) / 1024, "MB"),
        "distance_p50_us": (latency("distance_ns", 0.50, 1e3), "us"),
        "distance_p99_us": (latency("distance_ns", 0.99, 1e3), "us"),
        "geodesics_p50_ms": (latency("geodesics_ns", 0.50, 1e6), "ms"),
        "geodesics_p99_ms": (latency("geodesics_ns", 0.99, 1e6), "ms"),
    }
    n = len(verdicts)
    d = f"{len(timed[0]['distance_ns'])} queries x {len(timed)} rounds"
    g = f"{len(timed[0]['geodesics_ns'])} queries x {len(timed)} rounds"
    counts = {
        "setup_s": n, "verdict_s": n, "peak_rss_mb": n,
        "distance_p50_us": d, "distance_p99_us": d,
        "geodesics_p50_ms": g, "geodesics_p99_ms": g,
    }
    return metrics, counts


def per_layer(pairs: list[tuple[dict, dict]]) -> tuple[dict, dict]:
    """Metrics from (untraced, traced) round pairs on the same inputs."""
    traced = [t for _, t in pairs]
    first = traced[0]
    counts = tracing.span_metrics(first["totals"])
    times = {
        name: statistics.fmean(tracing.span_metrics(t["totals"])[name] for t in traced)
        for name in counts
        if name.endswith(".self_s")
    }
    values = {**counts, **times}
    values["slopes.distance.memo_entries"] = first["memo_entries"]
    values["geodesics.get_graph.hits"] = first["graph_hits"] or 0
    values["geodesics.get_graph.misses"] = first["graph_misses"] or 0
    values["orbifold.degenerate_raised"] = first["trace"]["degenerate_raised"]
    for suite in tracing.SWEEP_SUITES:
        rep = first["tallies"].get(suite)
        tried = rep and sum(rep.values())
        values[f"sweeps.{suite}.accept_ratio"] = rep["checked"] / tried if tried else 0.0
    # each pair ran back to back, so its ratio sees the same host load
    values["trace.overhead_ratio"] = statistics.median(
        t["verdict_s"] / u["verdict_s"] for u, t in pairs
    )
    units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    metrics = {name: (values[name], units[name]) for name, _, _ in tracing.PER_LAYER}
    absent = sorted(set(first["trace"]["absent"]))
    if first["graph_hits"] is None:
        absent.append("geodesics.get_graph")
    return metrics, {"rounds": len(traced), "absent": absent}


def summary_lines(workload: str, metrics: dict, counts: dict, rounds: list[dict]) -> list[str]:
    lines = [f"workload {workload}: {len(rounds)} rounds"]
    for name, (value, unit) in metrics.items():
        n = counts.get(name)
        lines.append(f"  {name} = {value:.6g} {unit}" + (f"  (n={n})" if n else ""))
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    lines.append(f"  failed_ratio = {failed}/{attempted} = {failed / attempted:.6g}")
    known = sum(r["geodesic_known"] for r in rounds)
    if known:
        hits = sum(r["geodesic_hits"] for r in rounds)
        lines.append(f"  geodesics cache hit share = {hits}/{known} = {hits / known:.4f}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fareyflats" / "__init__.py").is_file():
        print(f"bench: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    record = {"provenance": provenance(args)}
    start = time.monotonic()
    deadline = start + args.seconds + GRACE_S
    rounds, pairs = [], []
    probes = 0 if args.trace or args.workload == "queries" else PROBES
    last_s = {}  # wall time of the last round of each kind
    try:
        index = 0
        # every kind of round runs at least once; after that, a round starts
        # only if one like the last of its kind ends within --seconds
        while True:
            probe = bool(index % (probes + 1))
            elapsed = time.monotonic() - start
            if index > probes and elapsed + last_s.get(probe, 0.0) >= args.seconds:
                break
            if probe:
                rounds.append(run_round(args.workload, args.seed, index, 0, deadline, probe=True))
            elif args.trace:
                plain = run_round(args.workload, args.seed, index, 0, deadline)
                traced = run_round(args.workload, args.seed, index, 1, deadline)
                pairs.append((plain, traced))
                rounds += [plain, traced]
            else:
                rounds.append(run_round(args.workload, args.seed, index, 0, deadline))
            last_s[probe] = time.monotonic() - start - elapsed
            index += 1
        if args.trace:
            metrics, counts = per_layer(pairs)
            record["trace"] = {"aggregated": [t["trace"] for _, t in pairs], **counts}
            counts = {}
        else:
            metrics, counts = end_to_end(rounds)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    record["sizes"] = {
        "workload": rounds[0]["sizes"],
        "probe": next((r["sizes"] for r in rounds if r["probe"]), None),
    }
    record["rounds"] = [
        {k: v for k, v in r.items() if k not in ("trace", "sizes")}
        for r in rounds
    ]
    known = sum(r["geodesic_known"] for r in rounds)
    record["geodesic_hit_share"] = sum(r["geodesic_hits"] for r in rounds) / known if known else None
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record["sample_counts"] = counts
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1, default=str) + "\n")

    for line in summary_lines(args.workload, metrics, counts, rounds):
        print(line)
    if args.trace and record["trace"]["absent"]:
        print(f"  absent from the package, reported as 0: {', '.join(record['trace']['absent'])}")
    for r in rounds:
        for failure in r["failures"]:
            print(f"  FAILED (round {r['round']}): {failure}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
