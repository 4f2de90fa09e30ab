"""One benchmark round in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N --round R --trace 0|1 \\
        [--probe]

Imports the package from ``src/``, builds round R's inputs and then their
answer key, runs the timed part and prints one JSON object on the last line
of stdout.  With ``--probe`` the round runs the fixed probe stream of
queries (see ``workloads.PROBE``) instead of the workload.  The parent
(``bench/run.py``) measures set-up from before it started this process to
``t_setup``, read from the same monotonic clock: interpreter start, imports
and input generation, but not the answer key, which is the benchmark's own
work and is reported as ``answer_key_s``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import fareyflats.cli  # noqa: F401  (imports every module of the package)
    import tracing
    import workloads

    if args.probe:
        inputs, run = workloads.prepare_probe(), workloads.run_queries
    else:
        inputs = workloads.prepare(args.workload, args.seed)
        run = workloads.RUNNERS[args.workload]
    t_setup = time.monotonic()
    if "items" in inputs:  # a query stream
        workloads.answer_queries(inputs)
    answer_key_s = time.monotonic() - t_setup
    out = workloads.RoundResult()
    tracer = tracing.Tracer().install() if args.trace else None
    t_first = time.monotonic()
    run(inputs, out)
    t_end = time.monotonic()
    if tracer is not None:
        tracer.uninstall()
    state = workloads.counters()
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "round": args.round,
        "probe": args.probe,
        "traced": bool(args.trace),
        "sizes": inputs["sizes"],
        "t_setup": t_setup,
        "t_first": t_first,
        "answer_key_s": answer_key_s,
        "verdict_s": t_end - t_first,
        **state,
        "attempted": out.attempted,
        "failed": out.failed,
        "failures": out.failures,
        "distance_ns": out.distance_ns,
        "geodesics_ns": out.geodesics_ns,
        "geodesic_hits": out.geodesic_hits,
        "geodesic_known": out.geodesic_known,
        "tallies": out.tallies,
    }
    if tracer is not None:
        result["trace"] = tracer.dump()
        result["totals"] = tracer.totals()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
