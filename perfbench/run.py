"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Prints a table of metrics, a ``report``
line with provenance and per-trial detail, and as its last line the
result object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end metrics; with ``--trace 1``
the per-layer metrics of a traced run.  Exits non-zero without a result
when the program under test cannot be imported from the checkout.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import sys  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("consensus-happy", "consensus-faults", "serve-open")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import repro
        from perfbench import bench, workloads
    except ImportError as exc:
        print(f"cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    origin = pathlib.Path(repro.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        print(f"repro imported from {origin}, not from this checkout", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _START
    run = bench.run_benchmark(
        workloads.WORKLOADS[args.workload],
        run_seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        import_s=import_s,
    )
    bench.print_run(run)
    sys.stderr.flush()
    # Skip freeing a heap of several hundred MB object by object at exit
    # (~1 s a run); nothing is left to flush or close.
    os._exit(0)


if __name__ == "__main__":
    sys.exit(main())
