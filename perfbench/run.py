"""Campaign benchmark: the paper-figure campaigns, end to end and by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload phy-vec --seed 1 --seconds 8 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ledger; the last line of standard output is one JSON result.  This file
only reads the arguments and pins the BLAS/OpenMP threads before numpy
loads; ``harness.py`` does the work.  See README.md.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

#: Read before anything heavy is imported: set-up time starts here.
T_START = time.perf_counter()

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"

#: Pinned to one thread before numpy loads: the load is one process.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

WORKLOAD_NAMES = ("phy-vec", "mac-vec", "figs-serial")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--probe",
        action="store_true",
        help="only time the set-up and print it (for fresh interpreters)",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    for name in THREAD_VARS:
        os.environ[name] = "1"
    # Stores are always explicit; never let the user's default leak in.
    os.environ.pop("REPRO_STORE", None)
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    from hostspeed import HostClock

    # Set-up is timed in reference seconds, like the passes.
    setup_clock = HostClock()
    setup_clock.start(since=T_START)
    import harness

    return harness.main(args, setup_clock)


if __name__ == "__main__":
    sys.exit(main())
