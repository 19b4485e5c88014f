"""Run one eegfs benchmark workload and print its metrics.

    python3 bench/run.py --workload train_fs --seed 1 --seconds 25 --trace 0

Run from a checkout of the repository; the package is imported from its
``src/`` directory, never from an installed copy. With ``--trace 0`` the
run reports the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a traced run (see bench/README.md). Every metric is printed
as ``name = value unit``; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

Other modes:

    python3 bench/run.py --headline --seed 1   # derived cost of selection

Scratch files, the span dump of a traced run and a stamped copy of each
result go under ``.bench_build/eegfs/`` in the checkout.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "eegfs"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> int:
    """Keep BLAS threads at or below the usable cores; must run before
    numpy is imported. Returns the core count."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def import_package() -> None:
    """Put the checkout's ``src/`` first on the path and import eegfs from it."""
    if not (SRC / "eegfs" / "__init__.py").is_file():
        sys.exit(f"error: no eegfs sources at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import eegfs
    if Path(eegfs.__file__).resolve().parent != SRC / "eegfs":
        sys.exit(f"error: eegfs imported from {eegfs.__file__}, not {SRC}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--headline", action="store_true",
                   help="run train_nofs, train_fs and traced train_fs and print "
                        "the derived cost of selection")
    args = p.parse_args(argv)
    if not args.headline and args.workload is None:
        p.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = cap_blas_threads()
    import_package()
    import report
    import spec
    from workloads import DEFAULT
    seconds = spec.RUN_SECONDS if args.seconds is None else args.seconds
    OUT.mkdir(parents=True, exist_ok=True)
    if args.headline:
        report.headline(args.seed, seconds, DEFAULT, OUT, nproc)
        return 0
    result = report.run(args.workload, args.seed, seconds, bool(args.trace),
                        DEFAULT, OUT, nproc)
    report.emit(result, OUT)
    return 0


if __name__ == "__main__":
    sys.exit(main())
