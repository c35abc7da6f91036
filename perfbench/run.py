"""Training and scoring benchmark for mtlds.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload synth-mtlds --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A
summary of the checks and rounds goes to standard error.  Exit status 0 means
every check held, 1 that one failed, 2 that the run could not start (for
example because ``src/mtlds`` is not beside this directory).
"""

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = HERE / "out"


class BootstrapError(RuntimeError):
    """The library source is not where the benchmark expects it."""


def bootstrap() -> None:
    """Pin BLAS to one thread, write no bytecode into the checkout, and import
    ``mtlds`` from this checkout's ``src``.  Call before importing numpy."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.dont_write_bytecode = True
    if not (SRC / "mtlds" / "__init__.py").is_file():
        raise BootstrapError(f"no library source at {SRC / 'mtlds'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import mtlds

    if not Path(mtlds.__file__).resolve().is_relative_to(SRC):
        raise BootstrapError(f"mtlds imported from {mtlds.__file__}, not from {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        bootstrap()
    except BootstrapError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    outcome = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), OUT_DIR)
    for line in workloads.report_lines(outcome):
        print(line, file=sys.stderr)
    result = workloads.main_result(outcome, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
