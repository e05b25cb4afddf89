"""Run one benchmark workload against the ``spi`` sources in ./src.

Usage, from the repository root:

    python3 perfbench/run.py --workload train-desk --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a traced run. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it records the environment and the same-seed quality fields.
Both are also written under ``.bench_out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# the benchmark measures one single-threaded process; BLAS reads these once,
# when numpy is first imported, so they are set before any import of it
PIN_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def main(argv=None) -> int:
    root = Path.cwd()
    src = root / "src"
    if not (src / "spi" / "__init__.py").is_file():
        print(f"perfbench: no spi sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    for var in PIN_THREADS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import workloads  # imports numpy and spi, so only after the pinning above

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    result, record = workloads.run(args.workload, args.seed, args.seconds,
                                   bool(args.trace), root)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
