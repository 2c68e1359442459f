"""Benchmark entry point, run from the root of a checkout.

    python3 perfbench/run.py --workload ratio_sweep --seed 1 --seconds 10 --trace 0

Prints a short table, one ``detail`` JSON line (envelope, digest,
failures, sample counts), and as its last line the result object
``{"correct", "attempted", "failed", "metrics"}``.  Exits 2 without a
result when the checkout has no ``src/repro`` to benchmark.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}; run from a full checkout",
              file=sys.stderr)
        sys.exit(2)
    # Replace this script's own directory on the path, so the package's
    # modules are only importable as ``perfbench.*``.
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.harness import main

    sys.exit(main())
