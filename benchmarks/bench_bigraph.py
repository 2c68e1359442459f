"""Large-graph benchmark: the packed kernel backend at n up to 10⁶.

Proves the two claims the packed backend exists for:

* **capacity** — million-node instances build from streamed edge lists
  (:func:`repro.graphs.kernel.kernel_from_edges`, no ``nx.Graph``) and
  run the greedy / D₂ / two-packing-ratio pipelines end to end in
  O(n + m) memory.  Every (family, n) cell is measured in a fresh
  subprocess so ``ru_maxrss`` is that instance's own peak; the check
  enforces both an absolute O(n + m) cap and, at n ≥ 10⁵, that the
  peak stays below the n²/8-byte dense mask table the int backend
  would have had to allocate;
* **agreement** — at sizes both backends can hold, greedy, D₂, and the
  two-packing bound produce identical output on the int and packed
  backends (``differential[*].agree``).

Results land in ``benchmarks/BENCH_bigraph.json``:

* ``rows[*]`` — per (family, n): build/solve wall times, solution
  sizes, the two-packing lower bound with greedy/D₂ ratios, and
  ``peak_rss_bytes`` against both memory caps;
* ``differential[*]`` — per overlapping size: an ``agree`` flag plus
  the per-pipeline comparison record.

Run as a script for the CI smoke (``python benchmarks/bench_bigraph.py
--quick``: n = 10⁴ cells + the n = 2048 differential, loose floors) or
with no flag for the full measurement (adds n = 10⁵ and 10⁶ and writes
``BENCH_bigraph.json``).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

RESULT_PATH = Path(__file__).parent / "BENCH_bigraph.json"

#: Absolute per-cell memory cap: interpreter + numpy baseline plus a
#: generous 40 words for every vertex and edge.  An O(n²) substrate
#: cannot fit under this at any benchmarked size.
_RSS_BASE_BYTES = 400 * (1 << 20)
_RSS_WORDS_PER_ITEM = 40

FAMILIES = ("grid", "banded")
FULL_SIZES = (10_000, 100_000, 1_000_000)
QUICK_SIZES = (10_000,)
FULL_DIFF_SIZES = (2_048, 10_000)
QUICK_DIFF_SIZES = (2_048,)


# -- instance families (streaming edge generators) ------------------------


def grid_edges(side: int):
    """Edges of the side x side 2D grid, vertex ``r * side + c``."""
    for r in range(side):
        base = r * side
        for c in range(side):
            v = base + c
            if c + 1 < side:
                yield v, v + 1
            if r + 1 < side:
                yield v, v + side


def banded_edges(n: int, degree: int = 6, band: int = 64, seed: int = 7):
    """Seeded sparse random graph with all edges inside a diagonal band."""
    import numpy as np

    rng = np.random.default_rng(seed)
    chunk = 1 << 16
    for start in range(0, n, chunk):
        us = np.repeat(np.arange(start, min(n, start + chunk)), degree)
        vs = np.minimum(us + rng.integers(1, band + 1, size=us.size), n - 1)
        keep = us != vs
        yield from zip(us[keep].tolist(), vs[keep].tolist())


def normalize_n(family: str, n: int) -> int:
    """Snap ``n`` to the family's nearest realisable size (grids need
    squares: 10⁵ becomes 316² = 99 856)."""
    if family == "grid":
        side = int(round(n ** 0.5))
        return side * side
    return n


def family_edges(family: str, n: int):
    if family == "grid":
        return grid_edges(int(round(n ** 0.5)))
    if family == "banded":
        return banded_edges(n)
    raise ValueError(f"unknown family {family!r}")


def build_view(family: str, n: int):
    from repro.graphs.kernel import KernelView, kernel_from_edges, set_kernel_backend

    previous = set_kernel_backend("packed")
    try:
        return KernelView(kernel_from_edges(family_edges(family, n), n=n))
    finally:
        set_kernel_backend(previous[0], threshold=previous[1])


# -- one measurement cell (runs in a fresh subprocess) --------------------


def measure_cell(family: str, n: int) -> dict:
    from repro.analysis.domination import is_dominating_set
    from repro.core.d2 import d2_dominating_set
    from repro.solvers.bounds import two_packing_lower_bound
    from repro.solvers.greedy import greedy_dominating_set

    n = normalize_n(family, n)
    t0 = time.perf_counter()
    view = build_view(family, n)
    build_s = time.perf_counter() - t0
    kernel = view.kernel
    m = kernel.edge_count()

    t0 = time.perf_counter()
    greedy = greedy_dominating_set(view)
    greedy_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    d2 = d2_dominating_set(view)
    d2_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    lower_bound = two_packing_lower_bound(view)
    two_packing_s = time.perf_counter() - t0

    valid = is_dominating_set(view, greedy) and is_dominating_set(view, d2.solution)
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    return {
        "family": family,
        "n": n,
        "m": m,
        "backend": kernel.backend,
        "build_s": build_s,
        "greedy_s": greedy_s,
        "greedy_size": len(greedy),
        "d2_s": d2_s,
        "d2_size": len(d2.solution),
        "two_packing_s": two_packing_s,
        "lower_bound": lower_bound,
        "ratio_greedy": len(greedy) / lower_bound if lower_bound else None,
        "ratio_d2": len(d2.solution) / lower_bound if lower_bound else None,
        "valid": valid,
        "peak_rss_bytes": peak_rss,
        "rss_cap_bytes": _RSS_BASE_BYTES + _RSS_WORDS_PER_ITEM * 8 * (n + m),
        "dense_mask_bytes": n * n // 8,
    }


def measure_in_subprocess(family: str, n: int) -> dict:
    """One cell in a fresh interpreter, so ru_maxrss is the cell's own."""
    proc = subprocess.run(
        [sys.executable, __file__, "--measure", family, str(n)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src")),
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"measurement subprocess ({family}, n={n}) failed:\n{proc.stderr}"
        )
    return json.loads(proc.stdout.splitlines()[-1])


# -- differential: both backends on the same instance ---------------------


def differential_cell(family: str, n: int) -> dict:
    from repro.core.d2 import d2_dominating_set
    from repro.graphs.kernel import (
        KernelView,
        graph_from_wire,
        kernel_from_edges,
        set_kernel_backend,
    )
    from repro.solvers.bounds import two_packing_lower_bound
    from repro.solvers.greedy import greedy_dominating_set

    n = normalize_n(family, n)
    checks = {}
    outputs = {}
    for backend in ("int", "packed"):
        # Force the backend globally for the whole leg: graph_from_wire
        # pre-seeds the kernel cache with whatever the current selection
        # resolves to, and the solvers go through kernel_for again.
        previous = set_kernel_backend(backend)
        try:
            instance = kernel_from_edges(family_edges(family, n), n=n)
            if backend == "packed":
                instance = KernelView(instance)
            else:
                instance = graph_from_wire(instance.packed().to_wire())
            outputs[backend] = {
                "greedy": sorted(greedy_dominating_set(instance)),
                "d2": sorted(d2_dominating_set(instance).solution),
                "two_packing": two_packing_lower_bound(instance),
            }
        finally:
            set_kernel_backend(previous[0], threshold=previous[1])
    for key in outputs["int"]:
        checks[key] = outputs["int"][key] == outputs["packed"][key]
    return {
        "family": family,
        "n": n,
        "agree": all(checks.values()),
        "checks": checks,
        "greedy_size": len(outputs["int"]["greedy"]),
        "d2_size": len(outputs["int"]["d2"]),
        "two_packing": outputs["int"]["two_packing"],
    }


# -- harness --------------------------------------------------------------


def run(quick: bool) -> dict:
    from repro.graphs.kernel import kernel_backend

    sizes = QUICK_SIZES if quick else FULL_SIZES
    diff_sizes = QUICK_DIFF_SIZES if quick else FULL_DIFF_SIZES
    rows = []
    for n in sizes:
        for family in FAMILIES:
            rows.append(measure_in_subprocess(family, n))
    differential = [
        differential_cell(family, n)
        for n in diff_sizes
        for family in FAMILIES
    ]
    return {
        "quick": quick,
        "backend_selection": dict(zip(("backend", "threshold"), kernel_backend())),
        "rows": rows,
        "differential": differential,
    }


def check(result: dict, quick: bool) -> list[str]:
    failures = []
    for row in result["rows"]:
        cell = f"({row['family']}, n={row['n']})"
        if row["backend"] != "packed":
            failures.append(f"{cell}: expected the packed backend, got {row['backend']}")
        if not row["valid"]:
            failures.append(f"{cell}: a produced solution is not dominating")
        if not 0 < row["greedy_size"] <= row["n"]:
            failures.append(f"{cell}: implausible greedy size {row['greedy_size']}")
        if row["ratio_greedy"] is None or row["ratio_greedy"] < 1.0:
            failures.append(
                f"{cell}: greedy ratio {row['ratio_greedy']} below the "
                f"lower bound — the bound or the solver is wrong"
            )
        if row["peak_rss_bytes"] >= row["rss_cap_bytes"]:
            failures.append(
                f"{cell}: peak RSS {row['peak_rss_bytes']} breaks the "
                f"O(n + m) cap {row['rss_cap_bytes']}"
            )
        if row["n"] >= 100_000 and row["peak_rss_bytes"] >= row["dense_mask_bytes"]:
            failures.append(
                f"{cell}: peak RSS {row['peak_rss_bytes']} is no better than "
                f"a dense n²/8 mask table ({row['dense_mask_bytes']})"
            )
    for cell in result["differential"]:
        if not cell["agree"]:
            failures.append(
                f"differential ({cell['family']}, n={cell['n']}): backends "
                f"disagree: {cell['checks']}"
            )
    if not quick:
        seen = {(row["family"], row["n"]) for row in result["rows"]}
        for family in FAMILIES:
            if (family, 1_000_000) not in seen:
                failures.append(f"full run is missing the ({family}, n=10⁶) cell")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="n=10⁴ cells + n=2048 differential only (CI smoke); does not "
        "write BENCH_bigraph.json",
    )
    parser.add_argument(
        "--measure",
        nargs=2,
        metavar=("FAMILY", "N"),
        help="internal: measure one cell and print its JSON row",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="write the result JSON here (default: only full runs write "
        "BENCH_bigraph.json)",
    )
    args = parser.parse_args(argv)
    if args.measure:
        family, n = args.measure
        print(json.dumps(measure_cell(family, int(n))))
        return 0
    result = run(quick=args.quick)
    out = args.out if args.out is not None else (None if args.quick else RESULT_PATH)
    if out is not None:
        out.write_text(json.dumps(result, indent=1))
    for row in result["rows"]:
        print(
            f"{row['family']:>8} n={row['n']:<8} m={row['m']:<8} "
            f"build {row['build_s']:6.2f}s greedy {row['greedy_s']:6.2f}s "
            f"d2 {row['d2_s']:6.2f}s 2pack {row['two_packing_s']:6.2f}s "
            f"ratio {row['ratio_greedy']:.3f} "
            f"rss {row['peak_rss_bytes'] / (1 << 20):7.1f}MiB"
        )
    for cell in result["differential"]:
        print(
            f"{'diff':>8} {cell['family']} n={cell['n']:<6} "
            f"agree={cell['agree']} |greedy|={cell['greedy_size']} "
            f"|d2|={cell['d2_size']} 2pack={cell['two_packing']}"
        )
    failures = check(result, quick=args.quick)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
