"""Graph-kernel benchmark: CSR + bitset hot paths vs plain networkx.

Measures every primitive the kernel rewired — domination checks,
residual spans, balls, ``D₂``, the greedy solver, the distributed
greedy phase loop, and the engine's delivery-route construction —
against the pre-kernel set-walking implementations (kept verbatim in
``tests/oracles`` as the ``legacy_*`` functions), then an end-to-end
S1-style ratio sweep and a ``simulate_many`` batch.  Results land in
``benchmarks/BENCH_kernel.json``:

* ``primitives[*].speedup`` — legacy seconds / kernel seconds per
  primitive at each instance size (higher is better; the acceptance
  floor is 5x for ``is_dominating_set`` and ``span_counts`` at
  n ≥ 2000);
* ``sweep.speedup`` — the same sweep (D₂ + greedy + distributed greedy
  ratios vs t, with validity checks) timed on legacy vs kernel paths,
  with ``rows`` carrying the scientific payload and an ``agree`` flag
  proving both paths computed identical solutions;
* ``simulate_many`` — engine batch wall time plus the route-building
  contrast (kernel CSR back-ports vs the port→neighbor→back-port
  dictionary chain).

Run as a script for the CI smoke (``python benchmarks/bench_kernel.py
--quick``) or in full (``python benchmarks/bench_kernel.py``) to
regenerate ``BENCH_kernel.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import networkx as nx

from repro.analysis.domination import is_dominating_set, undominated_vertices
from repro.api import SimulationSpec, simulate_many
from repro.core.d2 import d2_set
from repro.core.distributed_greedy import distributed_greedy_dominating_set
from repro.experiments.sweeps import _k2t_stress_instance
from repro.graphs.kernel import kernel_for
from repro.graphs.util import ball_of_set
from repro.local_model.engine import SimulationEngine
from repro.local_model.network import Network
from repro.solvers.greedy import greedy_dominating_set

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))  # for tests.oracles
from tests.oracles.core import (
    legacy_build_routes,
    legacy_d2_set,
    legacy_distributed_greedy,
    legacy_greedy_dominating_set,
    legacy_is_dominating_set,
    legacy_span_counts,
    legacy_undominated_vertices,
)
from tests.oracles.graphs import legacy_ball_of_set

RESULT_PATH = Path(__file__).parent / "BENCH_kernel.json"


# -- measurement harness --------------------------------------------------


def _best_of(fn, repeats):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _contrast(name, n, m, legacy_fn, kernel_fn, repeats, normalize=None):
    """Best-of timing for both paths plus an (untimed) agreement check.

    ``normalize`` maps each path's raw output to a comparable value —
    outside the timed region, so scaffolding like bitset→dict
    conversion doesn't dilute the primitive being measured.
    """
    legacy_s, legacy_out = _best_of(legacy_fn, repeats)
    kernel_s, kernel_out = _best_of(kernel_fn, repeats)
    if normalize is not None:
        legacy_out = normalize(legacy_out)
        kernel_out = normalize(kernel_out)
    return {
        "primitive": name,
        "n": n,
        "m": m,
        "legacy_s": round(legacy_s, 6),
        "kernel_s": round(kernel_s, 6),
        "speedup": round(legacy_s / kernel_s, 2) if kernel_s else float("inf"),
        "agree": legacy_out == kernel_out,
    }


def measure_primitives(n, m, repeats, seed=1):
    graph = nx.gnm_random_graph(n, m, seed=seed)
    kernel = kernel_for(graph)
    solution = greedy_dominating_set(graph)
    partial = sorted(solution)[: max(1, len(solution) - 10)]
    undominated = set(list(graph.nodes)[::2])
    undominated_mask = kernel.bits_of(undominated)
    centers = list(graph.nodes)[:: max(1, n // 40)]

    def normalize_spans(out):
        if isinstance(out, dict):  # legacy {vertex: span} -> kernel order
            return [out[label] for label in kernel.labels]
        return list(out)

    rows = [
        _contrast(
            "is_dominating_set",
            n,
            m,
            lambda: legacy_is_dominating_set(graph, solution),
            lambda: is_dominating_set(graph, solution),
            repeats * 10,
        ),
        _contrast(
            "undominated_vertices",
            n,
            m,
            lambda: legacy_undominated_vertices(graph, partial),
            lambda: undominated_vertices(graph, partial),
            repeats * 10,
        ),
        _contrast(
            "span_counts",
            n,
            m,
            lambda: legacy_span_counts(graph, undominated),
            lambda: kernel.span_counts(undominated_mask),
            repeats * 5,
            normalize=normalize_spans,
        ),
        _contrast(
            "ball_of_set_r3",
            n,
            m,
            lambda: legacy_ball_of_set(graph, centers, 3),
            lambda: ball_of_set(graph, centers, 3),
            repeats * 5,
        ),
        _contrast(
            "d2_set",
            n,
            m,
            lambda: legacy_d2_set(graph),
            lambda: d2_set(graph),
            repeats,
        ),
        _contrast(
            "greedy_dominating_set",
            n,
            m,
            lambda: legacy_greedy_dominating_set(graph),
            lambda: greedy_dominating_set(graph),
            repeats,
        ),
        _contrast(
            "distributed_greedy",
            n,
            m,
            lambda: legacy_distributed_greedy(graph)[0],
            lambda: distributed_greedy_dominating_set(graph).solution,
            repeats,
        ),
    ]
    return rows


def _sweep_rows(ts, blocks, runner):
    """One S1-style pass: per-t approximation ratios with validity checks.

    ``runner`` supplies the (d2, greedy, distributed-greedy, validity)
    implementations, so the identical workload runs on the legacy and
    the kernel paths.
    """
    d2_fn, greedy_fn, dgreedy_fn, valid_fn = runner
    rows = []
    for t in ts:
        graph = _k2t_stress_instance(t, blocks=blocks)
        baseline = greedy_fn(graph)
        d2 = d2_fn(graph)
        dgreedy = dgreedy_fn(graph)
        rows.append(
            {
                "t": t,
                "n": graph.number_of_nodes(),
                "greedy": len(baseline),
                "d2": len(d2),
                "d2_over_greedy": round(len(d2) / len(baseline), 3),
                "distributed_greedy": len(dgreedy),
                "all_valid": bool(
                    valid_fn(graph, baseline)
                    and valid_fn(graph, d2)
                    and valid_fn(graph, dgreedy)
                ),
            }
        )
    return rows


def measure_sweep(ts, blocks, repeats):
    legacy_runner = (
        legacy_d2_set,
        legacy_greedy_dominating_set,
        lambda g: legacy_distributed_greedy(g)[0],
        legacy_is_dominating_set,
    )
    kernel_runner = (
        d2_set,
        greedy_dominating_set,
        lambda g: distributed_greedy_dominating_set(g).solution,
        is_dominating_set,
    )
    legacy_s, legacy_rows = _best_of(lambda: _sweep_rows(ts, blocks, legacy_runner), repeats)
    kernel_s, kernel_rows = _best_of(lambda: _sweep_rows(ts, blocks, kernel_runner), repeats)
    return {
        "name": "s1_style_ratio_sweep",
        "ts": list(ts),
        "blocks": blocks,
        "legacy_s": round(legacy_s, 6),
        "kernel_s": round(kernel_s, 6),
        "speedup": round(legacy_s / kernel_s, 2),
        "agree": legacy_rows == kernel_rows,
        "rows": kernel_rows,
    }


def measure_simulate_many(graph_count, size, repeats):
    graphs = [
        _k2t_stress_instance(4, blocks=max(2, size // 6)) for _ in range(graph_count)
    ]
    spec = SimulationSpec(algorithm="d2", trace="stats")
    wall_s, reports = _best_of(lambda: simulate_many(graphs, spec), repeats)

    # Route construction: kernel CSR back-ports vs the dictionary chain.
    build_graph = nx.gnm_random_graph(size * 40, size * 120, seed=3)
    build_legacy, _ = _best_of(
        lambda: legacy_build_routes(build_graph), repeats * 3
    )
    build_kernel, _ = _best_of(
        lambda: SimulationEngine(Network(build_graph)), repeats * 3
    )
    return {
        "graphs": graph_count,
        "n_per_graph": graphs[0].number_of_nodes(),
        "algorithm": "d2",
        "wall_s": round(wall_s, 6),
        "rounds": reports[0].rounds,
        "total_messages": sum(r.total_messages for r in reports),
        "route_build": {
            "n": build_graph.number_of_nodes(),
            "m": build_graph.number_of_edges(),
            "legacy_s": round(build_legacy, 6),
            "kernel_s": round(build_kernel, 6),
            "speedup": round(build_legacy / build_kernel, 2),
        },
    }


def run(quick: bool) -> dict:
    if quick:
        # best-of-2 even in quick mode: single-shot timings on shared
        # CI runners flake (CPU steal, GC pauses) for a few ms saved
        sizes = [(600, 1800)]
        repeats = 2
        sweep = measure_sweep(ts=(4, 6), blocks=12, repeats=2)
        sim = measure_simulate_many(graph_count=4, size=24, repeats=1)
    else:
        sizes = [(500, 1500), (2000, 6000)]
        repeats = 3
        sweep = measure_sweep(ts=(6, 10, 14), blocks=40, repeats=2)
        sim = measure_simulate_many(graph_count=12, size=36, repeats=2)
    primitives = []
    for n, m in sizes:
        primitives.extend(measure_primitives(n, m, repeats))
    return {
        "benchmark": "graph_kernel",
        "quick": quick,
        "primitives": primitives,
        "sweep": sweep,
        "simulate_many": sim,
    }


def check(result: dict, quick: bool) -> list[str]:
    """Regression assertions; quick mode uses looser CI-safe floors."""
    failures = []
    floor = 2.0 if quick else 5.0
    sweep_floor = 1.2 if quick else 2.0
    largest_n = max(row["n"] for row in result["primitives"])
    for row in result["primitives"]:
        if row.get("agree") is False:
            failures.append(f"{row['primitive']} at n={row['n']}: outputs disagree")
        if row["n"] < largest_n:
            continue
        if row["primitive"] in ("is_dominating_set", "span_counts") and (
            row["speedup"] < floor
        ):
            failures.append(
                f"{row['primitive']} at n={row['n']}: speedup {row['speedup']} < {floor}"
            )
    if not result["sweep"]["agree"]:
        failures.append("sweep: legacy and kernel rows disagree")
    if result["sweep"]["speedup"] < sweep_floor:
        failures.append(
            f"sweep speedup {result['sweep']['speedup']} < {sweep_floor}"
        )
    return failures


# -- CI smoke -------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small instances + loose floors (CI regression smoke)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="write the result JSON here (default: only full runs write "
        "BENCH_kernel.json)",
    )
    args = parser.parse_args(argv)
    result = run(quick=args.quick)
    out = args.out if args.out is not None else (None if args.quick else RESULT_PATH)
    if out is not None:
        out.write_text(json.dumps(result, indent=1))
    for row in result["primitives"]:
        print(
            f"{row['primitive']:>24} n={row['n']:<6} "
            f"legacy {row['legacy_s'] * 1e3:8.2f}ms  "
            f"kernel {row['kernel_s'] * 1e3:8.2f}ms  {row['speedup']:6.1f}x"
        )
    sweep = result["sweep"]
    print(
        f"{'s1-style sweep':>24} ts={sweep['ts']} "
        f"legacy {sweep['legacy_s']:.3f}s kernel {sweep['kernel_s']:.3f}s "
        f"{sweep['speedup']:.1f}x agree={sweep['agree']}"
    )
    sim = result["simulate_many"]
    print(
        f"{'simulate_many':>24} {sim['graphs']} graphs x n={sim['n_per_graph']} "
        f"in {sim['wall_s']:.3f}s; route build {sim['route_build']['speedup']:.1f}x"
    )
    failures = check(result, quick=args.quick)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
