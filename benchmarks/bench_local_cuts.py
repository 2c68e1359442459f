"""Local-cut pipeline benchmark: bitset arenas vs legacy subgraph walks.

Measures everything the bitset local-cut rewrite touched — r-local 1-cut
and 2-cut enumeration, interesting-vertex detection, true-twin removal,
and an end-to-end Algorithm 1 run — against the pre-rewrite
implementations (kept verbatim in ``tests/oracles`` as the ``legacy_*``
functions, which materialize a fresh ``graph.subgraph(ball_of_set(...))``
arena and run networkx connectivity per candidate).  Results land in
``benchmarks/BENCH_local_cuts.json``:

* ``primitives[*].speedup`` — legacy seconds / kernel seconds per
  function on each benchmark graph (higher is better; the acceptance
  floor is 5x for ``local_two_cuts`` on the largest instance);
* ``algorithm1[*]`` — the same contrast for the full Algorithm 1
  pipeline (twin reduction → phase sets → residual brute force), with
  the acceptance floor at 3x;
* every row carries ``agree`` — both paths computed identical sets (and
  identical cut *lists*, order included).

Run as a script for the CI smoke (``python benchmarks/bench_local_cuts.py
--quick``) or in full (``python benchmarks/bench_local_cuts.py``) to
regenerate ``BENCH_local_cuts.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import networkx as nx

from repro.core.algorithm1 import algorithm1
from repro.core.radii import RadiusPolicy
from repro.graphs import generators as gen
from repro.graphs.kernel import invalidate_kernel
from repro.graphs.local_cuts import (
    interesting_vertices,
    local_one_cuts,
    local_two_cuts,
)
from repro.graphs.twins import remove_true_twins

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))  # for tests.oracles
from tests.oracles.core import legacy_algorithm1_solution
from tests.oracles.graphs import (
    legacy_interesting_vertices,
    legacy_local_one_cuts,
    legacy_local_two_cuts,
    legacy_remove_true_twins,
)

RESULT_PATH = Path(__file__).parent / "BENCH_local_cuts.json"


# -- measurement harness --------------------------------------------------


def _best_of(fn, repeats, graph=None):
    """Fastest of ``repeats`` calls.  With ``graph`` given, its kernel and
    its memo (ball masks, memoised cut lists) are dropped,
    untimed, before each call, so every repeat times a cold enumeration
    rather than a memo hit."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        if graph is not None:
            invalidate_kernel(graph)
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _contrast(
    name, graph_name, n, m, legacy_fn, kernel_fn, repeats, normalize=None, graph=None
):
    """Best-of timing for both paths plus an (untimed) agreement check;
    ``graph`` makes every kernel-side repeat cold (see :func:`_best_of`)."""
    legacy_s, legacy_out = _best_of(legacy_fn, repeats)
    kernel_s, kernel_out = _best_of(kernel_fn, repeats, graph)
    if normalize is not None:
        legacy_out = normalize(legacy_out)
        kernel_out = normalize(kernel_out)
    return {
        "primitive": name,
        "graph": graph_name,
        "n": n,
        "m": m,
        "legacy_s": round(legacy_s, 6),
        "kernel_s": round(kernel_s, 6),
        "speedup": round(legacy_s / kernel_s, 2) if kernel_s else float("inf"),
        "agree": legacy_out == kernel_out,
    }


def _twin_chain(blocks, clique):
    """A chain of cliques bridged at their base vertices: twin-rich."""
    graph = nx.Graph()
    for b in range(blocks):
        base = b * clique
        for i in range(clique):
            for j in range(i + 1, clique):
                graph.add_edge(base + i, base + j)
        if b:
            graph.add_edge((b - 1) * clique, base)
    return graph


def bench_graphs(quick):
    if quick:
        return [
            ("ladder24", gen.ladder(24)),
            ("chords48", gen.long_cycle_with_chords(48, 6)),
            # A hub graph (most pairs share one arena, so local_two_cuts
            # runs its articulation scans); n = 48 like the two above, so
            # the largest-n floor gates all three.
            ("fan47", gen.fan(47)),
        ]
    return [
        ("ladder80", gen.ladder(80)),
        ("chords120", gen.long_cycle_with_chords(120, 6)),
        ("caterpillar", gen.caterpillar(30, 2)),
    ]


def measure_primitives(graphs, repeats):
    rows = []
    for name, graph in graphs:
        n, m = graph.number_of_nodes(), graph.number_of_edges()
        rows.append(
            _contrast(
                "local_one_cuts",
                name,
                n,
                m,
                lambda g=graph: legacy_local_one_cuts(g, 2),
                lambda g=graph: local_one_cuts(g, 2),
                repeats,
                graph=graph,
            )
        )
        rows.append(
            _contrast(
                "local_two_cuts",
                name,
                n,
                m,
                lambda g=graph: legacy_local_two_cuts(g, 3),
                lambda g=graph: local_two_cuts(g, 3),
                repeats,
                graph=graph,
            )
        )
        rows.append(
            _contrast(
                "interesting_vertices",
                name,
                n,
                m,
                lambda g=graph: legacy_interesting_vertices(g, 2),
                lambda g=graph: interesting_vertices(g, 2),
                repeats,
            )
        )
    return rows


def measure_twins(quick, repeats):
    blocks, clique = (30, 8) if quick else (100, 10)
    graph = _twin_chain(blocks, clique)
    n, m = graph.number_of_nodes(), graph.number_of_edges()

    def normalize(out):
        # Edge tuples orient differently in graph.copy() vs an induced
        # copy, so compare endpoint sets, not tuples.
        reduced, mapping = out
        edges = {frozenset(edge) for edge in reduced.edges}
        return (set(reduced.nodes), edges, mapping)

    return _contrast(
        "remove_true_twins",
        f"twin_chain{blocks}x{clique}",
        n,
        m,
        lambda: legacy_remove_true_twins(graph),
        lambda: remove_true_twins(graph),
        repeats,
        normalize=normalize,
    )


def measure_algorithm1(graphs, repeats):
    policy = RadiusPolicy.practical()
    rows = []
    for name, graph in graphs:
        n, m = graph.number_of_nodes(), graph.number_of_edges()
        rows.append(
            _contrast(
                "algorithm1_end_to_end",
                name,
                n,
                m,
                lambda g=graph: legacy_algorithm1_solution(g, policy),
                lambda g=graph: algorithm1(g, policy).solution,
                repeats,
                graph=graph,
            )
        )
    return rows


def run(quick: bool) -> dict:
    # best-of-2 even in quick mode: single-shot timings on shared CI
    # runners flake (CPU steal, GC pauses) for a few ms saved
    repeats = 2 if quick else 3
    graphs = bench_graphs(quick)
    primitives = measure_primitives(graphs, repeats)
    primitives.append(measure_twins(quick, repeats))
    return {
        "benchmark": "local_cuts",
        "quick": quick,
        "primitives": primitives,
        "algorithm1": measure_algorithm1(graphs, repeats),
    }


def check(result: dict, quick: bool) -> list[str]:
    """Regression assertions; quick mode uses looser CI-safe floors."""
    failures = []
    two_cut_floor = 2.0 if quick else 5.0
    e2e_floor = 1.5 if quick else 3.0
    for row in result["primitives"] + result["algorithm1"]:
        if row.get("agree") is False:
            failures.append(
                f"{row['primitive']} on {row['graph']}: outputs disagree"
            )
    largest_n = max(
        row["n"] for row in result["primitives"] if row["primitive"] == "local_two_cuts"
    )
    for row in result["primitives"]:
        if (
            row["primitive"] == "local_two_cuts"
            and row["n"] == largest_n
            and row["speedup"] < two_cut_floor
        ):
            failures.append(
                f"local_two_cuts on {row['graph']}: "
                f"speedup {row['speedup']} < {two_cut_floor}"
            )
    for row in result["algorithm1"]:
        if row["speedup"] < e2e_floor:
            failures.append(
                f"algorithm1 on {row['graph']}: speedup {row['speedup']} < {e2e_floor}"
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
        "BENCH_local_cuts.json)",
    )
    args = parser.parse_args(argv)
    result = run(quick=args.quick)
    out = args.out if args.out is not None else (None if args.quick else RESULT_PATH)
    if out is not None:
        out.write_text(json.dumps(result, indent=1))
    for row in result["primitives"] + result["algorithm1"]:
        print(
            f"{row['primitive']:>24} {row['graph']:<16} n={row['n']:<5} "
            f"legacy {row['legacy_s'] * 1e3:8.2f}ms  "
            f"kernel {row['kernel_s'] * 1e3:8.2f}ms  {row['speedup']:6.1f}x "
            f"agree={row['agree']}"
        )
    failures = check(result, quick=args.quick)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
