"""Local-cut pipeline benchmark: bitset arenas vs legacy subgraph walks.

Measures everything the bitset local-cut rewrite touched — r-local 1-cut
and 2-cut enumeration, interesting-vertex detection, true-twin removal,
and an end-to-end Algorithm 1 run — against the pre-rewrite
implementations (kept verbatim below as the ``legacy_*`` functions,
which materialize a fresh ``graph.subgraph(ball_of_set(...))`` arena and
run networkx connectivity per candidate).  Results land in
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
--quick``) or under pytest for the full measurement
(``pytest benchmarks/bench_local_cuts.py``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import deque
from itertools import combinations
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
from repro.solvers.exact import minimum_b_dominating_set

RESULT_PATH = Path(__file__).parent / "BENCH_local_cuts.json"


# -- pre-rewrite reference implementations (verbatim) ----------------------


def legacy_closed_neighborhood(graph, v):
    result = set(graph.neighbors(v))
    result.add(v)
    return result


def legacy_closed_neighborhood_of_set(graph, vertices):
    result = set()
    for v in vertices:
        result.add(v)
        result.update(graph.neighbors(v))
    return result


def legacy_ball(graph, center, radius):
    if radius < 0:
        return set()
    seen = {center}
    frontier = deque([(center, 0)])
    while frontier:
        vertex, dist = frontier.popleft()
        if dist == radius:
            continue
        for neighbor in graph.neighbors(vertex):
            if neighbor not in seen:
                seen.add(neighbor)
                frontier.append((neighbor, dist + 1))
    return seen


def legacy_ball_of_set(graph, centers, radius):
    if radius < 0:
        return set()
    seen = set(centers)
    frontier = deque((v, 0) for v in seen)
    while frontier:
        vertex, dist = frontier.popleft()
        if dist == radius:
            continue
        for neighbor in graph.neighbors(vertex):
            if neighbor not in seen:
                seen.add(neighbor)
                frontier.append((neighbor, dist + 1))
    return seen


def legacy_is_cut(graph, cut):
    cut_set = set(cut)
    if not cut_set or not set(graph.nodes) - cut_set:
        return False
    before = nx.number_connected_components(graph)
    after = nx.number_connected_components(graph.subgraph(set(graph.nodes) - cut_set))
    return after > before


def legacy_is_minimal_cut(graph, cut):
    cut_set = set(cut)
    if not legacy_is_cut(graph, cut_set):
        return False
    for size in range(1, len(cut_set)):
        for subset in combinations(sorted(cut_set, key=repr), size):
            if legacy_is_cut(graph, subset):
                return False
    return True


def legacy_local_cut_subgraph(graph, cut, r):
    return graph.subgraph(legacy_ball_of_set(graph, cut, r))


def legacy_is_local_one_cut(graph, v, r):
    arena = legacy_local_cut_subgraph(graph, {v}, r)
    return legacy_is_cut(arena, {v})


def legacy_local_one_cuts(graph, r):
    return {v for v in graph.nodes if legacy_is_local_one_cut(graph, v, r)}


def legacy_is_local_two_cut(graph, u, v, r, *, minimal=True):
    if u == v:
        return False
    if v not in legacy_ball(graph, u, r):
        return False
    cut = {u, v}
    arena = legacy_local_cut_subgraph(graph, cut, r)
    if minimal:
        return legacy_is_minimal_cut(arena, cut)
    return legacy_is_cut(arena, cut)


def legacy_local_two_cuts(graph, r, *, minimal=True):
    seen = set()
    result = []
    for u in sorted(graph.nodes, key=repr):
        for v in sorted(legacy_ball(graph, u, r), key=repr):
            if v == u:
                continue
            pair = frozenset({u, v})
            if pair in seen:
                continue
            seen.add(pair)
            if legacy_is_local_two_cut(graph, u, v, r, minimal=minimal):
                result.append(pair)
    return result


def legacy_certifies_interesting(graph, u, v, r):
    n_u = legacy_closed_neighborhood(graph, u)
    n_v = legacy_closed_neighborhood(graph, v)
    if n_v <= n_u:
        return False
    arena = legacy_local_cut_subgraph(graph, {u, v}, r)
    rest = set(arena.nodes) - {u, v}
    witnesses = 0
    for comp in nx.connected_components(arena.subgraph(rest)):
        if any(w not in n_u for w in comp):
            witnesses += 1
            if witnesses >= 2:
                return True
    return False


def legacy_is_interesting_vertex(graph, v, r):
    for u in sorted(legacy_ball(graph, v, r), key=repr):
        if u == v:
            continue
        if not legacy_is_local_two_cut(graph, u, v, r, minimal=True):
            continue
        if legacy_certifies_interesting(graph, u, v, r):
            return True
    return False


def legacy_interesting_vertices(graph, r):
    return {v for v in graph.nodes if legacy_is_interesting_vertex(graph, v, r)}


def legacy_interesting_vertices_of_cuts(graph, cuts, r):
    result = set()
    for cut in cuts:
        u, v = sorted(cut, key=repr)
        if v not in result and legacy_certifies_interesting(graph, u, v, r):
            result.add(v)
        if u not in result and legacy_certifies_interesting(graph, v, u, r):
            result.add(u)
    return result


def legacy_true_twin_classes(graph):
    buckets = {}
    for v in graph.nodes:
        key = frozenset(legacy_closed_neighborhood(graph, v))
        buckets.setdefault(key, set()).add(v)
    classes = list(buckets.values())
    classes.sort(key=lambda cls: repr(min(cls, key=repr)))
    return classes


def legacy_remove_true_twins(graph):
    mapping = {v: v for v in graph.nodes}
    current = graph.copy()
    while True:
        classes = legacy_true_twin_classes(current)
        removable = [cls for cls in classes if len(cls) > 1]
        if not removable:
            break
        for cls in removable:
            rep = min(cls, key=repr)
            for v in cls:
                if v != rep:
                    current.remove_node(v)
                    mapping[v] = rep
    for v in list(mapping):
        rep = mapping[v]
        while mapping[rep] != rep:
            rep = mapping[rep]
        mapping[v] = rep
    return current, mapping


def legacy_distances_from(graph, source):
    dist = {source: 0}
    frontier = deque([source])
    while frontier:
        vertex = frontier.popleft()
        d = dist[vertex]
        for neighbor in graph.neighbors(vertex):
            if neighbor not in dist:
                dist[neighbor] = d + 1
                frontier.append(neighbor)
    return dist


def legacy_weak_diameter(graph, vertices):
    vertex_list = list(vertices)
    if len(vertex_list) <= 1:
        return 0
    best = 0
    targets = set(vertex_list)
    for v in vertex_list:
        dist = legacy_distances_from(graph, v)
        for u in targets:
            if u not in dist:
                raise ValueError(f"vertices {v!r} and {u!r} are disconnected in G")
            if dist[u] > best:
                best = dist[u]
    return best


def legacy_algorithm1_solution(graph, policy):
    """The pre-rewrite Algorithm 1 pipeline, composed verbatim.

    Twin reduction, phase sets, residual components and span all use the
    legacy subgraph-walking pieces; the brute-force step uses the same
    exact solver as the production path (identical on both sides).
    """
    if graph.number_of_nodes() == 0:
        return set()
    reduced, _ = legacy_remove_true_twins(graph)
    x_set = legacy_local_one_cuts(reduced, policy.one_cut_radius)
    cuts = legacy_local_two_cuts(reduced, policy.two_cut_radius, minimal=True)
    i_set = legacy_interesting_vertices_of_cuts(reduced, cuts, policy.two_cut_radius)
    taken = x_set | i_set
    dominated = legacy_closed_neighborhood_of_set(reduced, taken) if taken else set()
    undominated = set(reduced.nodes) - dominated
    u_set = {
        u
        for u in dominated - taken
        if legacy_closed_neighborhood(reduced, u) <= dominated
    }
    residual_nodes = set(reduced.nodes) - x_set - i_set - u_set
    components = []
    for component in nx.connected_components(reduced.subgraph(residual_nodes)):
        targets = undominated & set(component)
        if targets:
            components.append((set(component), targets))
    components.sort(key=lambda pair: repr(min(pair[0], key=repr)))
    brute = set()
    span = 0
    for component, targets in components:
        brute |= minimum_b_dominating_set(reduced, targets)
        zone = component | legacy_closed_neighborhood_of_set(reduced, targets)
        span = max(span, legacy_weak_diameter(reduced, zone))
    return x_set | i_set | brute


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


# -- pytest entry points --------------------------------------------------


def test_bench_local_two_cuts(benchmark):
    graph = gen.ladder(80)
    local_two_cuts(graph, 3)  # warm the kernel + ball-mask cache
    benchmark.pedantic(local_two_cuts, args=(graph, 3), rounds=3, iterations=5)


def test_write_local_cuts_contrast():
    """Full measurement; persists BENCH_local_cuts.json and enforces floors."""
    result = run(quick=False)
    RESULT_PATH.write_text(json.dumps(result, indent=1))
    failures = check(result, quick=False)
    assert not failures, failures


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
