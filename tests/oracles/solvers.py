"""Verbatim copies of retired solver and batch-runner implementations, under the
conventions of :mod:`tests.oracles.graphs`."""

from __future__ import annotations

import networkx as nx

from repro.api import solve
from repro.graphs.kernel import GraphKernel
from repro.graphs.util import closed_neighborhood, closed_neighborhood_of_set
from repro.solvers.exact import minimum_b_dominating_set
from repro.solvers.greedy import greedy_b_dominating_set


# -- solvers/branch_and_bound.py, as of 675e96a -------------------------------


def legacy_bnb_minimum_b_dominating_set(graph, targets, candidates=None):
    target_set = set(targets)
    if not target_set:
        return set()
    if candidates is None:
        candidate_set = closed_neighborhood_of_set(graph, target_set)
    else:
        candidate_set = set(candidates)

    coverers = {}
    covers = {c: closed_neighborhood(graph, c) & target_set for c in candidate_set}
    for b in target_set:
        options = sorted(
            (c for c in closed_neighborhood(graph, b) if c in candidate_set), key=repr
        )
        if not options:
            raise ValueError(f"target {b!r} cannot be dominated by any candidate")
        coverers[b] = options

    incumbent = greedy_b_dominating_set(graph, target_set, candidate_set)
    best = [set(incumbent)]

    def packing_bound(remaining):
        bound = 0
        blocked = set()
        for b in sorted(remaining, key=lambda v: (len(coverers[v]), repr(v))):
            if b in blocked:
                continue
            bound += 1
            for c in coverers[b]:
                blocked |= covers[c]
        return bound

    def search(chosen, remaining):
        if not remaining:
            if len(chosen) < len(best[0]):
                best[0] = set(chosen)
            return
        if len(chosen) + packing_bound(remaining) >= len(best[0]):
            return
        pivot = min(remaining, key=lambda v: (len(coverers[v]), repr(v)))
        for c in coverers[pivot]:
            search(chosen | {c}, remaining - covers[c])

    search(set(), set(target_set))
    return best[0]


def legacy_bnb_minimum_dominating_set(graph):
    import networkx as nx

    solution = set()
    for component in nx.connected_components(graph):
        sub = graph.subgraph(component)
        solution |= legacy_bnb_minimum_b_dominating_set(sub, component)
    return solution


# -- api runner, one exact solve per task, as of 675e96a ----------------------


def legacy_per_task_sweep(instances, algorithms, config):
    """The runner shape before instance-major batches: one task — and one exact solve — per
    ``(instance, algorithm)`` pair (``opt_cache=False`` reproduces the
    per-task OPT recomputation exactly)."""
    per_task = config.with_(opt_cache=False)
    return [
        solve(graph, name, per_task, meta=meta)
        for meta, graph in instances
        for name in algorithms
    ]


# -- solvers/exact.py component split, as of 7d872f5 --------------------------


def legacy_minimum_dominating_set(graph):
    """The component split before it moved onto the kernel CSR."""
    solution = set()
    for component in nx.connected_components(graph):
        sub = graph.subgraph(component)
        solution |= minimum_b_dominating_set(sub, component)
    return solution


# -- solvers/bounds.py two-packing greedy, as of c1fc6a6 ----------------------


def legacy_two_packing(graph):
    """The int-bitset greedy ``two_packing_lower_bound`` ran before it
    moved onto the CSR core, verbatim except that the degree is read
    from the CSR kernel."""
    kernel = GraphKernel(graph)
    degree = kernel.packed().degree
    labels = kernel.labels
    blocked = 0
    count = 0
    order = sorted(range(kernel.n), key=lambda i: (degree(i), i))
    for i in order:
        if blocked >> i & 1:
            continue
        count += 1
        blocked |= kernel.ball_bits(labels[i], 2)
    return count
