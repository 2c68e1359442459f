"""Exact (B-)domination via integer programming (HiGHS through scipy).

``MDS(G)`` and its restricted variant ``MDS(G, B)`` (Section 2: the
minimum size of a set dominating every vertex of ``B``; WLOG the set can
be taken inside ``N[B]``) are both set-cover integer programs:

    minimise   Σ x_v
    subject to Σ_{v ∈ N[b] ∩ candidates} x_v ≥ 1   for every b ∈ B
               x_v ∈ {0, 1}

Ties between optimal solutions are broken deterministically by
re-solving: HiGHS itself is deterministic for a fixed input, and we sort
rows/columns, so repeated calls agree — a property the LOCAL simulation
relies on when several vertices brute-force the same component
(footnote 2 of the paper).
"""

from __future__ import annotations

from typing import Hashable, Iterable

import networkx as nx
import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import csr_matrix

from repro.graphs.kernel import kernel_for
from repro.graphs.util import closed_neighborhood, closed_neighborhood_of_set

Vertex = Hashable


def minimum_b_dominating_set(
    graph: nx.Graph,
    targets: Iterable[Vertex],
    candidates: Iterable[Vertex] | None = None,
) -> set[Vertex]:
    """Exact minimum set of ``candidates`` dominating every vertex of ``targets``.

    ``candidates`` defaults to ``N[targets]`` (sufficient by Section 2).
    Raises ``ValueError`` when some target has no candidate in its closed
    neighborhood (the instance is infeasible).
    """
    target_list = sorted(set(targets), key=repr)
    if not target_list:
        return set()
    if candidates is None:
        candidate_list = sorted(closed_neighborhood_of_set(graph, target_list), key=repr)
    else:
        candidate_list = sorted(set(candidates), key=repr)
    index = {v: i for i, v in enumerate(candidate_list)}

    rows, cols = [], []
    for row, b in enumerate(target_list):
        coverers = [index[v] for v in closed_neighborhood(graph, b) if v in index]
        if not coverers:
            raise ValueError(f"target {b!r} cannot be dominated by any candidate")
        for col in coverers:
            rows.append(row)
            cols.append(col)
    matrix = csr_matrix(
        (np.ones(len(rows)), (rows, cols)),
        shape=(len(target_list), len(candidate_list)),
    )
    constraint = LinearConstraint(matrix, lb=1, ub=np.inf)
    result = milp(
        c=np.ones(len(candidate_list)),
        constraints=[constraint],
        integrality=np.ones(len(candidate_list)),
        bounds=Bounds(0, 1),
    )
    if not result.success:
        raise RuntimeError(f"MILP solver failed: {result.message}")
    chosen = {candidate_list[i] for i in np.flatnonzero(np.round(result.x) > 0.5)}
    return _minimalise(graph, chosen, set(target_list))


def _minimalise(graph: nx.Graph, solution: set[Vertex], targets: set[Vertex]) -> set[Vertex]:
    """Drop redundant vertices (keeps the solution optimal and canonical).

    MILP can return optimal solutions with numerically-selected vertices
    whose removal keeps feasibility only when the optimum is not unique;
    removing them never happens at optimality (it would contradict
    minimality), so this is effectively a no-op safety net that also
    canonicalises rounding artefacts.
    """
    for v in sorted(solution, key=repr):
        reduced = solution - {v}
        covered = closed_neighborhood_of_set(graph, reduced)
        if targets <= covered:
            solution = reduced
    return solution


def minimum_dominating_set(graph: nx.Graph) -> set[Vertex]:
    """Exact minimum dominating set of ``graph`` (components solved separately).

    Components come from one ``scipy.sparse.csgraph`` labelling of the
    kernel CSR, and each is solved as ``MDS(G, component)`` on ``graph``
    itself: a component is closed under neighborhoods, so that is the
    component's own MILP, and no per-component subgraph or kernel is
    built.
    """
    from scipy.sparse.csgraph import connected_components

    kernel = kernel_for(graph).packed()
    count, component = connected_components(kernel.adjacency(), directed=False)
    order = np.argsort(component, kind="stable")
    bounds = np.searchsorted(component[order], np.arange(count + 1))
    labels = kernel.labels
    solution: set[Vertex] = set()
    for k in range(count):
        members = [labels[i] for i in order[bounds[k] : bounds[k + 1]].tolist()]
        solution |= minimum_b_dominating_set(graph, members)
    return solution


def domination_number(graph: nx.Graph) -> int:
    """``MDS(G)`` as a number (served from the per-instance OPT cache)."""
    from repro.solvers.opt_cache import optimum_size  # lazy: avoids cycle

    return optimum_size(graph, "mds", "milp")
