"""Theorem 4.4: the 3-round ``(2t−1)``-approximation via ``D₂``.

For a graph without true twins let ``γ(v)`` be the minimum number of
vertices *different from v* needed to dominate ``N[v]``, and

    D₂(G) = { v : γ(v) ≥ 2 }
          = { v : there is no u ≠ v with N[v] ⊆ N[u] }.

Lemma 5.19 shows ``D₂`` dominates every twin-free graph, and
Corollary 5.20 bounds ``|D₂| ≤ (2t−1)·MDS(G)`` on ``K_{2,t}``-minor-free
graphs.  The LOCAL cost is 3 rounds: one to learn neighbor identifiers,
one to learn the neighbors' closed neighborhoods (which also runs the
twin election), one to settle ``γ(v) ≥ 2`` — note ``N[v] ⊆ N[u]``
forces ``u ∈ N[v]``, so the test is radius-2 information.
"""

from __future__ import annotations

from typing import Hashable

import networkx as nx

from repro.core.results import AlgorithmResult
from repro.graphs.kernel import kernel_for
from repro.graphs.packed import d2_members_packed, gamma_packed, twin_survivor_indices

Vertex = Hashable

D2_ROUNDS = 3


def gamma(graph: nx.Graph, v: Vertex) -> int:
    """``γ(v)``: 1 when a single other vertex dominates ``N[v]``, else ≥ 2.

    Only the 1-versus-more distinction matters to the algorithm, so the
    return value is capped at 2.  ``N[v] ⊆ N[u]`` is one sorted-row
    membership scan per neighbor over the closed CSR.
    """
    kernel = kernel_for(graph)
    return gamma_packed(kernel.packed(), kernel.index(v))


def d2_set(graph: nx.Graph) -> set[Vertex]:
    """``D₂(G)``: vertices whose closed neighborhood needs ≥ 2 dominators."""
    kernel = kernel_for(graph).packed()
    return kernel.labels_of(d2_members_packed(kernel))


def d2_dominating_set(graph: nx.Graph) -> AlgorithmResult:
    """Theorem 4.4's algorithm: twin reduction, then output ``D₂``.

    Valid on every graph; the ``(2t−1)`` guarantee holds when the input
    is ``K_{2,t}``-minor-free.  The whole pipeline runs on CSR arrays
    (no ``nx`` subgraphs, no mask table) for every kernel and for
    :class:`~repro.graphs.kernel.KernelView` instances alike.
    """
    if graph.number_of_nodes() == 0:
        return AlgorithmResult(name="d2", solution=set(), rounds=0)
    kernel = kernel_for(graph).packed()
    survivors, _ = twin_survivor_indices(kernel)
    reduced = kernel.induced(survivors)
    members = d2_members_packed(reduced)
    solution = reduced.labels_of(members)
    # A single vertex (after twin reduction a K_n collapses to one) has
    # gamma undefined; it must dominate itself.  ``induced`` keeps labels
    # in kernel (repr) order, so a component's lowest index is its
    # repr-least vertex.
    for component in reduced.components_of_mask(reduced.full_mask):
        if not (component & members):
            solution.add(reduced.labels[int(component.indices()[0])])
    return AlgorithmResult(
        name="d2",
        solution=solution,
        rounds=D2_ROUNDS,
        phases={"d2": set(solution)},
        round_breakdown={"total": D2_ROUNDS},
        metadata={"twin_free_size": reduced.n},
    )
