"""Validity checkers for dominating sets and their B-restricted variants."""

from __future__ import annotations

from typing import Hashable, Iterable

import networkx as nx

from repro.graphs.kernel import kernel_for

Vertex = Hashable


def undominated_vertices(graph: nx.Graph, candidate: Iterable[Vertex]) -> set[Vertex]:
    """Vertices of ``graph`` not dominated by ``candidate``.

    Runs on the graph's bitset kernel: one OR per candidate vertex, one
    complement — no per-call ``set(graph.nodes)`` materialisation, and
    only the actually-undominated bits are converted back to labels.
    """
    kernel = kernel_for(graph)
    return kernel.labels_of(kernel.full_mask & ~kernel.union_closed_bits(candidate))


def is_dominating_set(graph: nx.Graph, candidate: Iterable[Vertex]) -> bool:
    """Return whether ``candidate`` dominates all of ``graph``.

    Fast path: one closed-bitset OR per candidate vertex and a single
    integer comparison — a dominating candidate never pays for
    materialising the undominated remainder (the kernel's ``dominates``
    check, label-direct).
    """
    return kernel_for(graph).dominates_vertices(candidate)


def is_b_dominating_set(
    graph: nx.Graph, candidate: Iterable[Vertex], targets: Iterable[Vertex]
) -> bool:
    """Return whether ``candidate`` dominates every vertex of ``targets``.

    A target that is not a vertex of ``graph`` is simply not dominated
    (the answer is ``False``, matching the historical set-inclusion
    semantics), whereas an unknown *candidate* vertex is an error.
    """
    kernel = kernel_for(graph)
    dominated = kernel.union_closed_bits(candidate)
    index_of = kernel.index_of
    known: list[Vertex] = []
    for v in targets:
        if v not in index_of:  # a target outside V(G) cannot be dominated
            return False
        known.append(v)
    return not (kernel.bits_of(known) & ~dominated)
