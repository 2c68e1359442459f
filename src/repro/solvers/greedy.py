"""Greedy set-cover baselines for (B-)domination.

The classical centralized greedy picks the vertex covering the most
still-undominated targets; its ratio is ``ln Δ + O(1)`` in general.  It
appears in experiments as the "what a non-local algorithm achieves"
reference, and inside branch-and-bound as the initial incumbent.
"""

from __future__ import annotations

from typing import Hashable, Iterable

import networkx as nx

from repro.graphs.kernel import kernel_for
from repro.graphs.packed import greedy_cover_packed

Vertex = Hashable


def greedy_b_dominating_set(
    graph: nx.Graph,
    targets: Iterable[Vertex],
    candidates: Iterable[Vertex] | None = None,
) -> set[Vertex]:
    """Greedy set of ``candidates`` dominating ``targets``.

    Deterministic: each pick covers the most still-undominated targets,
    ties toward the smallest vertex (repr order — exactly the kernel's
    index order).  The selection loop is
    :func:`repro.graphs.packed.greedy_cover_packed` on the kernel's CSR,
    the same core branch-and-bound seeds its incumbent with.
    """
    kernel = kernel_for(graph).packed()
    remaining = kernel.bits_of(targets)
    if not remaining:
        return set()
    if candidates is None:
        candidate_mask = kernel.closed_neighborhood_bits(remaining)
    else:
        candidate_mask = kernel.bits_of(candidates)
    return kernel.labels_of(greedy_cover_packed(kernel, remaining, candidate_mask))


def greedy_dominating_set(graph: nx.Graph) -> set[Vertex]:
    """Greedy dominating set of the whole graph."""
    return greedy_b_dominating_set(graph, graph.nodes)
