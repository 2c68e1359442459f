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
import numpy as np

from repro.core.results import AlgorithmResult
from repro.graphs.kernel import kernel_for
from repro.graphs.packed import (
    bits_from_flags,
    d2_members_packed,
    flags_from_bits,
    gamma_packed,
    uncovered_component_roots,
)
from repro.graphs.twins import twin_fixpoint

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


def twin_free_d2_flags(graph: nx.Graph) -> np.ndarray:
    """``D₂(G⁻)`` as read-only boolean flags over ``graph``'s kernel indices.

    ``G⁻`` is the twin-free graph of :func:`~repro.graphs.twins.twin_fixpoint`;
    removed twins are never flagged.  Memoised in ``kernel_for(graph).memo``
    under ``"d2"``, so ``d2`` and ``d2_vc`` on one graph compute it once.
    """
    kernel = kernel_for(graph)
    flags = kernel.memo.get("d2")
    if flags is None:
        packed = kernel.packed()
        survivors, _ = twin_fixpoint(graph)
        reduced = packed if survivors.size == packed.n else packed.induced(survivors)
        flags = np.zeros(packed.n, dtype=bool)
        flags[survivors] = flags_from_bits(d2_members_packed(reduced), reduced.n)
        flags.flags.writeable = False
        kernel.memo["d2"] = flags
    return flags


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
    survivors, _ = twin_fixpoint(graph)
    chosen = twin_free_d2_flags(graph).copy()
    # A single vertex (after twin reduction a K_n collapses to one) has
    # gamma undefined; it must dominate itself.  Removing a twin keeps
    # its component connected, and a removed twin's representative has
    # a lower index, so each component of ``G⁻`` is a component of ``G``
    # with the same lowest index.  Kernel index order is repr order, so
    # each root is its component's repr-least vertex.
    chosen[uncovered_component_roots(kernel, chosen)] = True
    solution = kernel.labels_of(bits_from_flags(chosen))
    return AlgorithmResult(
        name="d2",
        solution=solution,
        rounds=D2_ROUNDS,
        phases={"d2": set(solution)},
        round_breakdown={"total": D2_ROUNDS},
        metadata={"twin_free_size": int(survivors.size)},
    )
