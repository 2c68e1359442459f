"""True-twin detection and removal (Section 2 of the paper).

Two distinct vertices ``u`` and ``v`` are *true twins* when
``N[u] = N[v]`` (in particular they are adjacent).  The *true-twin-less
graph* ``G⁻`` associated to ``G`` keeps exactly one representative of
every true-twin class; the paper notes that ``MDS(G⁻) = MDS(G)`` and that
``G⁻`` is computable in a constant number of LOCAL rounds (each vertex
learns its neighbors' closed neighborhoods in 2 rounds and the
lowest-identifier twin survives).

We mirror that determinism: the representative of each class is the
minimum vertex under sorted-repr order, so distributed and centralized
computations agree.

Detection groups vertices by their sorted closed-neighborhood CSR rows
(one dict insert per vertex, keyed by the row's bytes) instead of
hashing a ``frozenset`` per vertex, and the iterated removal is
:func:`repro.graphs.packed.twin_survivor_indices`, a fixpoint over a
shrinking survivor array on either kernel backend — the reduced graph
is materialized once at the end, not mutated per round.
"""

from __future__ import annotations

from typing import Hashable

import networkx as nx

from repro.graphs.kernel import kernel_for
from repro.graphs.packed import twin_survivor_indices

Vertex = Hashable


def true_twin_classes(graph: nx.Graph) -> list[set[Vertex]]:
    """Group the vertices of ``graph`` into true-twin equivalence classes.

    Vertices with a unique closed neighborhood form singleton classes.
    The result is deterministic: classes are sorted by their representative
    (dict insertion order already walks kernel indices ascending, and the
    kernel index of a class's first member *is* its repr-least vertex).
    """
    kernel = kernel_for(graph)
    labels = kernel.labels
    buckets: dict = {}
    for i, key in enumerate(_closed_keys(kernel)):
        buckets.setdefault(key, []).append(i)
    return [{labels[i] for i in members} for members in buckets.values()]


def _closed_keys(kernel):
    """Hashable per-vertex closed-neighborhood keys, kernel order: the
    sorted closed CSR rows as bytes (no mask table is read)."""
    cind, ccols = kernel.packed()._closed_csr()
    return (ccols[cind[i] : cind[i + 1]].tobytes() for i in range(kernel.n))


def has_true_twins(graph: nx.Graph) -> bool:
    """Return whether ``graph`` contains at least one true-twin pair."""
    kernel = kernel_for(graph)
    return len(set(_closed_keys(kernel))) < kernel.n


def twin_representative(cls: set[Vertex]) -> Vertex:
    """Deterministic representative of a twin class (min by repr order)."""
    return min(cls, key=repr)


def remove_true_twins(graph: nx.Graph) -> tuple[nx.Graph, dict[Vertex, Vertex]]:
    """Return ``(G⁻, representative_map)``.

    ``G⁻`` is the induced subgraph of ``graph`` on one representative per
    true-twin class, iterated until no true twins remain (removing twins
    can create new ones, e.g. in a clique).  ``representative_map`` sends
    every original vertex to the vertex of ``G⁻`` that represents it.

    ``MDS(G⁻) = MDS(G)``: a dominating set of ``G⁻`` dominates ``G``
    because a removed twin has the same closed neighborhood as its
    representative.

    The fixpoint is :func:`repro.graphs.packed.twin_survivor_indices`
    on the kernel's CSR; only the reduced graph is an ``nx`` subgraph,
    so callers needing a graph-free reduction use that function
    directly (as the D₂ pipeline does).
    """
    kernel = kernel_for(graph)
    labels = kernel.labels
    survivor_idx, representative = twin_survivor_indices(kernel.packed())
    mapping = {labels[i]: labels[rep] for i, rep in enumerate(representative.tolist())}
    reduced = graph.subgraph([labels[i] for i in survivor_idx.tolist()]).copy()
    return reduced, mapping

