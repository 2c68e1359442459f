"""Vertex-cover solvers (the paper's results extend to MVC).

Provides the exact optimum (MILP), the classical maximal-matching
2-approximation, and the 0-round regular-graph observation from the
paper's introduction (take all vertices: 2-approximation on k-regular
graphs).
"""

from __future__ import annotations

from typing import Hashable

import networkx as nx
import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import csr_matrix

from repro.graphs.kernel import kernel_for

Vertex = Hashable


def is_vertex_cover(graph: nx.Graph, cover: set[Vertex]) -> bool:
    """Return whether ``cover`` touches every edge of ``graph``.

    One flag gather over the kernel CSR: the cover fails iff some edge
    slot has neither its row nor its column flagged (a self-loop needs
    its vertex).  Labels outside ``V(G)`` cover nothing.
    """
    kernel = kernel_for(graph).packed()
    try:
        flags = kernel.flags_of(cover)
    except KeyError:
        index_of = kernel.index_of
        flags = kernel.flags_of([v for v in cover if v in index_of])
    bare_rows = np.repeat(~flags, np.diff(kernel.indptr))
    return not (bare_rows & ~flags[kernel.indices]).any()


def minimum_vertex_cover(graph: nx.Graph) -> set[Vertex]:
    """Exact minimum vertex cover via MILP (one constraint per edge)."""
    if graph.number_of_edges() == 0:
        return set()
    nodes = sorted(graph.nodes, key=repr)
    index = {v: i for i, v in enumerate(nodes)}
    # Canonical edge order: the MILP input must not depend on insertion
    # order, so that independent observers (simulate mode) agree.  Labels
    # that do not compare (mixed types) are ordered by repr instead.
    pairs = [tuple(sorted(e, key=repr)) for e in graph.edges]
    try:
        edges = sorted(pairs)
    except TypeError:
        edges = sorted(pairs, key=repr)
    rows, cols = [], []
    for row, (u, v) in enumerate(edges):
        rows.extend([row, row])
        cols.extend([index[u], index[v]])
    matrix = csr_matrix(
        (np.ones(len(rows)), (rows, cols)),
        shape=(len(edges), len(nodes)),
    )
    result = milp(
        c=np.ones(len(nodes)),
        constraints=[LinearConstraint(matrix, lb=1, ub=np.inf)],
        integrality=np.ones(len(nodes)),
        bounds=Bounds(0, 1),
    )
    if not result.success:
        raise RuntimeError(f"MILP solver failed: {result.message}")
    cover = {nodes[i] for i in np.flatnonzero(np.round(result.x) > 0.5)}
    # Canonicalise: drop redundancies if any rounding slack crept in.
    # In a valid cover only v's own edges can lose cover when v leaves,
    # so v is redundant iff it has no self-loop and all its neighbours
    # are in the cover.
    for v in sorted(cover, key=repr):
        if all(u != v and u in cover for u in graph.neighbors(v)):
            cover.discard(v)
    return cover


def vertex_cover_number(graph: nx.Graph) -> int:
    """``MVC(G)`` as a number."""
    return len(minimum_vertex_cover(graph))


def matching_vertex_cover(graph: nx.Graph) -> set[Vertex]:
    """2-approximate vertex cover: both endpoints of a maximal matching.

    Deterministic: edges scanned in sorted order.
    """
    cover: set[Vertex] = set()
    for u, v in sorted(graph.edges, key=lambda e: (repr(e[0]), repr(e[1]))):
        if u not in cover and v not in cover:
            cover.add(u)
            cover.add(v)
    return cover


def all_vertices_cover(graph: nx.Graph) -> set[Vertex]:
    """The 0-round cover from the introduction: take every vertex.

    On k-regular graphs this is a 2-approximation (the graph has
    ``kn/2`` edges while ``p`` vertices cover at most ``pk``).
    """
    return set(graph.nodes)
