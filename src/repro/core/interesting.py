"""Global interesting 2-cuts: the Section 5.3 vocabulary.

For *global* (not radius-bounded) 2-cuts, the paper says ``v`` is
**interesting** when there is a 2-cut ``c = {u, v}`` with

* ``N[v] ⊄ N[u]``, and
* at least two components of ``G − c`` containing a vertex non-adjacent
  to ``u``;

``v`` is then a *friend* of ``u``, the cut is an *interesting cut*, and
a vertex with only the second property is *almost-interesting*.  These
global notions drive the charging argument of Lemma 3.3; the algorithm
itself uses the local variants in :mod:`repro.graphs.local_cuts`.

All predicates run on kernel bitsets: the components of ``G − c`` are
masked flood fills, computed **once per cut** and shared between the two
orientations ``(u, v)`` and ``(v, u)`` (historically each orientation
re-derived them), and :func:`~repro.graphs.cuts.minimal_two_cuts` is
memoized per kernel so the enumeration itself is paid once per graph.
"""

from __future__ import annotations

from typing import Hashable

import networkx as nx

from repro.graphs.cuts import minimal_two_cuts, removal_component_masks
from repro.graphs.kernel import GraphKernel, kernel_for

Vertex = Hashable


def _second_condition_masks(
    kernel: GraphKernel, u: int, component_masks: list[int]
) -> bool:
    """≥ 2 components of ``G − c`` each holding a vertex non-adjacent to u."""
    n_u = kernel.closed_bits[u]
    witnesses = 0
    for component in component_masks:
        if component & ~n_u:
            witnesses += 1
            if witnesses >= 2:
                return True
    return False


def is_globally_interesting(graph: nx.Graph, v: Vertex, cut: frozenset[Vertex]) -> bool:
    """Is ``v`` interesting via the specific 2-cut ``cut = {u, v}``?"""
    if v not in cut or len(cut) != 2:
        return False
    (u,) = cut - {v}
    kernel = kernel_for(graph).bitsets()
    closed = kernel.closed_bits
    i_u, i_v = kernel.index_of[u], kernel.index_of[v]
    if not closed[i_v] & ~closed[i_u]:  # N[v] ⊆ N[u]
        return False
    return _second_condition_masks(kernel, i_u, removal_component_masks(graph, cut))


def _interesting_orientations(
    graph: nx.Graph, kernel: GraphKernel, cut: frozenset[Vertex]
) -> list[Vertex]:
    """The vertices of ``cut`` that are interesting via it.

    The components of ``G − cut`` are computed lazily and at most once,
    shared across both orientations.
    """
    closed = kernel.closed_bits
    index_of = kernel.index_of
    a, b = cut
    i_a, i_b = index_of[a], index_of[b]
    holders: list[Vertex] = []
    components: list[int] | None = None
    for v, i_v, i_u in ((a, i_a, i_b), (b, i_b, i_a)):
        if not closed[i_v] & ~closed[i_u]:  # first condition fails
            continue
        if components is None:
            components = removal_component_masks(graph, cut)
        if _second_condition_masks(kernel, i_u, components):
            holders.append(v)
    return holders


def globally_interesting_vertices(graph: nx.Graph) -> set[Vertex]:
    """All vertices interesting via some global minimal 2-cut."""
    kernel = kernel_for(graph).bitsets()
    result: set[Vertex] = set()
    for cut in minimal_two_cuts(graph):
        result.update(_interesting_orientations(graph, kernel, cut))
    return result


def interesting_cuts(graph: nx.Graph) -> list[frozenset[Vertex]]:
    """Minimal 2-cuts ``{u, v}`` where ``v`` is interesting and a friend of
    ``u`` (i.e. at least one vertex of the cut is interesting via it)."""
    kernel = kernel_for(graph).bitsets()
    return [
        cut
        for cut in minimal_two_cuts(graph)
        if _interesting_orientations(graph, kernel, cut)
    ]


def almost_interesting_vertices(graph: nx.Graph) -> set[Vertex]:
    """Vertices satisfying only the component condition (Section 5.3)."""
    kernel = kernel_for(graph).bitsets()
    index_of = kernel.index_of
    result: set[Vertex] = set()
    for cut in minimal_two_cuts(graph):
        components = removal_component_masks(graph, cut)
        a, b = cut
        if _second_condition_masks(kernel, index_of[b], components):
            result.add(a)
        if _second_condition_masks(kernel, index_of[a], components):
            result.add(b)
    return result


def covering_noncrossing_families(graph: nx.Graph) -> list[list[frozenset[Vertex]]]:
    """A Proposition 5.8-style cover: few non-crossing families of cuts.

    Selects, for every interesting vertex, one certifying cut — greedily
    preferring cuts that certify several vertices and cross few chosen
    cuts — then partitions the chosen cuts into non-crossing families.
    The paper proves 3 families always suffice for a suitable choice;
    tests check the greedy matches that bound on the paper's families.
    """
    from repro.graphs.cuts import crossing_two_cuts
    from repro.graphs.spqr import noncrossing_families

    kernel = kernel_for(graph).bitsets()
    certified: dict[frozenset[Vertex], set[Vertex]] = {}
    for cut in minimal_two_cuts(graph):
        holders = set(_interesting_orientations(graph, kernel, cut))
        if holders:
            certified[cut] = holders

    uncovered = set().union(*certified.values()) if certified else set()
    chosen: list[frozenset[Vertex]] = []
    while uncovered:
        def score(cut: frozenset[Vertex]) -> tuple[int, int, str]:
            gain = len(certified[cut] & uncovered)
            crossings = sum(
                1 for other in chosen if crossing_two_cuts(graph, cut, other)
            )
            return (-gain, crossings, repr(sorted(cut, key=repr)))

        best = min((c for c in certified if certified[c] & uncovered), key=score)
        chosen.append(best)
        uncovered -= certified[best]
    return noncrossing_families(graph, chosen)


def friends(graph: nx.Graph, u: Vertex) -> set[Vertex]:
    """All friends of ``u``: partners of cuts through which ``u``'s partner
    is interesting (the charging argument walks these)."""
    result: set[Vertex] = set()
    for cut in minimal_two_cuts(graph):
        if u in cut:
            (v,) = cut - {u}
            if is_globally_interesting(graph, u, cut):
                result.add(v)
    return result
