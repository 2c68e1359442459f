"""Global cut machinery: cut vertices, minimal 2-cuts, crossing cuts.

Definitions (Section 2 of the paper):

* a *k-cut* of ``G`` is a minimal set of ``k`` vertices whose removal
  increases the number of connected components of ``G``;
* a cut ``C`` is *minimal* when no proper subset of ``C`` is also a cut;
* two 2-cuts ``c1``, ``c2`` *cross* when the two vertices of ``c1`` lie in
  different components of ``G − c2`` and vice versa (Section 5.3).

These operate on the whole graph; their local (radius-bounded) analogues
live in :mod:`repro.graphs.local_cuts`.

Everything here runs on the graph's :class:`~repro.graphs.kernel.GraphKernel`:
vertex sets are int bitsets and "components of ``G − C``" is a masked
flood-fill fixpoint, never an ``nx.Graph.subgraph`` plus a networkx
traversal.  :func:`minimal_two_cuts` is additionally memoized in the
kernel's ``memo`` (the Section 5.3 consumers — interesting cuts,
friends, strip detection — all re-enumerate it), so
:func:`~repro.graphs.kernel.invalidate_kernel` drops it with the kernel.
"""

from __future__ import annotations

from itertools import combinations
from typing import Hashable, Iterable

import networkx as nx

from repro.graphs.kernel import GraphKernel, iter_bits, kernel_for

Vertex = Hashable


def _cut_mask(kernel: GraphKernel, cut: Iterable[Vertex]) -> int:
    """Bitset of the cut's vertices; labels absent from the graph are
    ignored (removing a vertex that is not there removes nothing)."""
    index_of = kernel.index_of
    mask = 0
    for v in cut:
        i = index_of.get(v)
        if i is not None:
            mask |= 1 << i
    return mask


def is_cut(graph: nx.Graph, cut: Iterable[Vertex]) -> bool:
    """Return whether removing ``cut`` increases the component count.

    A cut that empties the graph does not count (there is nothing left to
    disconnect), matching the standard convention.
    """
    cut_set = set(cut)
    if not cut_set:
        return False
    kernel = kernel_for(graph).bitsets()
    rest = kernel.full_mask & ~_cut_mask(kernel, cut_set)
    if not rest:
        return False
    before = kernel.count_components_of_mask(kernel.full_mask)
    return kernel.count_components_of_mask(rest) > before


def is_minimal_cut(graph: nx.Graph, cut: Iterable[Vertex]) -> bool:
    """Return whether ``cut`` is a cut and no proper subset of it is one."""
    cut_set = set(cut)
    if not is_cut(graph, cut_set):
        return False
    kernel = kernel_for(graph).bitsets()
    mask = _cut_mask(kernel, cut_set)
    if mask.bit_count() < len(cut_set):
        # Labels outside the graph pad the set: the present vertices
        # alone form a proper subset that is equally a cut.
        return False
    full = kernel.full_mask
    before = kernel.count_components_of_mask(full)
    indices = list(iter_bits(mask))
    for size in range(1, len(indices)):
        for subset in combinations(indices, size):
            sub_mask = 0
            for i in subset:
                sub_mask |= 1 << i
            rest = full & ~sub_mask
            if rest and kernel.count_components_of_mask(rest) > before:
                return False
    return True


def cut_vertices(graph: nx.Graph) -> set[Vertex]:
    """Return all cut vertices (1-cuts) of ``graph``.

    Uses the linear-time articulation-point algorithm; 1-cuts are always
    minimal so no extra filtering is needed.
    """
    return set(nx.articulation_points(graph))


def cut_vertices_by_definition(graph: nx.Graph) -> set[Vertex]:
    """Quadratic definition-based 1-cut enumeration (used to cross-check)."""
    kernel = kernel_for(graph).bitsets()
    full = kernel.full_mask
    before = kernel.count_components_of_mask(full)
    result: set[Vertex] = set()
    for i, label in enumerate(kernel.labels):
        rest = full & ~(1 << i)
        if rest and kernel.count_components_of_mask(rest) > before:
            result.add(label)
    return result


def two_cuts(graph: nx.Graph) -> list[frozenset[Vertex]]:
    """Enumerate all (not necessarily minimal) 2-cuts of ``graph``.

    Pairs scan in kernel-index order (= sorted repr order), matching the
    historical sorted-pair enumeration order.
    """
    kernel = kernel_for(graph).bitsets()
    labels = kernel.labels
    full = kernel.full_mask
    base = kernel.count_components_of_mask(full)
    result = []
    for u, v in combinations(range(kernel.n), 2):
        rest = full & ~((1 << u) | (1 << v))
        if rest and kernel.count_components_of_mask(rest) > base:
            result.append(frozenset({labels[u], labels[v]}))
    return result


def minimal_two_cuts(graph: nx.Graph) -> list[frozenset[Vertex]]:
    """Enumerate all *minimal* 2-cuts ``{u, v}`` of ``graph``.

    ``{u, v}`` is minimal when it is a cut but neither ``{u}`` nor ``{v}``
    alone is one.  The enumeration is memoized per kernel: the Section
    5.3 machinery (interesting cuts, friends, almost-interesting
    vertices, strips) calls this repeatedly on the same graph.
    """
    kernel = kernel_for(graph).bitsets()
    cuts = kernel.memo.get("minimal_two_cuts")
    if cuts is None:
        cuts = kernel.memo["minimal_two_cuts"] = tuple(_minimal_two_cuts_uncached(kernel))
    return list(cuts)


def _minimal_two_cuts_uncached(kernel: GraphKernel) -> list[frozenset[Vertex]]:
    labels = kernel.labels
    full = kernel.full_mask
    base = kernel.count_components_of_mask(full)
    ones = 0
    for i in range(kernel.n):
        rest = full & ~(1 << i)
        if rest and kernel.count_components_of_mask(rest) > base:
            ones |= 1 << i
    result = []
    for u in range(kernel.n):
        if ones >> u & 1:
            continue
        # A minimal 2-cut's vertices share a component: a cross-component
        # pair only increases the count when one member already cuts alone.
        component = kernel.component_bits(1 << u, full)
        for v in iter_bits(component >> (u + 1)):
            v += u + 1
            if ones >> v & 1:
                continue
            rest = full & ~((1 << u) | (1 << v))
            if rest and kernel.count_components_of_mask(rest) > base:
                result.append(frozenset({labels[u], labels[v]}))
    return result


def removal_component_masks(graph: nx.Graph, cut: Iterable[Vertex]) -> list[int]:
    """Component bitsets of ``G − cut``, lowest kernel index first.

    The mask-level twin of :func:`components_after_removal`, shared with
    :mod:`repro.core.interesting` so one enumeration can serve both
    orientations of a cut.
    """
    kernel = kernel_for(graph).bitsets()
    return list(kernel.components_of_mask(kernel.full_mask & ~_cut_mask(kernel, cut)))


def _sorted_label_components(
    graph: nx.Graph, kernel: GraphKernel, masks: Iterable[int]
) -> list[set[Vertex]]:
    """Decode component masks to label sets in the historical order —
    the one ``nx.connected_components`` produced: by each component's
    earliest vertex in graph insertion order."""
    components = [kernel.labels_of(mask) for mask in masks]
    if len(components) > 1:
        position = {v: i for i, v in enumerate(graph.nodes)}
        components.sort(key=lambda comp: min(position[w] for w in comp))
    return components


def components_after_removal(graph: nx.Graph, cut: Iterable[Vertex]) -> list[set[Vertex]]:
    """Connected components of ``G − cut``, in the historical order."""
    return _sorted_label_components(
        graph, kernel_for(graph).bitsets(), removal_component_masks(graph, cut)
    )


def crossing_two_cuts(graph: nx.Graph, c1: Iterable[Vertex], c2: Iterable[Vertex]) -> bool:
    """Return whether 2-cuts ``c1`` and ``c2`` cross (Section 5.3).

    The cuts cross when the two vertices of ``c1`` lie in different
    components of ``G − c2`` *and* the two vertices of ``c2`` lie in
    different components of ``G − c1``.
    """
    c1_set, c2_set = set(c1), set(c2)
    if len(c1_set) != 2 or len(c2_set) != 2 or c1_set & c2_set:
        return False
    kernel = kernel_for(graph).bitsets()
    mask1 = _cut_mask(kernel, c1_set)
    mask2 = _cut_mask(kernel, c2_set)

    def separated(cut_mask: int, pair_mask: int) -> bool:
        low = pair_mask & -pair_mask
        high = pair_mask & ~low
        low_home = high_home = None
        for k, comp in enumerate(
            kernel.components_of_mask(kernel.full_mask & ~cut_mask)
        ):
            if comp & low:
                low_home = k
            if comp & high:
                high_home = k
        if low_home is None or high_home is None:  # inside the cut
            return False
        return low_home != high_home

    return separated(mask2, mask1) and separated(mask1, mask2)


def attached_components(graph: nx.Graph, cut: Iterable[Vertex]) -> list[set[Vertex]]:
    """Components of ``G − cut`` that have at least one neighbor in ``cut``.

    For a minimal cut every component of ``G − cut`` is attached, but for
    non-minimal candidate sets this filters out irrelevant components.
    """
    cut_set = set(cut)
    kernel = kernel_for(graph).bitsets()
    closed = kernel.closed_bits
    index_of = kernel.index_of
    boundary = 0
    for v in cut_set:
        boundary |= closed[index_of[v]]
    masks = [
        mask for mask in removal_component_masks(graph, cut_set) if mask & boundary
    ]
    return _sorted_label_components(graph, kernel, masks)
