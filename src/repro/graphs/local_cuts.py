"""Local cuts (Definition 2.1) and interesting vertices (Sections 3–4).

A set ``C`` is an *r-local k-cut* of ``G`` when

* the vertices of ``C`` are pairwise at distance at most ``r`` in ``G``, and
* ``C`` is a k-cut of ``H = G[∪_{v∈C} N^r[v]]``.

All cuts considered by the paper's algorithms are *minimal* (no proper
subset of the cut is also a cut of ``H``); for a 2-cut ``{u, v}`` this
means neither ``u`` nor ``v`` alone disconnects ``H``.

A vertex ``v`` is *r-interesting* (``r ≥ 2``) when there is an r-local
2-cut ``c = {u, v}`` with

* ``N[v] ⊄ N[u]``, and
* at least two connected components of ``G[N^r[c]] − c`` each contain a
  vertex non-adjacent to ``u``.

These predicates are all decidable from radius-``r + 1`` views, which is
what makes the paper's Algorithm 1 a LOCAL algorithm.

Implementation
--------------

Arenas are **int bitsets** on the graph's
:class:`~repro.graphs.kernel.GraphKernel`: ``H`` is ``ball_u | ball_v``,
a cut test is a masked flood fill on the arena mask, and no
``nx.Graph.subgraph`` object is ever materialized.  Each vertex's
radius-``r`` ball mask is computed **once per (kernel, r)** and reused
across every pair the vertex participates in (the ball-mask arena
table).  Enumerating all r-local 2-cuts costs one ball BFS per vertex
plus, per vertex ``u``, one articulation scan for each arena its
partners share (flood fills for arenas with few partners) — instead of
the historical O(n·|ball|) fresh-subgraph + networkx-connectivity calls.
The cut enumerations are memoised too: :func:`local_one_cuts` and
:func:`local_two_cuts` store their results as immutable
tuples/frozensets, and hand every caller a fresh ``set``/``list``.  So
Algorithm 1, its Algorithm 2 re-parameterisation and the MVC variant,
run on one graph, enumerate each cut list once.

Both live in the kernel's ``memo``: a table under ``("balls", r)``
(masks filled lazily per vertex), a cut list under
``(kind, r, minimal)``.  They go with the kernel, so
``invalidate_kernel(graph)`` and a kernel rebuild (node-count change)
drop them.  Every search here runs on ``kernel_for(graph).bitsets()``:
the int kernel itself, or a packed kernel's cached bitset table, whose
memo then holds these entries.
"""

from __future__ import annotations

from typing import Hashable, Iterator

import networkx as nx

from repro.graphs.kernel import GraphKernel, iter_bits, kernel_for
from repro.graphs.util import ball_of_set

Vertex = Hashable


def _ball_masks(kernel: GraphKernel, radius: int) -> list:
    """The (lazily filled) per-vertex radius-``radius`` ball-mask table."""
    key = ("balls", radius)
    table = kernel.memo.get(key)
    if table is None:
        table = kernel.memo[key] = [None] * kernel.n
    return table


def _ball_mask(kernel: GraphKernel, table: list, i: int, radius: int) -> int:
    mask = table[i]
    if mask is None:
        mask = table[i] = kernel.ball_bits(kernel.labels[i], radius)
    return mask


def _splits_arena(kernel: GraphKernel, arena: int, cut_mask: int) -> bool:
    """Whether removing ``cut_mask`` disconnects the arena.

    Arenas are balls or unions of overlapping balls, hence connected, so
    "is a cut of ``H``" reduces to: the rest is non-empty and not one
    component (a single flood fill).
    """
    rest = arena & ~cut_mask
    if not rest:
        return False
    return not kernel.is_mask_connected(rest)


def local_cut_subgraph(graph: nx.Graph, cut: set[Vertex], r: int) -> nx.Graph:
    """Return ``H = G[∪_{v∈C} N^r[v]]``, the arena of the local-cut test."""
    return graph.subgraph(ball_of_set(graph, cut, r))


def is_local_one_cut(graph: nx.Graph, v: Vertex, r: int) -> bool:
    """Return whether ``{v}`` is an r-local (minimal) 1-cut of ``graph``."""
    kernel = kernel_for(graph).bitsets()
    table = _ball_masks(kernel, r)
    i = kernel.index_of[v]
    return _splits_arena(kernel, _ball_mask(kernel, table, i, r), 1 << i)


def local_one_cuts(graph: nx.Graph, r: int) -> set[Vertex]:
    """Return all vertices that form r-local minimal 1-cuts of ``graph``.

    Memoised per (kernel, r); every call returns a fresh set.
    """
    kernel = kernel_for(graph).bitsets()
    key = ("one", r, True)
    cuts = kernel.memo.get(key)
    if cuts is None:
        table = _ball_masks(kernel, r)
        cuts = kernel.memo[key] = frozenset(
            label
            for i, label in enumerate(kernel.labels)
            if _splits_arena(kernel, _ball_mask(kernel, table, i, r), 1 << i)
        )
    return set(cuts)


def _is_local_two_cut_idx(
    kernel: GraphKernel, table: list, u: int, v: int, r: int, minimal: bool
) -> bool:
    """Index-level two-cut test; assumes ``u != v`` and ``v`` in ``ball(u)``."""
    arena = _ball_mask(kernel, table, u, r) | _ball_mask(kernel, table, v, r)
    u_bit, v_bit = 1 << u, 1 << v
    if not _splits_arena(kernel, arena, u_bit | v_bit):
        return False
    if not minimal:
        return True
    return not _splits_arena(kernel, arena, u_bit) and not _splits_arena(
        kernel, arena, v_bit
    )


def is_local_two_cut(graph: nx.Graph, u: Vertex, v: Vertex, r: int, *, minimal: bool = True) -> bool:
    """Return whether ``{u, v}`` is an r-local 2-cut of ``graph``.

    With ``minimal=True`` (the algorithm's setting) the pair must be a
    minimal cut of the local arena: neither endpoint alone may disconnect
    it.
    """
    if u == v:
        return False
    kernel = kernel_for(graph).bitsets()
    table = _ball_masks(kernel, r)
    i, j = kernel.index_of[u], kernel.index_of[v]
    if not _ball_mask(kernel, table, i, r) >> j & 1:
        return False
    return _is_local_two_cut_idx(kernel, table, i, j, r, minimal)


def local_two_cuts(graph: nx.Graph, r: int, *, minimal: bool = True) -> list[frozenset[Vertex]]:
    """Enumerate all r-local (minimal) 2-cuts of ``graph``.

    One kernel-index-ordered scan: candidate partners ``v`` of ``u`` are
    read straight off ``u``'s ball mask and only pairs with
    ``u_idx < v_idx`` are tested, so every pair is visited exactly once.
    The partners are bucketed by their arena ``A = ball(u) ∪ ball(v)``;
    on hub graphs almost every partner shares one arena.  A bucket of at
    least ``_PASS_MIN_BUCKET`` partners is settled by one articulation
    scan of ``G[A − u]`` (:meth:`GraphKernel.articulation_scan`), a
    smaller one by flood fills per pair, so the work is about one scan
    per ``(u, arena)`` instead of up to three fills per pair.  Cuts are
    emitted ``u`` ascending, then ``v`` ascending; kernel index order is
    sorted-repr order, so the list order matches the historical
    enumeration.

    Memoised per (kernel, r, minimal); every call returns a fresh list.
    """
    kernel = kernel_for(graph).bitsets()
    key = ("two", r, minimal)
    cuts = kernel.memo.get(key)
    if cuts is None:
        cuts = kernel.memo[key] = tuple(_two_cuts_uncached(kernel, r, minimal))
    return list(cuts)


def _two_cuts_uncached(
    kernel: GraphKernel, r: int, minimal: bool
) -> Iterator[frozenset[Vertex]]:
    table = _ball_masks(kernel, r)
    labels = kernel.labels
    connected_without: dict[tuple[int, int], bool] = {}  # (arena, v) → G[A − v] connected
    for u in range(kernel.n):
        ball_u = _ball_mask(kernel, table, u, r)
        buckets: dict[int, list[int]] = {}
        for dv in iter_bits(ball_u >> (u + 1)):
            v = u + 1 + dv
            buckets.setdefault(ball_u | _ball_mask(kernel, table, v, r), []).append(v)
        hits = []
        for arena, partners in buckets.items():
            if len(partners) < _PASS_MIN_BUCKET:
                hits += (
                    v
                    for v in partners
                    if _is_local_two_cut_idx(kernel, table, u, v, r, minimal)
                )
            else:
                hits += _bucket_hits(kernel, arena, u, partners, minimal, connected_without)
        for v in sorted(hits):
            yield frozenset({labels[u], labels[v]})


# Buckets with fewer partners than this keep the per-pair flood fills (one
# to three per pair).  Measured crossover on the 44 perfbench
# ``ratio_sweep`` graphs at seed 1, raw and twin-free, for (r, minimal) in
# {(3, True), (2, True), (3, False)}: the enumerations took 1.09 s with a
# scan for every bucket, 0.77 s from size 2, and 0.69–0.72 s from any size
# in 3..8, against 2.7 s with fills only.
_PASS_MIN_BUCKET = 3


def _bucket_hits(
    kernel: GraphKernel,
    arena: int,
    u: int,
    partners: list[int],
    minimal: bool,
    connected_without: dict,
) -> list[int]:
    """The partners ``v`` for which ``{u, v}`` is a cut of the shared arena.

    One articulation scan of ``G[A − u]`` answers every partner: removing
    ``v`` as well splits ``A`` exactly when ``A − u`` is connected and
    ``v`` is one of its articulation points, when it has two components
    and ``v``'s is more than ``{v}``, or when it has three or more.  The
    minimality test "``u`` alone does not split ``A``" is "``A − u`` is
    connected", from the same scan; "``v`` alone does not" is a flood
    fill, shared through ``connected_without`` by every ``u`` whose pairs
    with ``v`` have arena ``A``.
    """
    count, sizes, cut_mask = kernel.articulation_scan(arena & ~(1 << u))
    if count == 1:
        hits = [v for v in partners if cut_mask >> v & 1]
    elif minimal:
        return []
    elif count == 2:
        hits = [v for v in partners if sizes[v] > 1]
    else:
        hits = partners
    if not minimal:
        return hits
    kept = []
    for v in hits:
        key = (arena, v)
        ok = connected_without.get(key)
        if ok is None:
            ok = connected_without[key] = kernel.is_mask_connected(arena & ~(1 << v))
        if ok:
            kept.append(v)
    return kept


def is_locally_k_connected(graph: nx.Graph, r: int, k: int) -> bool:
    """Return whether ``graph`` has no r-local k-cuts (Definition 2.1)."""
    if k == 1:
        return not any(is_local_one_cut(graph, v, r) for v in graph.nodes)
    if k == 2:
        return not local_two_cuts(graph, r, minimal=False)
    raise ValueError("local connectivity implemented for k in {1, 2} only")


def _certifies_interesting_idx(
    kernel: GraphKernel, table: list, u: int, v: int, r: int
) -> bool:
    """Index-level interesting-ness check for the ordered pair ``(u, v)``."""
    closed = kernel.closed_bits
    n_u = closed[u]
    if not closed[v] & ~n_u:  # first condition: N[v] ⊄ N[u]
        return False
    arena = _ball_mask(kernel, table, u, r) | _ball_mask(kernel, table, v, r)
    rest = arena & ~((1 << u) | (1 << v))
    witnesses = 0
    for comp in kernel.components_of_mask(rest):
        if comp & ~n_u:
            witnesses += 1
            if witnesses >= 2:
                return True
    return False


def is_interesting_vertex(graph: nx.Graph, v: Vertex, r: int) -> bool:
    """Return whether ``v`` is r-interesting (Section 4 definition).

    Scans all partners ``u ∈ N^r[v]`` for a certifying minimal r-local
    2-cut ``{u, v}``.
    """
    kernel = kernel_for(graph).bitsets()
    table = _ball_masks(kernel, r)
    j = kernel.index_of[v]
    for i in iter_bits(_ball_mask(kernel, table, j, r) & ~(1 << j)):
        if not _is_local_two_cut_idx(kernel, table, i, j, r, True):
            continue
        if _certifies_interesting_idx(kernel, table, i, j, r):
            return True
    return False


def interesting_vertices(graph: nx.Graph, r: int) -> set[Vertex]:
    """Return all r-interesting vertices of ``graph``."""
    return {v for v in graph.nodes if is_interesting_vertex(graph, v, r)}


def interesting_vertices_of_cuts(
    graph: nx.Graph, cuts: list[frozenset[Vertex]], r: int
) -> set[Vertex]:
    """Restrict interesting-vertex detection to a precomputed cut list.

    Faster than :func:`interesting_vertices` when the local 2-cuts are
    already known (the algorithm computes them anyway).
    """
    kernel = kernel_for(graph).bitsets()
    table = _ball_masks(kernel, r)
    index_of = kernel.index_of
    result_bits = 0
    for cut in cuts:
        a, b = sorted(index_of[w] for w in cut)
        if not result_bits >> b & 1 and _certifies_interesting_idx(
            kernel, table, a, b, r
        ):
            result_bits |= 1 << b
        if not result_bits >> a & 1 and _certifies_interesting_idx(
            kernel, table, b, a, r
        ):
            result_bits |= 1 << a
    return kernel.labels_of(result_bits)
