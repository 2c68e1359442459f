"""Pure-Python exact (B-)domination by branch and bound, on kernel bitsets.

Serves as an independent cross-check of the MILP backend (they must
agree on every instance) and as the brute-force engine when callers want
to avoid the scipy dependency.  The whole search runs on the graph's
:class:`~repro.graphs.kernel.GraphKernel`: undominated targets, cover
sets, and partial solutions are Python-int bitsets, so one branch step
is a handful of ANDs and ``bit_count()`` calls instead of set algebra
over hashable vertices.  The search:

* branches on the undominated target with the fewest coverers
  (fail-first; coverer masks are one AND, counts one ``bit_count``),
* seeds its incumbent with the shared greedy cover
  (:func:`repro.solvers.bounds.greedy_cover_mask`) and prunes with the
  shared disjoint-neighborhood packing bound
  (:class:`repro.solvers.bounds.PackingBound`),
* memoises visited states — the still-undominated-targets mask mapped
  to the fewest vertices ever spent reaching it — so a state reachable
  along many branch orders is explored once,
* explores coverers in ascending kernel index order (= ``repr`` order),
  so results are reproducible.
"""

from __future__ import annotations

from typing import Hashable, Iterable

import networkx as nx

from repro.graphs.kernel import GraphKernel, iter_bits, kernel_for
from repro.solvers.bounds import PackingBound, greedy_cover_mask

Vertex = Hashable


def _bnb_core(kernel: GraphKernel, target_mask: int, candidate_mask: int) -> int:
    """Minimum candidate mask dominating ``target_mask``, by branch and bound."""
    closed = kernel.closed_bits
    coverers_of: dict[int, int] = {}
    coverer_count: dict[int, int] = {}
    for b in iter_bits(target_mask):
        coverers = closed[b] & candidate_mask
        if not coverers:
            raise ValueError(
                f"target {kernel.labels[b]!r} cannot be dominated by any candidate"
            )
        coverers_of[b] = coverers
        coverer_count[b] = coverers.bit_count()

    incumbent = greedy_cover_mask(kernel, target_mask, candidate_mask)
    best_mask = incumbent
    best_size = incumbent.bit_count()
    packing = PackingBound(kernel, target_mask, candidate_mask)
    bound = packing.bound
    # Memo: remaining-targets mask -> fewest vertices ever spent reaching
    # that state.  Reaching it again no cheaper cannot beat the earlier
    # exploration (the incumbent only tightens over time), so prune.
    cheapest: dict[int, int] = {}

    def search(chosen_mask: int, chosen_size: int, remaining: int) -> None:
        nonlocal best_mask, best_size
        if not remaining:
            if chosen_size < best_size:
                best_mask, best_size = chosen_mask, chosen_size
            return
        prior = cheapest.get(remaining)
        if prior is not None and prior <= chosen_size:
            return
        cheapest[remaining] = chosen_size
        if chosen_size + bound(remaining) >= best_size:
            return
        pivot = -1
        fewest = 0
        for b in iter_bits(remaining):
            count = coverer_count[b]
            if pivot < 0 or count < fewest:
                pivot, fewest = b, count
                if count == 1:
                    break
        for c in iter_bits(coverers_of[pivot]):
            search(chosen_mask | (1 << c), chosen_size + 1, remaining & ~closed[c])

    search(0, 0, target_mask)
    return best_mask


def bnb_minimum_b_dominating_set(
    graph: nx.Graph,
    targets: Iterable[Vertex],
    candidates: Iterable[Vertex] | None = None,
) -> set[Vertex]:
    """Exact minimum set of ``candidates`` dominating ``targets`` (B&B)."""
    kernel = kernel_for(graph).bitsets()
    target_mask = kernel.bits_of(targets)
    if not target_mask:
        return set()
    if candidates is None:
        candidate_mask = kernel.closed_neighborhood_bits(target_mask)
    else:
        candidate_mask = kernel.bits_of(candidates)
    return kernel.labels_of(_bnb_core(kernel, target_mask, candidate_mask))


def bnb_minimum_dominating_set(graph: nx.Graph) -> set[Vertex]:
    """Exact MDS via branch and bound, per connected component.

    Components are discovered as bitset fixpoints on the shared kernel
    (no ``nx.connected_components`` + subgraph materialisation), and
    each is solved with that same kernel — candidates restricted to the
    component, which contains ``N[component]`` by definition.
    """
    kernel = kernel_for(graph).bitsets()
    closed = kernel.closed_bits
    remaining = kernel.full_mask
    chosen = 0
    while remaining:
        component = remaining & -remaining
        frontier = component
        while frontier:
            reach = 0
            for i in iter_bits(frontier):
                reach |= closed[i]
            frontier = reach & ~component
            component |= frontier
        chosen |= _bnb_core(kernel, component, component)
        remaining &= ~component
    return kernel.labels_of(chosen)
