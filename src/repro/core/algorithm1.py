"""Algorithm 1 (Theorem 4.1): constant-approximation LOCAL MDS.

The algorithm, verbatim from Section 4:

1. replace ``G`` by its true-twin-less graph ``G⁻``;
2. add to ``S`` every vertex forming an ``m_3.2``-local minimal 1-cut;
3. add every ``m_3.3``-interesting vertex of an ``m_3.3``-local minimal
   2-cut;
4. add a brute-forced minimum set of ``G`` dominating ``G − N[S]``
   (Lemma 4.2 bounds the diameter of the residual components, so this is
   local; footnote 2 makes the per-component computation consistent).

Two execution modes:

* ``mode="fast"`` — a centralized computation of exactly the same set,
  with the LOCAL round count derived from the residual component
  diameters (what a distributed run would have charged);
* ``mode="simulate"`` — every vertex really gathers its view through the
  message-passing simulator and decides membership purely from that
  view; the driver picks the gathering radius (it can see the graph —
  the per-node decisions cannot).  Tests assert both modes agree.

The returned set is a valid dominating set for **every** radius policy;
the proven 50-approximation applies to ``RadiusPolicy.paper(t)``.
"""

from __future__ import annotations

from typing import Hashable

import networkx as nx

from repro.core.radii import RadiusPolicy
from repro.core.results import AlgorithmResult
from repro.graphs.local_cuts import (
    interesting_vertices_of_cuts,
    is_interesting_vertex,
    is_local_one_cut,
    local_one_cuts,
    local_two_cuts,
)
from repro.graphs.kernel import iter_bits, kernel_for
from repro.graphs.twins import twin_free_graph
from repro.graphs.util import closed_neighborhood, weak_diameter_mask
from repro.local_model.gather import gather_views, rounds_for_radius
from repro.local_model.identifiers import identity_ids
from repro.local_model.views import View
from repro.solvers.exact import minimum_b_dominating_set

Vertex = Hashable

TWIN_REDUCTION_ROUNDS = 2
"""LOCAL rounds charged for the true-twin reduction (learn the
neighbors' closed neighborhoods, elect the minimum-identifier
representative per twin class)."""


class InsufficientViewError(RuntimeError):
    """A per-node decision needed knowledge beyond the gathered radius."""


def _phase_sets(
    graph: nx.Graph, policy: RadiusPolicy
) -> tuple[set[Vertex], set[Vertex], set[Vertex], set[Vertex]]:
    """Compute (X, I, U, B) of steps 2–4 on the twin-free graph.

    Dominated/undominated/excluded statuses are pure bitset algebra on
    the kernel: ``N[X ∪ I]`` is one OR chain, and U-membership of a
    dominated non-taken vertex is ``N[v] ⊆ dominated``, a single
    AND-NOT test per candidate.
    """
    kernel = kernel_for(graph).bitsets()
    x_set = local_one_cuts(graph, policy.one_cut_radius)
    cuts = local_two_cuts(graph, policy.two_cut_radius, minimal=True)
    i_set = interesting_vertices_of_cuts(graph, cuts, policy.two_cut_radius)
    taken_mask = kernel.bits_of(x_set) | kernel.bits_of(i_set)
    dominated_mask = kernel.closed_neighborhood_bits(taken_mask)
    undominated = kernel.labels_of(kernel.full_mask & ~dominated_mask)
    closed = kernel.closed_bits
    u_mask = 0
    for i in iter_bits(dominated_mask & ~taken_mask):
        if not closed[i] & ~dominated_mask:
            u_mask |= 1 << i
    return x_set, i_set, kernel.labels_of(u_mask), undominated


def _residual_components(
    graph: nx.Graph,
    x_set: set[Vertex],
    i_set: set[Vertex],
    u_set: set[Vertex],
    undominated: set[Vertex],
) -> list[tuple[set[Vertex], set[Vertex]]]:
    """Components of ``G − (X ∪ I ∪ U)`` that still contain undominated
    vertices, as ``(component, undominated ∩ component)`` pairs.

    Components are bitset flood fills; the kernel yields them lowest
    index first, which *is* the repr-order of each component's least
    vertex — the deterministic order the brute-force step relies on.
    """
    kernel = kernel_for(graph).bitsets()
    residual = kernel.full_mask & ~(
        kernel.bits_of(x_set) | kernel.bits_of(i_set) | kernel.bits_of(u_set)
    )
    undominated_mask = kernel.bits_of(undominated)
    components = []
    for component in kernel.components_of_mask(residual):
        targets = undominated_mask & component
        if targets:
            components.append((kernel.labels_of(component), kernel.labels_of(targets)))
    return components


def _component_span(graph: nx.Graph, components: list[tuple[set[Vertex], set[Vertex]]]) -> int:
    """Max weak diameter over ``C ∪ N[B_C]`` — the knowledge footprint of
    the brute-force step (Lemma 4.2 bounds this on K_{2,t}-free graphs)."""
    kernel = kernel_for(graph).bitsets()
    span = 0
    for component, targets in components:
        zone = kernel.bits_of(component) | kernel.union_closed_bits(targets)
        span = max(span, weak_diameter_mask(kernel, zone))
    return span


def algorithm1(
    graph: nx.Graph,
    policy: RadiusPolicy | None = None,
    *,
    t: int | None = None,
    mode: str = "fast",
) -> AlgorithmResult:
    """Run Algorithm 1 on ``graph``.

    Exactly one of ``policy`` or ``t`` should be given; ``t`` selects the
    paper constants ``RadiusPolicy.paper(t)``, no argument defaults to
    ``RadiusPolicy.practical()``.
    """
    if policy is not None and t is not None:
        raise ValueError("give either a policy or t, not both")
    if policy is None:
        policy = RadiusPolicy.paper(t) if t is not None else RadiusPolicy.practical()
    if mode not in ("fast", "simulate"):
        raise ValueError(f"unknown mode {mode!r}")
    if graph.number_of_nodes() == 0:
        return AlgorithmResult(name="algorithm1", solution=set(), rounds=0)

    reduced = twin_free_graph(graph)
    x_set, i_set, u_set, undominated = _phase_sets(reduced, policy)
    components = _residual_components(reduced, x_set, i_set, u_set, undominated)

    brute: set[Vertex] = set()
    for _, targets in components:
        brute |= minimum_b_dominating_set(reduced, targets)

    span = _component_span(reduced, components)
    view_radius = policy.detection_radius + span + 2
    rounds = TWIN_REDUCTION_ROUNDS + rounds_for_radius(view_radius)

    solution = x_set | i_set | brute
    if mode == "simulate":
        solution = _simulate(reduced, policy, view_radius)

    return AlgorithmResult(
        name="algorithm1",
        solution=solution,
        rounds=rounds,
        phases={
            "local_1_cuts": set(x_set),
            "interesting_2_cuts": set(i_set),
            "brute_force": set(brute),
        },
        round_breakdown={
            "twin_reduction": TWIN_REDUCTION_ROUNDS,
            "view_gathering": rounds_for_radius(view_radius),
        },
        metadata={
            "policy": policy.label,
            "ratio_bound": policy.ratio_bound,
            "mode": mode,
            "twin_free_size": reduced.number_of_nodes(),
            "excluded_set_size": len(u_set),
            "undominated_after_cuts": len(undominated),
            "residual_components": len(components),
            "residual_span": span,
            "view_radius": view_radius,
        },
    )


def _simulate(reduced: nx.Graph, policy: RadiusPolicy, view_radius: int) -> set[Vertex]:
    """True LOCAL execution: gather views, each node decides independently.

    Views live in identifier space, so each vertex reads the view keyed
    by the uid the gather assigned it (:func:`identity_ids`: the label
    itself for int labels, the repr-order index otherwise).  The views'
    brute-force step breaks ties between optimal sets by uid order and
    fast mode by label order; the two orders coincide on int labels, so
    there the modes agree, while on other labels both are valid
    dominating sets that may differ.
    """
    ids = identity_ids(reduced)
    views, _ = gather_views(reduced, view_radius, ids)
    return {v for v in reduced.nodes if decide_membership(views[ids[v]], policy)}


def decide_membership(view: View, policy: RadiusPolicy) -> bool:
    """Does the view's center join the dominating set?  Pure view logic.

    Mirrors steps 2–4 exactly, using only knowledge guaranteed exact by
    the view's complete radius; raises :class:`InsufficientViewError` if
    the gathered radius cannot support a required decision.
    """
    me = view.center
    known = view.graph
    detection = policy.detection_radius
    complete = view.complete_radius

    if complete < detection:
        raise InsufficientViewError("view smaller than the detection radius")

    if is_local_one_cut(known, me, policy.one_cut_radius):
        return True
    if is_interesting_vertex(known, me, policy.two_cut_radius):
        return True

    # Zones where derived statuses are exact (see module docstring):
    # X/I membership of w needs dist(w) + detection <= complete;
    # dominated-status needs one more hop; U-status one more again.
    status_limit = complete - detection
    dominated_limit = status_limit - 1
    u_limit = status_limit - 2

    cut_cache: dict[int, bool] = {}
    dominated_cache: dict[int, bool] = {}

    def in_cut_sets(w: int) -> bool:
        if w not in cut_cache:
            if view.dist.get(w, complete + 1) > status_limit:
                raise InsufficientViewError(f"cannot decide X/I status of {w}")
            cut_cache[w] = is_local_one_cut(known, w, policy.one_cut_radius) or (
                is_interesting_vertex(known, w, policy.two_cut_radius)
            )
        return cut_cache[w]

    def is_dominated(w: int) -> bool:
        if w not in dominated_cache:
            if view.dist.get(w, complete + 1) > dominated_limit:
                raise InsufficientViewError(f"cannot decide dominated status of {w}")
            dominated_cache[w] = any(
                in_cut_sets(x) for x in closed_neighborhood(known, w)
            )
        return dominated_cache[w]

    def in_u(w: int) -> bool:
        if view.dist.get(w, complete + 1) > u_limit:
            raise InsufficientViewError(f"cannot decide U status of {w}")
        return is_dominated(w) and all(
            is_dominated(x) for x in closed_neighborhood(known, w)
        )

    # Undominated vertices I might be asked to dominate sit in N[me].
    nearby_targets = [
        w for w in closed_neighborhood(known, me) if not is_dominated(w)
    ]
    if not nearby_targets:
        return False

    # Reconstruct the residual component around each nearby target and
    # solve its brute-force instance exactly as every other observer
    # would (deterministic solver on identical inputs).
    for seed in sorted(nearby_targets):
        component = _grow_residual_component(view, seed, in_cut_sets, in_u, u_limit)
        targets = {
            w for w in component if not is_dominated(w)
        }
        chosen = minimum_b_dominating_set(known, targets)
        if me in chosen:
            return True
    return False


def _grow_residual_component(
    view: View,
    seed: int,
    in_cut_sets,
    in_u,
    u_limit: int,
) -> set[int]:
    """BFS the residual component of ``seed`` inside the trusted zone."""
    if in_cut_sets(seed) or in_u(seed):
        raise InsufficientViewError("seed unexpectedly excluded from residual graph")
    component = {seed}
    frontier = [seed]
    while frontier:
        w = frontier.pop()
        if view.dist.get(w, u_limit + 1) > u_limit:
            raise InsufficientViewError(
                "residual component leaves the trusted zone; enlarge the view"
            )
        for x in view.graph.neighbors(w):
            if x in component:
                continue
            if in_cut_sets(x) or in_u(x):
                continue
            component.add(x)
            frontier.append(x)
    return component
