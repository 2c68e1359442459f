"""Minimum Vertex Cover variants of the paper's algorithms (Section 4).

The paper notes both main theorems extend to MVC:

* **Theorem 4.1 variant** — take all vertices of ``m_3.2``-local minimal
  1-cuts and *all* vertices of ``m_3.3``-local minimal 2-cuts (no
  interesting-vertex filter), then brute-force a minimum cover of the
  still-uncovered edges per residual component.
* **Theorem 4.4 variant** — a ``t``-approximation in constant rounds.
  The paper does not spell out its MVC algorithm; we implement the
  natural reading — output ``D₂`` of the twin-free graph, patched to a
  valid cover by adding the smaller-identifier endpoint of any edge both
  of whose endpoints were discarded (still 3 + O(1) rounds).  The patch
  is often needed: at n = 96, seed 1, it adds 93 vertices on ``fan``,
  72 on ``fan_flower``, 50 on ``clique_pendants``, 23 on ``ding`` and
  11 on ``outerplanar``.
"""

from __future__ import annotations

from typing import Hashable

import networkx as nx
import numpy as np

from repro.core.d2 import twin_free_d2_flags
from repro.core.radii import RadiusPolicy
from repro.core.results import AlgorithmResult
from repro.graphs.kernel import kernel_for
from repro.graphs.local_cuts import local_one_cuts, local_two_cuts
from repro.graphs.packed import bits_from_flags
from repro.graphs.twins import twin_fixpoint
from repro.graphs.util import weak_diameter
from repro.local_model.gather import rounds_for_radius
from repro.solvers.vc import is_vertex_cover, minimum_vertex_cover

Vertex = Hashable


def local_cuts_vertex_cover(
    graph: nx.Graph,
    policy: RadiusPolicy | None = None,
    *,
    t: int | None = None,
    mode: str = "fast",
) -> AlgorithmResult:
    """The Theorem 4.1 MVC variant (all local 2-cut vertices, then brute).

    Note: unlike domination, covering is about *edges*, so no twin
    reduction is applied (removing a twin removes edges that still need
    covering).

    ``mode="simulate"`` executes the per-node view-based decision through
    the message-passing simulator (see :func:`decide_vc_membership`);
    tests assert it matches ``mode="fast"``.
    """
    if policy is not None and t is not None:
        raise ValueError("give either a policy or t, not both")
    if policy is None:
        policy = RadiusPolicy.paper(t) if t is not None else RadiusPolicy.practical()
    if mode not in ("fast", "simulate"):
        raise ValueError(f"unknown mode {mode!r}")
    if graph.number_of_edges() == 0:
        return AlgorithmResult(name="local_cuts_vc", solution=set(), rounds=0)

    x_set = local_one_cuts(graph, policy.one_cut_radius)
    two_cut_vertices: set[Vertex] = set()
    for cut in local_two_cuts(graph, policy.two_cut_radius, minimal=True):
        two_cut_vertices |= set(cut)
    taken = x_set | two_cut_vertices

    uncovered = [
        (u, v) for u, v in graph.edges if u not in taken and v not in taken
    ]
    residual = graph.edge_subgraph(uncovered).copy() if uncovered else nx.Graph()
    brute: set[Vertex] = set()
    span = 0
    for component in nx.connected_components(residual):
        sub = residual.subgraph(component)
        brute |= minimum_vertex_cover(sub)
        span = max(span, weak_diameter(graph, component))

    solution = taken | brute
    view_radius = policy.detection_radius + span + 2
    if mode == "simulate":
        solution = _simulate_vc(graph, policy, view_radius)
    return AlgorithmResult(
        name="local_cuts_vc",
        solution=solution,
        rounds=rounds_for_radius(view_radius),
        phases={
            "local_1_cuts": set(x_set),
            "local_2_cuts": set(two_cut_vertices),
            "brute_force": set(brute),
        },
        metadata={
            "policy": policy.label,
            "uncovered_edges_after_cuts": len(uncovered),
            "residual_span": span,
        },
    )


def _simulate_vc(graph: nx.Graph, policy: RadiusPolicy, view_radius: int) -> set[Vertex]:
    """True LOCAL execution of the MVC variant: per-node view decisions.

    Each vertex reads the view keyed by its gather uid
    (:func:`identity_ids`).  Views break ties between optimal residual
    covers by uid order and fast mode by label order, so the modes agree
    on int labels and may pick different valid covers on others.
    """
    from repro.local_model.gather import gather_views
    from repro.local_model.identifiers import identity_ids

    ids = identity_ids(graph)
    views, _ = gather_views(graph, view_radius, ids)
    return {v for v in graph.nodes if decide_vc_membership(views[ids[v]], policy)}


def decide_vc_membership(view, policy: RadiusPolicy) -> bool:
    """Does the view's center join the vertex cover?  Pure view logic.

    Mirrors the fast pipeline: join when the center is a local 1-cut or
    sits in a minimal local 2-cut; otherwise reconstruct the residual
    uncovered-edge component around the center and join iff the
    deterministic exact cover of that component selects the center.
    Raises :class:`repro.core.algorithm1.InsufficientViewError` when the
    gathered radius cannot support a decision.
    """
    from repro.core.algorithm1 import InsufficientViewError
    from repro.graphs.local_cuts import is_local_one_cut as _one_cut
    from repro.graphs.local_cuts import is_local_two_cut as _two_cut
    from repro.graphs.util import ball as _ball

    me = view.center
    known = view.graph
    detection = policy.detection_radius
    complete = view.complete_radius
    if complete < detection:
        raise InsufficientViewError("view smaller than the detection radius")

    taken_cache: dict[int, bool] = {}

    def is_taken(w: int) -> bool:
        if w not in taken_cache:
            if view.dist.get(w, complete + 1) > complete - detection:
                raise InsufficientViewError(f"cannot decide cut status of {w}")
            if _one_cut(known, w, policy.one_cut_radius):
                taken_cache[w] = True
            else:
                taken_cache[w] = any(
                    _two_cut(known, u, w, policy.two_cut_radius, minimal=True)
                    for u in sorted(_ball(known, w, policy.two_cut_radius))
                    if u != w
                )
        return taken_cache[w]

    if is_taken(me):
        return True

    # Residual edges incident to me; grow the uncovered-edge component.
    def uncovered_neighbors(w: int) -> list[int]:
        return [x for x in known.neighbors(w) if not is_taken(x)]

    seeds = uncovered_neighbors(me)
    if not seeds:
        return False
    component = {me}
    frontier = [me]
    limit = complete - detection - 1
    while frontier:
        w = frontier.pop()
        if view.dist.get(w, limit + 1) > limit:
            raise InsufficientViewError("residual VC component leaves the trusted zone")
        for x in uncovered_neighbors(w):
            if x not in component:
                component.add(x)
                frontier.append(x)
    residual_edges = [
        (u, v)
        for u, v in known.subgraph(component).edges
        if not is_taken(u) and not is_taken(v)
    ]
    if not residual_edges:
        return False
    residual = nx.Graph(residual_edges)
    chosen = minimum_vertex_cover(residual)
    return me in chosen


def d2_vertex_cover(graph: nx.Graph) -> AlgorithmResult:
    """The Theorem 4.4 MVC variant: ``D₂``-based constant-round cover.

    Construction (our reading of the paper's one-line claim, see module
    docstring): keep every non-representative twin (a twin class is a
    clique — all but one member are needed by any cover of its inner
    edges), add ``D₂`` of the twin-free graph, then patch any remaining bare
    edge with its smaller-identifier endpoint.  All three steps are radius-2
    decisions, so the round count stays constant.

    Everything runs on the kernel CSR, with the twin fixpoint and the
    ``D₂`` flags memoised for ``d2`` too.  The patch is defined as a
    scan of the edges in repr-sorted order that adds each still-bare
    edge's repr-smaller endpoint.  That scan adds the smaller endpoint
    of *every* bare edge: ``v`` can join only through an edge
    ``(v, w)`` with ``w`` above it, which sorts after each edge
    ``(u, v)`` with ``u`` below ``v``, so ``v`` is still out when
    ``(u, v)`` is scanned.  The patch is therefore one vectorized pass
    (``tests/core/test_d2_vc_legacy.py`` pins it to the scan).
    """
    if graph.number_of_edges() == 0:
        return AlgorithmResult(name="d2_vc", solution=set(), rounds=0)
    kernel = kernel_for(graph).packed()
    _, representative = twin_fixpoint(graph)
    twins = representative != np.arange(kernel.n)
    base = twin_free_d2_flags(graph)
    taken = twins | base
    rows = np.repeat(np.arange(kernel.n), np.diff(kernel.indptr))
    cols = kernel.indices
    bare = (rows <= cols) & ~taken[rows] & ~taken[cols]
    patched = np.zeros(kernel.n, dtype=bool)
    patched[rows[bare]] = True
    solution = kernel.labels_of(bits_from_flags(taken | patched))
    assert is_vertex_cover(graph, solution)
    patch = kernel.labels_of(bits_from_flags(patched))
    return AlgorithmResult(
        name="d2_vc",
        solution=solution,
        rounds=4,
        phases={
            "d2": kernel.labels_of(bits_from_flags(base)),
            "twins": kernel.labels_of(bits_from_flags(twins)),
            "patch": patch,
        },
        metadata={"patched_vertices": len(patch)},
    )
