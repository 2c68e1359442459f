"""View gathering: the universal primitive of LOCAL algorithms.

Protocol (full-information flooding):

* round 1 — every node says *hello* with its identifier; afterwards a
  node knows its incident edges in identifier space;
* round k ≥ 2 — every node broadcasts everything it knows (vertex ids,
  edges, and the set of vertices whose edge lists it knows completely);

after ``k`` rounds the center's knowledge contains ``G[N^{k−1}[v]]``
exactly, so gathering for decision radius ``r`` costs ``r + 1`` rounds.
Message sizes are unbounded — that is the LOCAL model; the trace records
their volume for comparison purposes.
"""

from __future__ import annotations

from typing import Hashable

import networkx as nx

from repro.local_model.algorithm import LocalAlgorithm
from repro.local_model.engine import SimulationEngine
from repro.local_model.instrumentation import Trace
from repro.local_model.network import Network
from repro.local_model.node import NodeContext
from repro.local_model.views import View
from repro.graphs.util import distances_from

Vertex = Hashable


def rounds_for_radius(radius: int) -> int:
    """Communication rounds needed for an exact radius-``radius`` view."""
    if radius < 0:
        raise ValueError("radius must be non-negative")
    return radius + 1


class GatherAlgorithm(LocalAlgorithm):
    """Flood knowledge for ``radius + 1`` rounds, output a :class:`View`."""

    def __init__(self, radius: int):
        if radius < 0:
            raise ValueError("radius must be non-negative")
        self.radius = radius

    def on_init(self, ctx: NodeContext) -> None:
        ctx.state["verts"] = {ctx.uid}
        ctx.state["edges"] = set()
        ctx.state["full"] = set()
        ctx.state["round"] = 0
        ctx.broadcast(("hello", ctx.uid))

    def on_round(self, ctx: NodeContext) -> None:
        ctx.state["round"] += 1
        round_index = ctx.state["round"]
        verts: set[int] = ctx.state["verts"]
        edges: set[frozenset[int]] = ctx.state["edges"]
        full: set[int] = ctx.state["full"]

        if round_index == 1:
            for _, payload in ctx.inbox.items():
                _, neighbor_uid = payload
                verts.add(neighbor_uid)
                edges.add(frozenset((ctx.uid, neighbor_uid)))
            full.add(ctx.uid)
        else:
            for payload in ctx.inbox.values():
                other_verts, other_edges, other_full = payload
                verts |= other_verts
                edges |= other_edges
                full |= other_full

        if round_index >= rounds_for_radius(self.radius):
            ctx.halt(self._build_view(ctx.uid, verts, edges))
            return
        ctx.broadcast((set(verts), set(edges), set(full)))

    def _build_view(self, uid: int, verts: set[int], edges: set[frozenset[int]]) -> View:
        known = nx.Graph()
        known.add_nodes_from(verts)
        known.add_edges_from(tuple(e) for e in edges)
        dist = distances_from(known, uid)
        return View(center=uid, graph=known, complete_radius=self.radius, dist=dist)


def gather_views(
    graph: nx.Graph,
    radius: int,
    ids: dict[Vertex, int] | None = None,
    max_rounds: int | None = None,
) -> tuple[dict[int, View], Trace]:
    """Simulate gathering on ``graph``; returns uid-keyed views and the trace."""
    network = Network(graph, ids)
    limit = max_rounds if max_rounds is not None else rounds_for_radius(radius) + 1
    result = SimulationEngine(network, max_rounds=limit).run(
        lambda: GatherAlgorithm(radius)
    )
    views = {network.ids[v]: view for v, view in result.outputs.items()}
    return views, result.trace
