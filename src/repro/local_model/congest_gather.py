"""View gathering under CONGEST: pipelined flooding with capped messages.

In LOCAL, radius-r gathering costs ``r + 1`` rounds because a node may
forward *everything it knows* in one message.  Under CONGEST the same
knowledge must trickle through ``O(log n)``-bit messages, so each round
a node forwards at most ``budget`` new items per edge and the round
count inflates to roughly ``r + (knowledge volume) / budget``.

:class:`CongestGatherAlgorithm` implements that pipeline: every node
maintains a queue of not-yet-forwarded facts (vertex ids and edges) and
drains it ``budget`` items per round per port.  Termination is
detected by quiescence counting: after ``r + ceil(worst-ball / budget)
+ slack`` silent rounds nothing new can arrive (the driver, which knows
the graph, supplies the deadline — the per-node logic only uses the
message stream).

:func:`congest_gather_views` runs it and reports both the views and the
round inflation relative to LOCAL gathering — the quantitative form of
the paper's "messages have no size limit, in contrast to CONGEST".
"""

from __future__ import annotations

from typing import Hashable

import networkx as nx

from repro.graphs.util import distances_from
from repro.local_model.algorithm import LocalAlgorithm
from repro.local_model.engine import SimulationEngine
from repro.local_model.instrumentation import Trace
from repro.local_model.network import Network
from repro.local_model.node import NodeContext
from repro.local_model.views import View

Vertex = Hashable

Fact = tuple
"""Either ("v", uid) or ("e", uid, uid) — one identifier-sized item each."""


class CongestGatherAlgorithm(LocalAlgorithm):
    """Pipelined flooding with at most ``budget`` facts per message."""

    def __init__(self, radius: int, budget: int, deadline: int):
        if radius < 0 or budget < 1 or deadline < 1:
            raise ValueError("radius >= 0, budget >= 1, deadline >= 1 required")
        self.radius = radius
        self.budget = budget
        self.deadline = deadline

    def on_init(self, ctx: NodeContext) -> None:
        ctx.state["verts"] = {ctx.uid}
        ctx.state["edges"] = set()
        ctx.state["queues"] = {port: [("v", ctx.uid)] for port in range(ctx.degree)}
        ctx.state["round"] = 0
        self._drain(ctx)

    def _learn(self, ctx: NodeContext, fact: Fact, from_port: int) -> None:
        verts: set[int] = ctx.state["verts"]
        edges: set[frozenset[int]] = ctx.state["edges"]
        if fact[0] == "v":
            uid = fact[1]
            new = uid not in verts
            verts.add(uid)
            if new:
                self._enqueue(ctx, fact, from_port)
        else:
            _, a, b = fact
            key = frozenset((a, b))
            if key not in edges:
                edges.add(key)
                verts.add(a)
                verts.add(b)
                self._enqueue(ctx, fact, from_port)

    def _enqueue(self, ctx: NodeContext, fact: Fact, from_port: int) -> None:
        for port, queue in ctx.state["queues"].items():
            if port != from_port:
                queue.append(fact)

    def _drain(self, ctx: NodeContext) -> None:
        for port, queue in ctx.state["queues"].items():
            if queue:
                batch = queue[: self.budget]
                del queue[: self.budget]
                ctx.send(port, tuple(batch))

    def on_round(self, ctx: NodeContext) -> None:
        ctx.state["round"] += 1
        for port, payload in ctx.inbox.items():
            for fact in payload:
                if fact[0] == "v" and self._is_direct_hello(ctx, port, fact[1]):
                    # The first id on a port is the link endpoint's own
                    # hello: record the incident edge implicitly.
                    uid = fact[1]
                    edge = ("e", min(ctx.uid, uid), max(ctx.uid, uid))
                    self._learn(ctx, edge, port)
                self._learn(ctx, fact, port)
        if ctx.state["round"] >= self.deadline:
            ctx.halt(self._build_view(ctx))
            return
        self._drain(ctx)

    def _is_direct_hello(self, ctx: NodeContext, port: int, uid: int) -> bool:
        known = ctx.state.setdefault("port_uid", {})
        if port not in known:
            known[port] = uid
            return True
        return False

    def _build_view(self, ctx: NodeContext) -> View:
        known = nx.Graph()
        known.add_nodes_from(ctx.state["verts"])
        known.add_edges_from(tuple(e) for e in ctx.state["edges"])
        dist = distances_from(known, ctx.uid)
        reachable = {u: d for u, d in dist.items() if d <= self.radius}
        trimmed = known.subgraph(reachable).copy()
        return View(
            center=ctx.uid,
            graph=trimmed,
            complete_radius=self.radius,
            dist=reachable,
        )


def congest_gather_views(
    graph: nx.Graph, radius: int, budget: int, ids=None
) -> tuple[dict[int, View], Trace]:
    """Gather radius-r views under a CONGEST budget; driver sets deadline.

    The deadline is computed from the graph (worst ball volume over the
    budget, plus the radius and slack); per-node logic never reads the
    graph.  Round inflation vs LOCAL is ``trace.round_count − (r + 1)``.
    """
    from repro.graphs.util import ball

    worst_volume = 0
    for v in graph.nodes:
        reach = ball(graph, v, radius)
        volume = len(reach) + graph.subgraph(reach).number_of_edges()
        worst_volume = max(worst_volume, volume)
    deadline = radius + 1 + (worst_volume + budget - 1) // budget + 2

    network = Network(graph, ids)
    result = SimulationEngine(network, max_rounds=deadline + 2).run(
        lambda: CongestGatherAlgorithm(radius, budget, deadline)
    )
    views = {network.ids[v]: view for v, view in result.outputs.items()}
    return views, result.trace
