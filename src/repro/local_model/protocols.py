"""Hand-rolled message-passing protocols for the constant-round algorithms.

The view-gathering reduction ("collect ``G[N^r[v]]``, then decide") is
the standard executable semantics of a LOCAL algorithm, but the paper's
constant-round results deserve protocols written the way a systems
implementation would send them — explicit messages per round, no
generic flooding.  This module implements them:

* :class:`TakeAllProtocol` — the 0-round "every vertex joins" baseline;

* :class:`DegreeTwoProtocol` — the folklore tree rule (footnote 3),
  2 rounds: round 1 *hello*, round 2 decide by received-message count;
* :class:`D2Protocol` — Theorem 4.4 in exactly 3 rounds: round 1
  exchange identifiers, round 2 exchange closed neighborhoods (which
  also runs the twin election), round 3 decide ``γ(v) ≥ 2`` against the
  surviving neighbors;
* :class:`TwinElectionProtocol` — just the twin election: after 2
  rounds each vertex knows whether it is its twin class's
  minimum-identifier representative.

Each protocol's output is tested against the centralized reference
implementation on every family.
"""

from __future__ import annotations

from typing import Hashable

from repro.local_model.algorithm import LocalAlgorithm
from repro.local_model.node import NodeContext

Vertex = Hashable


class TakeAllProtocol(LocalAlgorithm):
    """The 0-round folklore baseline: every vertex joins immediately.

    Halts at initialisation without sending anything — the executable
    form of Table 1's "take all" row (``t``-approximation on
    ``K_{1,t}``-minor-free graphs).
    """

    def on_init(self, ctx: NodeContext) -> None:
        ctx.halt(True)

    def on_round(self, ctx: NodeContext) -> None:  # pragma: no cover
        pass


class DegreeTwoProtocol(LocalAlgorithm):
    """Output ``True`` iff the node has degree ≥ 2 (else the smallest id
    of its component when it can tell it is in a K_1/K_2 component).

    On trees with ≥ 3 vertices this is the 3-approximation of Table 1's
    first row.  Components of size ≤ 2 are detected locally: degree 0,
    or degree 1 with a degree-1 neighbor.
    """

    def on_init(self, ctx: NodeContext) -> None:
        ctx.broadcast(("hello", ctx.uid, ctx.degree))

    def on_round(self, ctx: NodeContext) -> None:
        if ctx.degree >= 2:
            ctx.halt(True)
            return
        if ctx.degree == 0:
            ctx.halt(True)  # isolated vertex must dominate itself
            return
        hello = next(iter(ctx.inbox.values()), None)
        if hello is None:
            # The neighbor's hello was lost (fault injection): join
            # conservatively instead of guessing the component shape.
            ctx.halt(True)
            return
        (_, neighbor_uid, neighbor_degree) = hello
        if neighbor_degree == 1:
            # K_2 component: the smaller identifier joins.
            ctx.halt(ctx.uid < neighbor_uid)
        else:
            ctx.halt(False)


class TwinElectionProtocol(LocalAlgorithm):
    """Two rounds: learn ``N[u]`` of every neighbor, elect per-class rep.

    Output: ``(is_representative, representative_uid)``.  True twins are
    adjacent and share closed neighborhoods, so one exchange of id-lists
    suffices; the minimum identifier in the class wins.
    """

    def on_init(self, ctx: NodeContext) -> None:
        ctx.broadcast(("id", ctx.uid))

    def on_round(self, ctx: NodeContext) -> None:
        round_no = ctx.state.setdefault("round", 0) + 1
        ctx.state["round"] = round_no
        if round_no == 1:
            neighbor_ids = {port: payload[1] for port, payload in ctx.inbox.items()}
            ctx.state["neighbor_ids"] = neighbor_ids
            closed = frozenset(neighbor_ids.values()) | {ctx.uid}
            ctx.state["closed"] = closed
            ctx.broadcast(("nbhd", ctx.uid, closed))
            return
        closed = ctx.state["closed"]
        twin_class = {ctx.uid}
        for _, (_, neighbor_uid, neighbor_closed) in ctx.inbox.items():
            if neighbor_closed == closed:
                twin_class.add(neighbor_uid)
        representative = min(twin_class)
        ctx.halt((representative == ctx.uid, representative))


class D2Protocol(LocalAlgorithm):
    """Theorem 4.4 in three explicit rounds.

    Round 1: exchange identifiers.  Round 2: exchange closed
    neighborhoods; each node now knows its twin class and every
    neighbor's ``N[u]``.  Round 3: exchange the twin-election outcome so
    the γ-test runs against the *twin-free* graph; then decide
    ``γ(v) ≥ 2``: ``v`` joins unless some surviving ``u ∈ N(v)`` has
    ``N[v] ⊆ N[u]`` in the reduced graph.

    Output: ``True``/``False`` membership in the dominating set.
    Non-representative twins always output ``False``.
    """

    def on_init(self, ctx: NodeContext) -> None:
        ctx.broadcast(("id", ctx.uid))

    def on_round(self, ctx: NodeContext) -> None:
        round_no = ctx.state.setdefault("round", 0) + 1
        ctx.state["round"] = round_no

        if round_no == 1:
            neighbor_ids = {port: payload[1] for port, payload in ctx.inbox.items()}
            ctx.state["neighbor_ids"] = neighbor_ids
            closed = frozenset(neighbor_ids.values()) | {ctx.uid}
            ctx.state["closed"] = closed
            ctx.broadcast(("nbhd", ctx.uid, closed))
            return

        if round_no == 2:
            closed = ctx.state["closed"]
            neighbor_closed: dict[int, frozenset[int]] = {}
            twin_class = {ctx.uid}
            for _, (_, neighbor_uid, nc) in ctx.inbox.items():
                neighbor_closed[neighbor_uid] = nc
                if nc == closed:
                    twin_class.add(neighbor_uid)
            ctx.state["neighbor_closed"] = neighbor_closed
            representative = min(twin_class)
            ctx.state["is_rep"] = representative == ctx.uid
            # Share which of my twin class survived, plus my own class,
            # so neighbors can compute reduced neighborhoods.
            ctx.broadcast(("twins", ctx.uid, frozenset(twin_class)))
            return

        # Round 3: compute the γ-test on the twin-reduced graph.
        if not ctx.state["is_rep"]:
            ctx.halt(False)
            return
        removed: set[int] = set()
        for _, (_, neighbor_uid, twin_class) in ctx.inbox.items():
            representative = min(twin_class)
            removed |= {u for u in twin_class if u != representative}
        my_closed = ctx.state["closed"] - removed
        for neighbor_uid, neighbor_closed in ctx.state["neighbor_closed"].items():
            if neighbor_uid in removed:
                continue
            if my_closed <= (neighbor_closed - removed):
                ctx.halt(False)
                return
        ctx.halt(True)


def run_protocol_dominating_set(graph, protocol_factory, ids=None):
    """Run a membership protocol; return (chosen vertices, rounds)."""
    from repro.local_model.engine import SimulationEngine
    from repro.local_model.network import Network

    result = SimulationEngine(Network(graph, ids), max_rounds=20).run(protocol_factory)
    chosen = {v for v, output in result.outputs.items() if output is True}
    return chosen, result.rounds
