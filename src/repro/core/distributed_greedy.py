"""Distributed greedy MDS: the classical non-constant-round reference.

The standard distributed adaptation of the greedy set-cover algorithm
(cf. the survey literature the paper cites): in each phase, a vertex
joins the dominating set when its *residual span* (number of
still-undominated vertices in its closed neighborhood) is a local
maximum among all vertices within distance 2, with identifier
tie-breaking.  The output matches the sequential greedy's quality class
(``O(log Δ)`` ratio) but needs ``Θ(span-levels)`` phases of constant
rounds each — a useful round-complexity contrast to the paper's
constant-round algorithms in Table 1's "reference" row.

Implemented both as a centralized reference (:func:`distributed_greedy_
dominating_set`) and as a true message protocol
(:class:`DistributedGreedyProtocol`); tests assert they agree.
"""

from __future__ import annotations

from typing import Hashable

import networkx as nx
import numpy as np

from repro.core.results import AlgorithmResult
from repro.graphs.kernel import kernel_for
from repro.local_model.algorithm import LocalAlgorithm
from repro.local_model.node import NodeContext

Vertex = Hashable


def distributed_greedy_dominating_set(graph: nx.Graph) -> AlgorithmResult:
    """Centralized reference for the locally-maximal greedy.

    Phases repeat until everything is dominated; within a phase every
    vertex whose (span, -rank) is maximal in its distance-2 ball joins
    simultaneously (ranks from :func:`_rank`).  Rounds charged: 4 per
    phase, matching the message protocol (span exchange, maximality
    exchange, join announcement, domination-status sync).

    Runs on the closed CSR of the graph's kernel (either backend), in
    O(n + m) memory: each phase the spans are one prefix sum, the
    (span, tie-rank) keys fold into one int64 per vertex, and two
    ``np.maximum.reduceat`` passes over the closed rows give every
    vertex the largest key within distance 2.  The joiners are the
    live (span > 0) vertices holding that key; a vertex with span 0
    gets key -1, so it never beats a live competitor.
    """
    kernel = kernel_for(graph).packed()
    n = kernel.n
    cind, ccols = kernel._closed_csr()
    starts = cind[:-1]
    ranks = [_rank(v, i) for i, v in enumerate(kernel.labels)]
    # Dense tie-ranks, larger for a smaller rank; equal ranks stay equal.
    dense = {r: k for k, r in enumerate(sorted(set(ranks), reverse=True))}
    tie = np.array([dense[r] for r in ranks], dtype=np.int64)
    scale = len(dense)

    undominated = np.ones(n, dtype=bool)
    chosen = np.zeros(n, dtype=bool)
    pref = np.zeros(ccols.size + 1, dtype=np.int64)
    phases = 0
    while undominated.any():
        phases += 1
        np.cumsum(undominated[ccols], out=pref[1:])
        spans = pref[cind[1:]] - pref[starts]
        live = spans > 0
        key = np.where(live, spans * scale + tie, -1)
        best = np.maximum.reduceat(key[ccols], starts)
        best = np.maximum.reduceat(best[ccols], starts)
        joiners = live & (key == best)
        if not joiners.any():  # safety: cannot happen while undominated ≠ ∅
            raise RuntimeError("greedy stalled")
        chosen |= joiners
        undominated &= ~np.logical_or.reduceat(joiners[ccols], starts)
    solution = {kernel.labels[i] for i in np.flatnonzero(chosen).tolist()}
    return AlgorithmResult(
        name="distributed_greedy",
        solution=solution,
        rounds=4 * phases,
        phases={"greedy": set(solution)},
        metadata={"phases": phases},
    )


def _rank(v: Vertex, index: int) -> int:
    """Identifier rank for tie-breaking, assigned the way
    :func:`~repro.local_model.identifiers.identity_ids` assigns ids: the
    label itself when it is an int, else its kernel (repr-order) index.
    So the result matches :func:`run_distributed_greedy` under default
    ids, and never depends on the process hash seed."""
    return v if isinstance(v, int) else index


class DistributedGreedyProtocol(LocalAlgorithm):
    """Message-passing version of the locally-maximal greedy.

    Each phase is three rounds:

    1. broadcast (uid, my span);
    2. broadcast the best (span, -uid) seen among me and my neighbors —
       after which everyone knows the distance-2 maximum;
    3. broadcast whether I joined; receivers update domination status.

    A vertex halts (with its membership) once its closed neighborhood is
    fully dominated — it must linger while any neighbor is undominated
    because its span can still matter to others' maxima.
    """

    def on_init(self, ctx: NodeContext) -> None:
        ctx.state["member"] = False
        ctx.state["dominated"] = False
        ctx.state["phase_step"] = 0
        ctx.state["neighbor_dominated"] = {}
        ctx.state["span"] = 1 + ctx.degree
        ctx.broadcast(("span", ctx.uid, 1 + ctx.degree))

    def _my_span(self, ctx: NodeContext) -> int:
        own = 0 if ctx.state["dominated"] else 1
        return own + sum(
            0 if ctx.state["neighbor_dominated"].get(port, False) else 1
            for port in range(ctx.degree)
        )

    def on_round(self, ctx: NodeContext) -> None:
        step = ctx.state["phase_step"]

        if step == 0:
            # Received neighbor spans; compute & share the local max.
            best = (self._my_span(ctx), -ctx.uid)
            for _, (_, uid, span) in ctx.inbox.items():
                best = max(best, (span, -uid))
            ctx.state["best_seen"] = best
            ctx.broadcast(("best", best))
            ctx.state["phase_step"] = 1
            return

        if step == 1:
            # Distance-2 maximum = max of neighbors' bests and mine.
            best = ctx.state["best_seen"]
            for _, (_, neighbor_best) in ctx.inbox.items():
                best = max(best, neighbor_best)
            my_key = (self._my_span(ctx), -ctx.uid)
            joining = my_key == best and self._my_span(ctx) > 0
            if joining:
                ctx.state["member"] = True
                ctx.state["dominated"] = True
            ctx.broadcast(("joined", joining))
            ctx.state["phase_step"] = 2
            return

        # step == 2: absorb join announcements, start next phase or halt.
        for port, (_, joined) in ctx.inbox.items():
            if joined:
                ctx.state["dominated"] = True
            ctx.state["neighbor_dominated"][port] = (
                ctx.state["neighbor_dominated"].get(port, False) or joined
            )
        # A neighbor that joined dominates itself; track via messages:
        # we need neighbors' dominated-status for span, so share it.
        ctx.broadcast(("status", ctx.state["dominated"]))
        ctx.state["phase_step"] = 3

    def _absorb_status(self, ctx: NodeContext) -> None:
        for port, (_, dominated) in ctx.inbox.items():
            ctx.state["neighbor_dominated"][port] = dominated


class DistributedGreedyProtocolFull(DistributedGreedyProtocol):
    """Four-round-phase variant that also syncs domination status."""

    def on_round(self, ctx: NodeContext) -> None:
        step = ctx.state["phase_step"]
        if step == 3:
            self._absorb_status(ctx)
            if ctx.state["dominated"] and all(
                ctx.state["neighbor_dominated"].get(p, False)
                for p in range(ctx.degree)
            ):
                ctx.halt(ctx.state["member"])
                return
            ctx.state["phase_step"] = 0
            ctx.broadcast(("span", ctx.uid, self._my_span(ctx)))
            return
        super().on_round(ctx)


def run_distributed_greedy(graph: nx.Graph, ids=None) -> AlgorithmResult:
    """Execute the message protocol; returns the standard result record."""
    from repro.local_model.engine import SimulationEngine
    from repro.local_model.network import Network

    engine = SimulationEngine(
        Network(graph, ids), max_rounds=40 * graph.number_of_nodes() + 40
    )
    result = engine.run(DistributedGreedyProtocolFull)
    chosen = {v for v, member in result.outputs.items() if member}
    return AlgorithmResult(
        name="distributed_greedy_protocol",
        solution=chosen,
        rounds=result.rounds,
        phases={"greedy": set(chosen)},
    )
