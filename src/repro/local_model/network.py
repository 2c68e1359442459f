"""The simulated network: nodes plus port-level connectivity."""

from __future__ import annotations

from typing import Hashable

import networkx as nx

from repro.graphs.kernel import invalidate_kernel, kernel_for
from repro.graphs.packed import PackedGraphKernel
from repro.local_model.identifiers import identity_ids
from repro.local_model.node import Node

Vertex = Hashable


class Network:
    """Port-numbered network built from an undirected graph.

    Port order is the sorted order of neighbor labels — any fixed order
    is fine in the LOCAL model; sorting keeps simulations reproducible.
    The ordering comes from the graph's CSR kernel (kernel index order
    *is* repr-sorted order), so ports are read straight off its rows
    instead of re-sorting every adjacency list.
    """

    def __init__(self, graph: nx.Graph, ids: dict[Vertex, int] | None = None):
        if graph.number_of_nodes() == 0:
            raise ValueError("network needs at least one node")
        if any(u == v for u, v in graph.edges):
            raise ValueError("self-loops are not allowed")
        self.graph = graph
        self._use(kernel_for(graph).packed())
        self.ids = ids if ids is not None else identity_ids(graph)
        if set(self.ids) != set(graph.nodes):
            raise ValueError("identifier assignment must cover exactly V(G)")
        if len(set(self.ids.values())) != len(self.ids):
            raise ValueError("identifiers must be unique")
        self.nodes: dict[Vertex, Node] = {}
        # Node-dict order is graph.nodes order (not kernel order): the
        # engine walks nodes in this order, so it fixes the pairing of
        # messages with the fault-plan and delay RNG draws.
        for v in graph.nodes:
            self.nodes[v] = Node(vertex=v, uid=self.ids[v], ports=self._ports(v))

    def _use(self, kernel: PackedGraphKernel) -> None:
        self.kernel = kernel
        self._rows = kernel.rows()

    def _ports(self, v: Vertex) -> list[Vertex]:
        """``v``'s neighbor labels in port order (its CSR row)."""
        labels = self.kernel.labels
        indptr, indices = self._rows
        i = self.kernel.index_of[v]
        return [labels[j] for j in indices[indptr[i] : indptr[i + 1]]]

    @property
    def size(self) -> int:
        return len(self.nodes)

    def apply_churn(self, events) -> tuple[set, list, list]:
        """Apply one round's churn events; returns (changed, joined, left).

        Mutates the underlying graph, then goes through the kernel
        mutation contract — ``invalidate_kernel`` on every exit path,
        then a fresh CSR kernel — so under ``REPRO_KERNEL_GUARD=1`` no
        stale CSR can survive a churn round.  Port lists are re-derived
        *incrementally*: only vertices whose adjacency actually changed
        (``changed``) get their ports rebuilt, in place on the existing
        :class:`Node` objects, so untouched delivery routes stay valid.

        ``joined`` vertices get fresh nodes with new unique identifiers
        (allocated past the current maximum, in event order); ``left``
        vertices are removed from the network entirely — their outputs,
        if any, no longer exist.  The caller (the engine) owns route
        rebuilding and message cleanup.
        """
        graph = self.graph
        changed: set[Vertex] = set()
        joined: list[Vertex] = []
        left: list[Vertex] = []
        try:
            for event in events:
                kind = event.kind
                if kind == "add_edge":
                    graph.add_edge(event.u, event.v)
                    changed.update((event.u, event.v))
                elif kind == "del_edge":
                    graph.remove_edge(event.u, event.v)
                    changed.update((event.u, event.v))
                elif kind == "join":
                    graph.add_node(event.u)
                    joined.append(event.u)
                    changed.add(event.u)
                    if event.v is not None:
                        graph.add_edge(event.u, event.v)
                        changed.add(event.v)
                else:  # leave
                    changed.update(graph.neighbors(event.u))
                    graph.remove_node(event.u)
                    left.append(event.u)
                    changed.discard(event.u)
        finally:
            invalidate_kernel(graph)
        # Only the CSR is read here, so build just that: kernel_for would
        # also build the int kernel's O(n²/8) bitset table below the
        # packed threshold, once per churn round.
        self._use(PackedGraphKernel.from_graph(graph))
        changed.difference_update(set(left) - set(joined))
        for v in left:
            self.nodes.pop(v, None)
            self.ids.pop(v, None)
        next_uid = max(self.ids.values(), default=-1) + 1
        for v in joined:
            self.ids[v] = next_uid
            next_uid += 1
        for v in joined:
            self.nodes[v] = Node(vertex=v, uid=self.ids[v], ports=self._ports(v))
        for v in changed:
            if v in self.nodes and v not in joined:
                self.nodes[v].ports = self._ports(v)
        return changed, joined, left

    def outputs(self) -> dict[Vertex, object]:
        """Per-vertex outputs of halted nodes."""
        return {v: node.output for v, node in self.nodes.items() if node.halted}

    def uid_to_vertex(self) -> dict[int, Vertex]:
        return {uid: v for v, uid in self.ids.items()}
