"""Tests for the port-numbered network."""

import networkx as nx
import pytest

from repro.local_model.algorithm import LocalAlgorithm
from repro.local_model.engine import SimulationEngine
from repro.local_model.identifiers import shuffled_ids
from repro.local_model.network import Network


def _deliver(graph, script, rounds=1):
    """Send ``script[uid] = {port: payload}`` from ``on_init``; return
    every vertex's inbox in each of the next ``rounds`` rounds."""

    class Scripted(LocalAlgorithm):
        def on_init(self, ctx):
            for port, payload in script.get(ctx.uid, {}).items():
                ctx.send(port, payload)

        def on_round(self, ctx):
            seen = ctx.state.setdefault("seen", [])
            seen.append(dict(ctx.inbox))
            if len(seen) == rounds:
                ctx.halt(seen)

    return SimulationEngine(Network(graph)).run(Scripted).outputs


class TestConstruction:
    def test_ports_sorted(self, cycle6):
        net = Network(cycle6)
        assert net.nodes[0].ports == [1, 5]

    def test_size(self, path5):
        assert Network(path5).size == 5

    def test_default_identity_ids(self, path5):
        net = Network(path5)
        assert all(net.nodes[v].uid == v for v in path5.nodes)

    def test_custom_ids(self, path5):
        ids = shuffled_ids(path5, seed=1)
        net = Network(path5, ids)
        assert {net.nodes[v].uid for v in path5.nodes} == set(range(5))

    def test_rejects_empty_graph(self):
        with pytest.raises(ValueError):
            Network(nx.Graph())

    def test_rejects_self_loop(self):
        g = nx.Graph()
        g.add_edge(0, 0)
        g.add_edge(0, 1)
        with pytest.raises(ValueError):
            Network(g)

    def test_rejects_partial_ids(self, path5):
        with pytest.raises(ValueError):
            Network(path5, {0: 0, 1: 1})

    def test_rejects_duplicate_ids(self, path5):
        with pytest.raises(ValueError):
            Network(path5, {v: 0 for v in path5.nodes})


class TestDelivery:
    """Messages cross links port to port: what a sender queues on port p
    lands in the receiver's inbox under the port leading back to it."""

    def test_message_arrives_at_back_port(self, path5):
        # vertex 0 sends on its only port (to 1)
        inboxes = _deliver(path5, {0: {0: "hello"}})
        # vertex 1's ports are [0, 2]; port 0 leads back to vertex 0
        assert inboxes[1] == [{0: "hello"}]

    def test_inboxes_cleared_each_round(self, path5):
        inboxes = _deliver(path5, {0: {0: "x"}}, rounds=2)
        assert inboxes[1] == [{0: "x"}, {}]

    def test_simultaneous_exchange(self, path5):
        inboxes = _deliver(path5, {0: {0: "from0"}, 1: {0: "from1"}})
        assert inboxes[1] == [{0: "from0"}]
        assert inboxes[0] == [{0: "from1"}]

    def test_uid_to_vertex_roundtrip(self, path5):
        ids = shuffled_ids(path5, seed=2)
        net = Network(path5, ids)
        back = net.uid_to_vertex()
        assert all(back[ids[v]] == v for v in path5.nodes)


class TestChurn:
    def test_churn_builds_only_the_csr_kernel(self, monkeypatch):
        """A churn round re-reads ports from a fresh CSR kernel and never
        builds the int kernel's bitset table."""
        from repro.graphs.kernel import GraphKernel, kernel_for
        from repro.local_model.adversary import ChurnEvent

        graph = nx.path_graph(6)
        net = Network(graph)
        tables = []
        layer = GraphKernel._layer

        def counting_layer(self, csr):
            tables.append(csr.n)
            layer(self, csr)

        monkeypatch.setattr(GraphKernel, "_layer", counting_layer)
        changed, joined, left = net.apply_churn(
            [ChurnEvent(1, "add_edge", 0, 5), ChurnEvent(1, "join", 9, 2)]
        )
        assert tables == []
        assert net.kernel.backend == "packed"
        assert (changed, joined, left) == ({0, 5, 9, 2}, [9], [])
        assert net.nodes[0].ports == [1, 5]
        assert net.nodes[9].ports == [2]
        assert net.kernel.to_wire() == kernel_for(graph).packed().to_wire()
