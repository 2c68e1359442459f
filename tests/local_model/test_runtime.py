"""Round semantics of the simulation engine under the LOCAL scheduler."""

import networkx as nx
import pytest

from repro.graphs import generators as gen
from repro.local_model.algorithm import LocalAlgorithm
from repro.local_model.engine import SimulationEngine
from repro.local_model.network import Network
from repro.local_model.node import NodeContext


class EchoOnce(LocalAlgorithm):
    """Each node broadcasts its uid, then outputs its neighbor ids."""

    def on_init(self, ctx: NodeContext) -> None:
        ctx.broadcast(ctx.uid)

    def on_round(self, ctx: NodeContext) -> None:
        ctx.halt(sorted(ctx.inbox.values()))


class CountDown(LocalAlgorithm):
    def __init__(self, rounds: int):
        self.remaining = rounds

    def on_init(self, ctx: NodeContext) -> None:
        ctx.broadcast("tick")

    def on_round(self, ctx: NodeContext) -> None:
        self.remaining -= 1
        if self.remaining <= 0:
            ctx.halt(ctx.uid)
        else:
            ctx.broadcast("tick")


class Silent(LocalAlgorithm):
    def on_init(self, ctx: NodeContext) -> None:
        pass

    def on_round(self, ctx: NodeContext) -> None:  # pragma: no cover
        pass


class TestRuntime:
    def test_neighbor_discovery(self, cycle6):
        result = SimulationEngine(Network(cycle6)).run(EchoOnce)
        assert result.outputs[0] == [1, 5]
        assert result.rounds == 1

    def test_round_count(self, path5):
        result = SimulationEngine(Network(path5)).run(lambda: CountDown(4))
        assert result.rounds == 4

    def test_outputs_for_all_nodes(self, path5):
        result = SimulationEngine(Network(path5)).run(EchoOnce)
        assert set(result.outputs) == set(path5.nodes)

    def test_non_halting_raises(self, path5):
        engine = SimulationEngine(Network(path5), max_rounds=5)
        with pytest.raises(RuntimeError, match="did not halt"):
            engine.run(Silent)

    def test_trace_accounting(self, cycle6):
        result = SimulationEngine(Network(cycle6)).run(EchoOnce)
        # every node broadcasts once on both ports: 12 messages total
        assert result.trace.total_messages == 12
        assert result.trace.round_count == 1

    def test_single_node_network(self):
        g = nx.Graph()
        g.add_node(0)
        result = SimulationEngine(Network(g)).run(EchoOnce)
        assert result.outputs[0] == []

    def test_heterogeneous_halting(self):
        # A star where leaves halt a round before the hub would show
        # stale outboxes if halted nodes kept sending; ensure clean run.
        g = gen.star(5)

        class LeafFast(LocalAlgorithm):
            def on_init(self, ctx: NodeContext) -> None:
                ctx.broadcast(ctx.uid)

            def on_round(self, ctx: NodeContext) -> None:
                if ctx.degree == 1:
                    ctx.halt("leaf")
                elif len(ctx.state.setdefault("seen", [])) >= 1:
                    ctx.halt("hub")
                else:
                    ctx.state["seen"].append(ctx.inbox)
                    ctx.broadcast(ctx.uid)

        result = SimulationEngine(Network(g)).run(LeafFast)
        assert result.outputs[0] == "hub"
        assert all(result.outputs[v] == "leaf" for v in range(1, 5))
