"""Failure injection: the engine must fail loudly, not corrupt state."""

import networkx as nx
import pytest

from repro.graphs import generators as gen
from repro.local_model.algorithm import LocalAlgorithm
from repro.local_model.engine import SimulationEngine
from repro.local_model.network import Network
from repro.local_model.node import NodeContext


class BadPortSender(LocalAlgorithm):
    def on_init(self, ctx: NodeContext) -> None:
        ctx.send(ctx.degree + 5, "oops")

    def on_round(self, ctx: NodeContext) -> None:  # pragma: no cover
        ctx.halt(None)


class CrashesInRound(LocalAlgorithm):
    def on_init(self, ctx: NodeContext) -> None:
        ctx.broadcast("x")

    def on_round(self, ctx: NodeContext) -> None:
        raise RuntimeError("node crashed")


class HaltsTwice(LocalAlgorithm):
    def on_init(self, ctx: NodeContext) -> None:
        ctx.broadcast("x")

    def on_round(self, ctx: NodeContext) -> None:
        ctx.halt(1)
        ctx.halt(2)  # last call wins; must not corrupt


class SendsAfterHalt(LocalAlgorithm):
    def on_init(self, ctx: NodeContext) -> None:
        ctx.broadcast("x")

    def on_round(self, ctx: NodeContext) -> None:
        ctx.halt("done")
        ctx.broadcast("zombie")


class TestFailures:
    def test_bad_port_raises(self, cycle6):
        with pytest.raises(ValueError, match="has no port"):
            SimulationEngine(Network(cycle6)).run(BadPortSender)

    def test_node_exception_propagates(self, path5):
        with pytest.raises(RuntimeError, match="node crashed"):
            SimulationEngine(Network(path5)).run(CrashesInRound)

    def test_double_halt_keeps_last_output(self, path5):
        result = SimulationEngine(Network(path5)).run(HaltsTwice)
        assert all(v == 2 for v in result.outputs.values())

    def test_messages_after_halt_are_dropped(self, path5):
        # the engine skips outboxes of halted nodes: no zombie traffic.
        result = SimulationEngine(Network(path5)).run(SendsAfterHalt)
        assert result.rounds == 1
        assert all(v == "done" for v in result.outputs.values())

    def test_max_rounds_zero_graph(self):
        g = nx.Graph()
        g.add_node(0)

        class Never(LocalAlgorithm):
            def on_init(self, ctx):
                pass

            def on_round(self, ctx):
                pass

        with pytest.raises(RuntimeError, match="did not halt"):
            SimulationEngine(Network(g), max_rounds=3).run(Never)


class TestSolverFailureModes:
    def test_infeasible_b_domination(self, path5):
        from repro.solvers.exact import minimum_b_dominating_set

        with pytest.raises(ValueError, match="cannot be dominated"):
            minimum_b_dominating_set(path5, [0], candidates=[3, 4])

    def test_insufficient_view_is_loud(self):
        from repro.core.algorithm1 import InsufficientViewError, decide_membership
        from repro.core.radii import RadiusPolicy
        from repro.local_model.gather import gather_views

        g = gen.ladder(8)
        policy = RadiusPolicy.practical()
        # radius just at detection: membership decisions needing the
        # component reconstruction must refuse rather than guess.
        views, _ = gather_views(g, policy.detection_radius)
        outcomes = []
        for view in views.values():
            try:
                outcomes.append(decide_membership(view, policy))
            except InsufficientViewError:
                outcomes.append("refused")
        assert "refused" in outcomes
