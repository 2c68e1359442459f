"""Tests for the unified simulation engine: schedulers, faults, traces."""

import pytest

from repro.graphs import generators as gen
from repro.local_model.algorithm import LocalAlgorithm
from repro.local_model.engine import (
    CongestScheduler,
    FaultPlan,
    LocalScheduler,
    MessageTooLargeError,
    SimulationEngine,
    scheduler_for,
)
from repro.local_model.gather import GatherAlgorithm
from repro.local_model.network import Network
from repro.local_model.node import NodeContext
from repro.local_model.protocols import D2Protocol


class EchoOnce(LocalAlgorithm):
    def on_init(self, ctx: NodeContext) -> None:
        ctx.broadcast(ctx.uid)

    def on_round(self, ctx: NodeContext) -> None:
        ctx.halt(sorted(ctx.inbox.values()))


class SendsExactly(LocalAlgorithm):
    """Broadcast a payload of exactly ``units`` identifier units."""

    def __init__(self, units: int):
        self.units = units

    def on_init(self, ctx: NodeContext) -> None:
        ctx.broadcast(tuple(range(self.units)))

    def on_round(self, ctx: NodeContext) -> None:
        ctx.halt(None)


class Never(LocalAlgorithm):
    def on_init(self, ctx: NodeContext) -> None:
        pass

    def on_round(self, ctx: NodeContext) -> None:
        pass


class TestSchedulers:
    def test_congest_boundary_exact_budget_passes(self, cycle6):
        budget = 5
        engine = SimulationEngine(Network(cycle6), CongestScheduler(budget))
        result = engine.run(lambda: SendsExactly(budget))
        assert result.rounds == 1

    def test_congest_boundary_one_over_fails(self, cycle6):
        budget = 5
        engine = SimulationEngine(Network(cycle6), CongestScheduler(budget))
        with pytest.raises(MessageTooLargeError) as excinfo:
            engine.run(lambda: SendsExactly(budget + 1))
        assert excinfo.value.units == budget + 1
        assert excinfo.value.budget == budget

    def test_congest_error_reports_round_and_receiver(self):
        engine = SimulationEngine(Network(gen.ladder(6)), CongestScheduler(1))
        with pytest.raises(MessageTooLargeError) as excinfo:
            engine.run(lambda: GatherAlgorithm(2))
        error = excinfo.value
        assert error.round_index is not None
        assert error.receiver is not None
        assert f"in round {error.round_index}" in str(error)
        assert f"to node {error.receiver}" in str(error)

    def test_scheduler_for(self):
        assert isinstance(scheduler_for("local"), LocalScheduler)
        congest = scheduler_for("congest", 7)
        assert isinstance(congest, CongestScheduler)
        assert congest.ids_per_message == 7
        with pytest.raises(ValueError, match="unknown model"):
            scheduler_for("quantum")

    def test_round_limit_trips_raising(self, path5):
        engine = SimulationEngine(Network(path5), max_rounds=4)
        with pytest.raises(RuntimeError, match="did not halt within 4 rounds"):
            engine.run(Never)

    def test_custom_enforcing_scheduler_sees_every_message(self, cycle6):
        """The extension contract: enforces=True gets admit() per queued
        message even when needs_units=False (units arrive as 0 when no
        one asks for payload sizes)."""
        calls = []

        class CountingScheduler:
            model = "local"
            enforces = True
            needs_units = False
            newest_first = False

            def admit(self, round_index, sender, receiver, units):
                calls.append((round_index, sender, receiver, units))

            def delay(self, round_index, sender_uid, receiver_uid):
                return 0

        engine = SimulationEngine(Network(cycle6), CountingScheduler(), trace="off")
        engine.run(EchoOnce)
        assert len(calls) == 12  # one admit per queued message
        assert all(units == 0 for *_, units in calls)


class TestTracePolicies:
    def test_full_keeps_round_stats(self, cycle6):
        result = SimulationEngine(Network(cycle6), trace="full").run(EchoOnce)
        assert result.round_stats is not None
        assert len(result.round_stats) == result.rounds
        assert result.total_messages == 12

    def test_stats_keeps_totals_only(self, cycle6):
        result = SimulationEngine(Network(cycle6), trace="stats").run(EchoOnce)
        assert result.round_stats is None
        assert result.total_messages == 12
        assert result.total_payload > 0

    def test_off_records_nothing(self, cycle6):
        result = SimulationEngine(Network(cycle6), trace="off").run(EchoOnce)
        assert result.round_stats is None
        # messages are always counted; payload sizes were never measured
        assert result.total_messages == 12
        assert result.total_payload is None
        # outputs and round counting still work
        assert set(result.outputs) == set(range(6))
        assert result.rounds == 1

    def test_off_keeps_payload_a_scheduler_measured(self, cycle6):
        # CONGEST measures every payload for admission, so the total is known
        result = SimulationEngine(
            Network(cycle6), CongestScheduler(4), trace="off"
        ).run(EchoOnce)
        assert result.total_messages == 12
        assert result.total_payload == 12

    def test_unknown_policy_rejected(self, cycle6):
        with pytest.raises(ValueError, match="trace policy"):
            SimulationEngine(Network(cycle6), trace="verbose")


class TestFaults:
    def test_drop_all_messages(self, cycle6):
        plan = FaultPlan(drop_probability=1.0)
        result = SimulationEngine(Network(cycle6), faults=plan).run(D2Protocol)
        assert result.dropped_messages == result.total_messages > 0
        # D2 still halts: with an empty inbox every node sees itself as
        # its own twin class and joins.
        assert len(result.outputs) == 6

    def test_drops_are_seeded_and_deterministic(self, ladder5):
        plan = FaultPlan(drop_probability=0.3)

        def run():
            return SimulationEngine(
                Network(ladder5), faults=plan, seed=11
            ).run(D2Protocol)

        first, second = run(), run()
        assert first.outputs == second.outputs
        assert first.dropped_messages == second.dropped_messages > 0

    def test_crashed_nodes_never_participate(self, star6):
        plan = FaultPlan(crashed=(0,))
        result = SimulationEngine(Network(star6), faults=plan).run(D2Protocol)
        assert 0 not in result.outputs
        assert set(result.outputs) == set(range(1, 6))
        assert result.crashed == (0,)
        # messages addressed to the crashed hub are swallowed, and the
        # tally is separate from probabilistic drops (none configured)
        assert result.swallowed_messages > 0
        assert result.dropped_messages == 0

    def test_unknown_crash_vertex_rejected(self, path5):
        with pytest.raises(ValueError, match="crashed vertices"):
            SimulationEngine(Network(path5), faults=FaultPlan(crashed=(99,)))

    def test_drop_probability_validated(self):
        with pytest.raises(ValueError, match="drop_probability"):
            FaultPlan(drop_probability=1.5)

    def test_all_crashed_ends_immediately(self, path5):
        plan = FaultPlan(crashed=tuple(path5.nodes))
        result = SimulationEngine(Network(path5), faults=plan).run(D2Protocol)
        assert result.rounds == 0
        assert result.outputs == {}


class TestDeliveryContract:
    def test_payloads_move_by_reference(self, path5):
        """The immutable-by-convention contract: no defensive copies."""
        sent = {}
        received = {}

        class Probe(LocalAlgorithm):
            def on_init(self, ctx: NodeContext) -> None:
                payload = ("probe", ctx.uid)
                sent[ctx.uid] = payload
                ctx.broadcast(payload)

            def on_round(self, ctx: NodeContext) -> None:
                received[ctx.uid] = list(ctx.inbox.values())
                ctx.halt(None)

        SimulationEngine(Network(path5)).run(Probe)
        arrived = {id(p) for payloads in received.values() for p in payloads}
        assert arrived <= {id(p) for p in sent.values()}

    def test_inbox_snapshot_survives_later_rounds(self, star6):
        """Holding an inbox mapping across rounds is safe: the engine
        rebinds fresh dicts instead of clearing in place."""

        class Hoarder(LocalAlgorithm):
            def on_init(self, ctx: NodeContext) -> None:
                ctx.broadcast(ctx.uid)

            def on_round(self, ctx: NodeContext) -> None:
                boxes = ctx.state.setdefault("boxes", [])
                boxes.append(ctx.inbox)
                if len(boxes) == 2:
                    ctx.halt([sorted(b.values()) for b in boxes])
                else:
                    ctx.broadcast(-ctx.uid)

        result = SimulationEngine(Network(star6)).run(Hoarder)
        first, second = result.outputs[0]
        assert first == [1, 2, 3, 4, 5]
        assert second == [-5, -4, -3, -2, -1]

    def test_inbox_ports_are_plain_ints_naming_the_sender(self, ladder5):
        """Inbox keys are Python ints: the receiver's port of the sender."""
        seen = {}

        class PortProbe(LocalAlgorithm):
            def on_init(self, ctx: NodeContext) -> None:
                ctx.broadcast(ctx.uid)

            def on_round(self, ctx: NodeContext) -> None:
                seen[ctx.uid] = dict(ctx.inbox)
                ctx.halt(None)

        network = Network(ladder5)
        SimulationEngine(network).run(PortProbe)
        for node in network.nodes.values():
            inbox = seen[node.uid]
            assert all(type(port) is int for port in inbox)
            assert inbox == {p: network.ids[u] for p, u in enumerate(node.ports)}
