"""Async + adversarial schedulers: delay streams and delivery order."""

import pytest

from repro.graphs import generators as gen
from repro.local_model.algorithm import LocalAlgorithm
from repro.local_model.engine import FaultPlan, SimulationEngine, scheduler_for
from repro.local_model.network import Network
from repro.local_model.node import NodeContext
from repro.local_model.protocols import D2Protocol
from repro.local_model.schedulers import AdversarialScheduler, AsyncScheduler


class TwoSends(LocalAlgorithm):
    """Node 0 sends "stale" from on_init and "fresh" in round 1; node 1
    records what its single port holds in each round."""

    def on_init(self, ctx: NodeContext) -> None:
        if ctx.uid == 0:
            ctx.send(0, "stale")

    def on_round(self, ctx: NodeContext) -> None:
        if ctx.uid == 0:
            if ctx.state.setdefault("sent", False):
                ctx.halt(None)
            else:
                ctx.state["sent"] = True
                ctx.send(0, "fresh")
            return
        seen = ctx.state.setdefault("seen", [])
        seen.append(ctx.inbox.get(0))
        if len(seen) == 3:
            ctx.halt(seen)


def collide(scheduler_class):
    """Run :class:`TwoSends` with the first message held one round, so
    both land on node 1's port in round 2."""

    class Colliding(scheduler_class):
        def delay(self, round_index, sender_uid, receiver_uid):
            return 1 if round_index == 1 else 0

    engine = SimulationEngine(Network(gen.path(2)), Colliding(), max_rounds=8)
    return engine.run(TwoSends).outputs[1]


class TestAsyncScheduler:
    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError, match="delay bound"):
            AsyncScheduler(delay_bound=-1)

    def test_delays_are_bounded_and_seeded(self):
        first = AsyncScheduler(delay_bound=3, seed=7)
        second = AsyncScheduler(delay_bound=3, seed=7)
        draws = [first.delay(1, 0, 1) for _ in range(50)]
        assert draws == [second.delay(1, 0, 1) for _ in range(50)]
        assert all(0 <= d <= 3 for d in draws)
        assert len(set(draws)) > 1

    def test_zero_bound_never_draws(self):
        scheduler = AsyncScheduler(delay_bound=0, seed=7)
        assert [scheduler.delay(1, 0, 1) for _ in range(10)] == [0] * 10

    def test_order_is_fifo(self):
        # oldest first, so the freshest payload is written last and wins
        assert not AsyncScheduler.newest_first
        assert collide(AsyncScheduler) == [None, "fresh", None]


class TestAdversarialScheduler:
    def test_holds_messages_up_the_identifier_order(self):
        scheduler = AdversarialScheduler(delay_bound=2)
        assert scheduler.delay(1, sender_uid=0, receiver_uid=5) == 2
        assert scheduler.delay(1, sender_uid=5, receiver_uid=0) == 0

    def test_stalest_payload_wins_the_port_slot(self):
        # Newest delivered first, so the stale write lands last.
        assert AdversarialScheduler.newest_first
        assert collide(AdversarialScheduler) == [None, "stale", None]

    def test_zero_bound_recovers_synchrony(self):
        graph = gen.cycle(8)
        plain = SimulationEngine(
            Network(graph), max_rounds=64, faults=FaultPlan(), seed=0
        ).run(D2Protocol)
        sync = SimulationEngine(
            Network(graph),
            AdversarialScheduler(delay_bound=0),
            max_rounds=64,
            faults=FaultPlan(),
            seed=0,
        ).run(D2Protocol)
        assert sync.outputs == plain.outputs
        assert sync.rounds == plain.rounds


class TestSchedulerFor:
    def test_async_and_adversarial_models(self):
        async_s = scheduler_for("async", delay=3, seed=11)
        assert async_s.model == "async"
        assert not async_s.newest_first and not async_s.enforces
        assert async_s.delay_bound == 3 and async_s.seed == 11
        adv = scheduler_for("adversarial", delay=1)
        assert adv.model == "adversarial"
        assert adv.newest_first and adv.delay_bound == 1

    def test_local_and_congest_never_delay(self):
        for scheduler in (scheduler_for("local"), scheduler_for("congest", budget=4)):
            assert scheduler.delay(1, 0, 5) == scheduler.delay(1, 5, 0) == 0
            assert not scheduler.newest_first
            assert not hasattr(scheduler, "delay_bound")

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="unknown model"):
            scheduler_for("quantum")


class TestEngineWithPlannedDelivery:
    def _run(self, scheduler, seed=0):
        return SimulationEngine(
            Network(gen.cycle(8)),
            scheduler,
            max_rounds=64,
            faults=FaultPlan(),
            seed=seed,
        ).run(D2Protocol)

    def test_async_run_reproduces_exactly(self):
        first = self._run(AsyncScheduler(delay_bound=2, seed=5))
        second = self._run(AsyncScheduler(delay_bound=2, seed=5))
        assert first == second

    def test_async_delay_stream_changes_with_seed(self):
        runs = {
            self._run(AsyncScheduler(delay_bound=3, seed=s)).delayed_messages
            for s in range(4)
        }
        assert len(runs) > 1

    def test_delayed_messages_are_counted(self):
        result = self._run(AdversarialScheduler(delay_bound=2))
        assert result.delayed_messages > 0

    def test_delaying_scheduler_shields_even_at_zero_bound(self):
        class Explodes(D2Protocol):
            def on_round(self, ctx):
                raise RuntimeError("boom")

        def run(scheduler):
            return SimulationEngine(
                Network(gen.path(3)), scheduler, max_rounds=8
            ).run(Explodes)

        assert set(run(AsyncScheduler(delay_bound=0)).failed) == {0, 1, 2}
        assert set(run(AdversarialScheduler(delay_bound=0)).failed) == {0, 1, 2}
        with pytest.raises(RuntimeError, match="boom"):
            run(None)

    def test_stale_inputs_shield_instead_of_crash(self):
        # D2's phase payloads can arrive out of phase under delays; the
        # engine must record the victims as failed, not blow up.
        result = self._run(AdversarialScheduler(delay_bound=2))
        assert set(result.failed) <= set(range(8))
        assert result.outputs or result.failed
