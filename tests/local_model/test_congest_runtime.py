"""CONGEST enforcement: the engine under a :class:`CongestScheduler`."""

import pytest

from repro.graphs import generators as gen
from repro.local_model.engine import (
    CongestScheduler,
    MessageTooLargeError,
    SimulationEngine,
)
from repro.local_model.gather import GatherAlgorithm
from repro.local_model.network import Network
from repro.local_model.protocols import DegreeTwoProtocol, D2Protocol


def run_congest(graph, algorithm_factory, ids_per_message):
    engine = SimulationEngine(Network(graph), CongestScheduler(ids_per_message))
    return engine.run(algorithm_factory)


class TestEnforcement:
    def test_degree_rule_fits(self, cycle6):
        result = run_congest(cycle6, DegreeTwoProtocol, ids_per_message=4)
        assert set(result.outputs) == set(cycle6.nodes)

    def test_gathering_rejected(self):
        with pytest.raises(MessageTooLargeError):
            run_congest(gen.ladder(8), lambda: GatherAlgorithm(3), ids_per_message=4)

    def test_d2_needs_neighborhood_sized_messages(self):
        # D2 sends closed neighborhoods: Θ(Δ) identifiers.  With budget
        # below Δ+2 it must fail on a star; with a degree-sized budget
        # it runs.
        g = gen.star(8)
        with pytest.raises(MessageTooLargeError):
            run_congest(g, D2Protocol, ids_per_message=3)
        result = run_congest(g, D2Protocol, ids_per_message=32)
        assert set(result.outputs) == set(g.nodes)

    def test_error_carries_details(self, cycle6):
        with pytest.raises(MessageTooLargeError) as excinfo:
            run_congest(gen.ladder(6), lambda: GatherAlgorithm(2), ids_per_message=1)
        assert excinfo.value.units > excinfo.value.budget

    def test_budget_validation(self, cycle6):
        with pytest.raises(ValueError):
            CongestScheduler(ids_per_message=0)
