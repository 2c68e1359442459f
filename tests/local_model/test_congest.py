"""Tests for CONGEST accounting."""

from repro.graphs import generators as gen
from repro.local_model.congest import (
    congest_budget_units,
    gather_volume_model,
    trace_congest_report,
)
from repro.local_model.engine import SimulationEngine
from repro.local_model.gather import gather_views
from repro.local_model.network import Network
from repro.local_model.protocols import DegreeTwoProtocol


class TestReports:
    def test_gathering_violates_congest(self):
        g = gen.ladder(10)
        _, trace = gather_views(g, 3)
        report = trace_congest_report(g, trace)
        assert not report.congest_feasible
        assert report.overshoot > 1

    def test_degree_rule_fits_congest(self):
        g = gen.cycle(20)
        network = Network(g)
        result = SimulationEngine(network, max_rounds=5).run(DegreeTwoProtocol)
        report = trace_congest_report(g, result.trace, ids_per_message=3)
        assert report.congest_feasible

    def test_overshoot_grows_with_radius(self):
        g = gen.ladder(12)
        _, small = gather_views(g, 1)
        _, large = gather_views(g, 4)
        r_small = trace_congest_report(g, small)
        r_large = trace_congest_report(g, large)
        assert r_large.overshoot > r_small.overshoot


class TestModel:
    def test_budget_units(self):
        assert congest_budget_units(100) == 1.0
        assert congest_budget_units(100, ids_per_message=4) == 4.0

    def test_volume_model_monotone_in_radius(self):
        v1 = gather_volume_model(100, 1, 4)
        v3 = gather_volume_model(100, 3, 4)
        assert v3 > v1

    def test_volume_model_caps_at_n(self):
        assert gather_volume_model(10, 10, 4) <= 10 * 5

    def test_degenerate_degree(self):
        assert gather_volume_model(10, 3, 1) == 5.0
