"""Tests for the `repro.api.simulate` front door and its JSON round-trip."""

import json

import networkx as nx
import pytest

from repro.analysis.domination import is_dominating_set
from repro.api import (
    FaultPlan,
    SimReport,
    SimulationSpec,
    UnknownAlgorithmError,
    UnsupportedModeError,
    engine_algorithm_names,
    simulate,
    simulate_many,
    solve,
)
from repro.graphs import generators as gen
from repro.io import (
    from_dict,
    load_sim_reports,
    save_sim_reports,
    sim_report_to_dict,
    to_dict,
)
from repro.local_model.engine import MessageTooLargeError


class TestSimulate:
    def test_d2_protocol_matches_fast_path(self, fan5):
        report = simulate(fan5, "d2")
        assert report.rounds == 3
        assert report.chosen == solve(fan5, "d2").solution
        assert is_dominating_set(fan5, report.chosen)

    def test_spec_capabilities_enforced(self, fan5):
        with pytest.raises(UnsupportedModeError, match="no message-passing protocol"):
            simulate(fan5, "exact")
        with pytest.raises(UnknownAlgorithmError):
            simulate(fan5, "nope")

    def test_engine_capable_registry_flags(self):
        assert set(engine_algorithm_names()) == {
            "d2",
            "degree_two",
            "greedy",
            "take_all",
        }

    def test_zero_node_graph_rejects_crash_plan(self):
        # the engine's crash-vertex validation must hold on the
        # engine-less zero-node path too
        with pytest.raises(ValueError, match="crashed vertices"):
            simulate(
                nx.Graph(),
                SimulationSpec(algorithm="d2", faults=FaultPlan(crashed=(0,))),
            )

    def test_zero_node_graph_is_empty_report(self):
        report = simulate(nx.Graph(), "d2")
        assert report.rounds == 0
        assert report.outputs == {}
        assert report.chosen == set()
        assert report.instance == {"n": 0, "m": 0}
        # and it still round-trips
        back = from_dict(SimReport, sim_report_to_dict(report))
        assert sim_report_to_dict(back) == sim_report_to_dict(report)

    def test_congest_model_budget(self, star6):
        # D2 ships closed neighborhoods: budget below Δ+2 must fail with
        # an actionable error, a degree-sized budget runs.
        with pytest.raises(MessageTooLargeError) as excinfo:
            simulate(star6, SimulationSpec(algorithm="d2", model="congest", budget=3))
        assert excinfo.value.round_index is not None
        assert excinfo.value.receiver is not None
        report = simulate(
            star6, SimulationSpec(algorithm="d2", model="congest", budget=32)
        )
        assert report.chosen == solve(star6, "d2").solution

    def test_identifier_schemes(self, ladder5):
        expected = solve(ladder5, "d2").solution
        for scheme in ("identity", "shuffled", "spread"):
            report = simulate(
                ladder5, SimulationSpec(algorithm="d2", ids=scheme, seed=3)
            )
            assert is_dominating_set(ladder5, report.chosen)
            assert len(report.chosen) == len(expected)

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="unknown model"):
            SimulationSpec(algorithm="d2", model="quantum")
        with pytest.raises(ValueError, match="trace policy"):
            SimulationSpec(algorithm="d2", trace="loud")
        with pytest.raises(ValueError, match="budget"):
            SimulationSpec(algorithm="d2", budget=0)
        with pytest.raises(ValueError, match="identifier scheme"):
            SimulationSpec(algorithm="d2", ids="random")

    def test_round_limit_trips_raising(self, path5):
        with pytest.raises(RuntimeError, match="did not halt"):
            simulate(path5, SimulationSpec(algorithm="greedy", max_rounds=2))


class TestFaultRuns:
    def test_fault_plan_completes_and_roundtrips(self, fan5, tmp_path):
        spec = SimulationSpec(
            algorithm="d2",
            seed=5,
            faults=FaultPlan(drop_probability=0.2, crashed=(0,)),
        )
        report = simulate(fan5, spec, meta={"family": "fan", "size": 5})
        assert report.rounds == 3
        assert 0 not in report.outputs
        assert report.crashed == (0,)
        assert report.dropped_messages > 0
        assert report.swallowed_messages > 0

        payload = sim_report_to_dict(report)
        back = from_dict(SimReport, json.loads(json.dumps(payload)))
        assert sim_report_to_dict(back) == payload
        assert back.spec == spec
        assert back.chosen == report.chosen

        path = tmp_path / "sim.json"
        save_sim_reports([report], path)
        assert [r.outputs for r in load_sim_reports(path)] == [report.outputs]

    def test_tuple_vertex_graph_roundtrips(self):
        # JSON has no tuples: vertex labels like grid coordinates must
        # come back hashable (lists are re-tupled on load).
        graph = nx.grid_2d_graph(3, 3)
        report = simulate(
            graph,
            SimulationSpec(algorithm="d2", faults=FaultPlan(crashed=((0, 0),))),
        )
        back = from_dict(SimReport, json.loads(json.dumps(sim_report_to_dict(report))))
        assert back.outputs == report.outputs
        assert back.crashed == ((0, 0),)
        assert back.chosen == report.chosen
        # the spec's fault plan must come back usable too
        assert back.spec.faults.crashed == ((0, 0),)
        rerun = simulate(graph, back.spec)
        assert rerun.outputs == report.outputs

    def test_trace_off_payload_roundtrips_as_null(self, fan5):
        report = simulate(fan5, SimulationSpec(algorithm="d2", trace="off"))
        # messages are always counted; unmeasured payload is None, not 0
        assert report.total_messages == simulate(fan5, "d2").total_messages > 0
        assert report.total_payload is None
        payload = sim_report_to_dict(report)
        text = json.dumps(payload)
        assert '"total_payload": null' in text
        back = from_dict(SimReport, json.loads(text))
        assert back.total_payload is None
        assert sim_report_to_dict(back) == payload

    def test_spec_roundtrip(self):
        spec = SimulationSpec(
            algorithm="degree_two",
            model="congest",
            budget=6,
            max_rounds=77,
            trace="full",
            seed=9,
            faults=FaultPlan(drop_probability=0.5, crashed=(1, 2)),
            ids="spread",
        )
        assert from_dict(SimulationSpec, json.loads(json.dumps(to_dict(spec)))) == spec


class TestSimulateMany:
    def _instances(self):
        return [
            ({"family": "fan", "size": 8}, gen.fan(8)),
            ({"family": "ladder", "size": 5}, gen.ladder(5)),
            ({"family": "tree", "size": 9}, gen.caterpillar(3, 2)),
        ]

    def test_workers_byte_identical_json(self):
        specs = [
            SimulationSpec(algorithm="d2", trace="full"),
            SimulationSpec(
                algorithm="degree_two",
                seed=2,
                faults=FaultPlan(drop_probability=0.1),
            ),
        ]
        serial = simulate_many(self._instances(), specs)
        parallel = simulate_many(self._instances(), specs, workers=4)

        def dump(reports):
            return json.dumps([sim_report_to_dict(r) for r in reports])

        assert dump(serial) == dump(parallel)

    def test_single_spec_shorthand_and_order(self):
        reports = simulate_many(self._instances(), "d2")
        assert [r.instance["family"] for r in reports] == ["fan", "ladder", "tree"]
        assert all(r.algorithm == "d2" for r in reports)

    def test_capability_check_fails_fast(self):
        with pytest.raises(UnsupportedModeError):
            simulate_many(self._instances(), ["d2", "exact"])

    def test_empty_batch(self):
        assert simulate_many([], "d2") == []


class TestAdversarialSpecs:
    def _spec(self, **overrides):
        from repro.api import ByzantinePlan, ChurnEvent, ChurnPlan

        base = dict(
            algorithm="d2",
            seed=3,
            max_rounds=64,
            churn=ChurnPlan(
                events=(ChurnEvent(2, "del_edge", 0, 1),), rate=0.2, until=4
            ),
            byzantine=ByzantinePlan(((3, "lie"), (5, "silent"))),
        )
        base.update(overrides)
        return SimulationSpec(**base)

    def test_adversarial_spec_roundtrip(self):
        spec = self._spec(model="async", delay=3)
        back = from_dict(SimulationSpec, json.loads(json.dumps(to_dict(spec))))
        assert back == spec

    def test_adversarial_report_roundtrip(self):
        report = simulate(gen.fan(8), self._spec())
        payload = json.loads(json.dumps(sim_report_to_dict(report)))
        back = from_dict(SimReport, payload)
        assert sim_report_to_dict(back) == sim_report_to_dict(report)
        assert back.suspicion == report.suspicion
        assert back.failed == report.failed

    def test_trivial_plans_leave_no_trace_in_json(self):
        from repro.api import ByzantinePlan, ChurnPlan

        spec = SimulationSpec(
            algorithm="d2", churn=ChurnPlan(), byzantine=ByzantinePlan()
        )
        payload = to_dict(spec)
        assert "churn" not in payload
        assert "byzantine" not in payload
        assert "delay" not in payload
        report_payload = sim_report_to_dict(simulate(gen.fan(8), spec))
        for key in ("suspicion", "failed", "timed_out", "churn_events"):
            assert key not in report_payload

    def test_degradation_fault_free_twin_agrees(self):
        from repro.api import adversarial_degradation

        out = adversarial_degradation(
            gen.fan(10), SimulationSpec(algorithm="d2")
        )
        degradation = out["degradation"]
        assert degradation["agree"] is True
        assert degradation["valid"] is True
        assert degradation["ratio"] == degradation["baseline_ratio"]

    def test_degradation_measures_the_final_graph(self):
        from repro.api import ChurnEvent, ChurnPlan, adversarial_degradation

        graph = gen.path(6)
        spec = SimulationSpec(
            algorithm="d2",
            max_rounds=64,
            churn=ChurnPlan(events=(ChurnEvent(1, "leave", 5),)),
        )
        out = adversarial_degradation(graph, spec)
        assert out["degradation"]["final_n"] == 5
        # The input graph is never mutated by the measurement.
        assert graph.number_of_nodes() == 6

    def test_adversarial_batch_workers_byte_identical(self):
        specs = [self._spec(), self._spec(model="adversarial", seed=5)]
        graphs = [gen.fan(8), gen.cycle(9)]
        serial = simulate_many(graphs, specs)
        parallel = simulate_many(graphs, specs, workers=4)

        def dump(reports):
            return json.dumps([sim_report_to_dict(r) for r in reports])

        assert dump(serial) == dump(parallel)
