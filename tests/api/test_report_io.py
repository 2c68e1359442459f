"""RunConfig / RunReport JSON round-trips through repro.io."""

import json

import networkx as nx

from repro.api import RunConfig, RunReport, solve, solve_many
from repro.core.radii import RadiusPolicy
from repro.graphs.families import get_family
from repro.io import (
    from_dict,
    load_run_reports,
    run_report_to_dict,
    save_run_reports,
    to_dict,
)


def _roundtrip(report):
    return from_dict(RunReport, json.loads(json.dumps(run_report_to_dict(report))))


class TestConfigRoundtrip:
    def test_default_config(self):
        config = RunConfig()
        assert from_dict(RunConfig, to_dict(config)) == config

    def test_config_with_policy(self):
        config = RunConfig(
            policy=RadiusPolicy.practical(2, 4),
            mode="simulate",
            validate="ratio",
            solver="bnb",
            seed=7,
        )
        back = from_dict(RunConfig, json.loads(json.dumps(to_dict(config))))
        assert back == config
        assert back.policy.label == config.policy.label


class TestReportRoundtrip:
    def test_full_report_roundtrip(self):
        graph = get_family("ladder").make(12, 0)
        report = solve(
            graph,
            "algorithm1",
            RunConfig(validate="ratio"),
            meta={"family": "ladder", "size": 12, "seed": 0},
        )
        back = _roundtrip(report)
        assert back.algorithm == report.algorithm
        assert back.problem == report.problem
        assert back.instance == report.instance
        assert back.solution == report.solution
        assert back.result.phases == report.result.phases
        assert back.result.round_breakdown == report.result.round_breakdown
        assert back.config == report.config
        assert back.valid == report.valid
        assert back.optimum_size == report.optimum_size
        assert back.ratio == report.ratio

    def test_unvalidated_report_roundtrip(self):
        graph = get_family("fan").make(10, 0)
        report = solve(graph, "take_all", RunConfig(validate="none"))
        back = _roundtrip(report)
        assert back.valid is None and back.ratio is None
        assert back.solution == report.solution

    def test_save_load_batch(self, tmp_path):
        instances = [
            ({"family": "fan", "size": 10}, get_family("fan").make(10, 0)),
            ({"family": "tree", "size": 9}, get_family("tree").make(9, 1)),
        ]
        reports = solve_many(instances, ["d2", "degree_two"], RunConfig(validate="ratio"))
        path = tmp_path / "reports.json"
        save_run_reports(reports, path)
        back = load_run_reports(path)
        assert [r.solution for r in back] == [r.solution for r in reports]
        assert [r.instance for r in back] == [r.instance for r in reports]
        assert [r.ratio for r in back] == [r.ratio for r in reports]

    def test_tuple_labelled_report_roundtrip(self, tmp_path):
        # JSON has no tuples: grid-coordinate labels in the solution and
        # phases must come back hashable (re-tupled), via dicts and files.
        report = solve(nx.grid_2d_graph(3, 3), "d2", RunConfig(validate="ratio"))
        back = _roundtrip(report)
        assert back.solution == report.solution
        assert all(isinstance(v, tuple) for v in back.solution)
        assert back.result == report.result
        path = tmp_path / "grid.json"
        save_run_reports([report], path)
        (loaded,) = load_run_reports(path)
        assert loaded.solution == report.solution
