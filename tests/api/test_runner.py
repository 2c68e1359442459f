"""`solve` / `solve_many` semantics: parity with direct calls, validation
levels, and serial-vs-parallel determinism."""

import pytest

from repro.api import (
    RunConfig,
    UnknownAlgorithmError,
    UnsupportedModeError,
    algorithm_names,
    solve,
    solve_many,
)
from repro.core.algorithm1 import algorithm1
from repro.core.d2 import d2_dominating_set
from repro.core.radii import RadiusPolicy
from repro.graphs.families import get_family
from repro.graphs.kernel import GraphKernel, KernelView
from repro.graphs.packed import PackedGraphKernel
from repro.graphs.random_families import random_ding_augmentation, random_outerplanar
from repro.solvers.exact import minimum_dominating_set


FAMILIES = [("fan", 12), ("ladder", 14), ("tree", 15)]


class TestSolve:
    @pytest.mark.parametrize("family,size", FAMILIES)
    def test_parity_with_direct_algorithm1(self, family, size):
        graph = get_family(family).make(size, 0)
        report = solve(graph, "algorithm1", RunConfig(mode="fast"))
        direct = algorithm1(graph, RadiusPolicy.practical(), mode="fast")
        assert report.solution == direct.solution
        assert report.rounds == direct.rounds

    @pytest.mark.parametrize("family,size", FAMILIES)
    def test_parity_with_direct_d2(self, family, size):
        graph = get_family(family).make(size, 0)
        assert solve(graph, "d2").solution == d2_dominating_set(graph).solution

    def test_policy_override(self):
        graph = get_family("ladder").make(16, 0)
        policy = RadiusPolicy.practical(1, 2)
        report = solve(graph, "algorithm1", RunConfig(policy=policy))
        assert report.solution == algorithm1(graph, policy).solution
        assert report.result.metadata["policy"] == policy.label

    def test_validation_levels(self):
        graph = get_family("fan").make(10, 0)
        none = solve(graph, "d2", RunConfig(validate="none"))
        assert none.valid is None and none.ratio is None
        valid = solve(graph, "d2", RunConfig(validate="valid"))
        assert valid.valid is True and valid.optimum_size is None
        ratio = solve(graph, "d2", RunConfig(validate="ratio"))
        assert ratio.optimum_size == len(minimum_dominating_set(graph))
        assert ratio.ratio == ratio.size / ratio.optimum_size

    def test_solver_backends_agree(self):
        for graph in (
            get_family("outerplanar").make(14, 1),
            random_outerplanar(16, seed=0),
            random_outerplanar(24, seed=0),
            random_ding_augmentation(4, 3, seed=0),
        ):
            milp = solve(graph, "algorithm1", RunConfig(validate="ratio", solver="milp"))
            bnb = solve(graph, "algorithm1", RunConfig(validate="ratio", solver="bnb"))
            assert milp.optimum_size == bnb.optimum_size
            assert milp.solution == bnb.solution

    def test_mvc_validation(self):
        graph = get_family("fan").make(10, 0)
        report = solve(graph, "d2_vc", RunConfig(validate="ratio"))
        assert report.problem == "mvc"
        assert report.valid is True
        assert report.ratio >= 1.0

    def test_meta_threaded_into_instance(self):
        graph = get_family("fan").make(10, 0)
        report = solve(graph, "d2", meta={"family": "fan", "seed": 0})
        assert report.instance["family"] == "fan"
        assert report.instance["n"] == graph.number_of_nodes()

    def test_unsupported_mode_raises(self):
        graph = get_family("fan").make(10, 0)
        with pytest.raises(UnsupportedModeError, match="simulate"):
            solve(graph, "d2", RunConfig(mode="simulate"))

    def test_unknown_algorithm_raises(self):
        graph = get_family("fan").make(10, 0)
        with pytest.raises(UnknownAlgorithmError):
            solve(graph, "nope")

    def test_simulate_matches_fast_where_supported(self):
        graph = get_family("cycle").make(10, 0)
        fast = solve(graph, "algorithm1")
        simulated = solve(graph, "algorithm1", RunConfig(mode="simulate"))
        assert simulated.solution == fast.solution


class TestKernelViews:
    """Every registered algorithm runs on a :class:`KernelView` of either
    backend and reports what it reports on the ``nx.Graph``."""

    @pytest.mark.parametrize("validate", ["valid", "ratio"])
    @pytest.mark.parametrize(
        "build", [GraphKernel, PackedGraphKernel.from_graph], ids=["int", "packed"]
    )
    def test_every_algorithm_on_views(self, build, validate):
        graph = get_family("ladder").make(12, 0)
        graph.add_edges_from([(100, 101), (101, 102)])  # a second component
        config = RunConfig(validate=validate)
        view = KernelView(build(graph))
        for name in algorithm_names():
            report = solve(view, name, config)
            direct = solve(graph, name, config)
            assert report.valid is True, name
            assert report.solution == direct.solution, name
            assert report.optimum_size == direct.optimum_size, name
            assert report.instance == direct.instance, name


def _payload(reports):
    return [
        (r.algorithm, dict(r.instance), sorted(r.solution, key=repr), r.rounds,
         r.valid, r.optimum_size, r.ratio)
        for r in reports
    ]


class TestSolveMany:
    def _instances(self):
        return [
            ({"family": family, "size": size, "seed": 0},
             get_family(family).make(size, 0))
            for family, size in FAMILIES
        ]

    def test_ordering_is_instance_major(self):
        reports = solve_many(self._instances(), ["d2", "degree_two"])
        assert [(r.instance["family"], r.algorithm) for r in reports] == [
            ("fan", "d2"), ("fan", "degree_two"),
            ("ladder", "d2"), ("ladder", "degree_two"),
            ("tree", "d2"), ("tree", "degree_two"),
        ]

    def test_parallel_matches_serial_exactly(self):
        config = RunConfig(validate="ratio")
        algorithms = ["algorithm1", "d2", "degree_two", "greedy", "take_all"]
        serial = solve_many(self._instances(), algorithms, config)
        parallel = solve_many(self._instances(), algorithms, config, workers=2)
        assert _payload(serial) == _payload(parallel)

    def test_accepts_bare_graphs(self):
        graph = get_family("fan").make(10, 0)
        reports = solve_many([graph], "d2")
        assert len(reports) == 1
        assert reports[0].instance == {
            "n": graph.number_of_nodes(), "m": graph.number_of_edges(),
        }

    def test_single_algorithm_string(self):
        reports = solve_many(self._instances(), "d2")
        assert [r.algorithm for r in reports] == ["d2"] * 3

    def test_capability_check_fails_fast(self):
        # The bad mode is rejected before any instance runs.
        with pytest.raises(UnsupportedModeError):
            solve_many(
                self._instances(), ["algorithm1", "d2"],
                RunConfig(mode="simulate"),
            )

    def test_empty_batch(self):
        assert solve_many([], ["d2"]) == []
