"""Instance-major batching: OPT sharing, CSR wire, and workers never
change any reported number."""

import json

import networkx as nx

from repro.api import RunConfig, list_algorithms, solve, solve_many
from repro.graphs.families import get_family
from repro.graphs.kernel import graph_from_wire, kernel_for
from repro.graphs.twins import has_true_twins
from repro.io import run_report_to_dict
from repro.solvers.opt_cache import cache_stats, clear_opt_cache, reset_cache_stats

ALGORITHMS = ["d2", "degree_two", "greedy", "take_all"]


def _instances():
    return [
        ({"family": family, "size": size, "seed": 0},
         get_family(family).make(size, 0))
        for family, size in [("fan", 12), ("ladder", 14), ("tree", 15)]
    ]


def _stable_payload(reports):
    """Report JSON with the only nondeterministic field stripped."""
    payload = []
    for report in reports:
        data = run_report_to_dict(report)
        data.pop("wall_time", None)
        payload.append(data)
    return json.dumps(payload, sort_keys=True)


class TestOptSharing:
    def test_one_exact_solve_per_instance(self):
        clear_opt_cache()
        reset_cache_stats()
        instances = _instances()
        solve_many(instances, ALGORITHMS, RunConfig(validate="ratio"))
        stats = cache_stats()
        assert stats["misses"] == len(instances)
        assert stats["hits"] == len(instances) * (len(ALGORITHMS) - 1)

    def test_cache_never_changes_reports(self):
        config = RunConfig(validate="ratio")
        cached = solve_many(_instances(), ALGORITHMS, config)
        uncached = solve_many(_instances(), ALGORITHMS, config.with_(opt_cache=False))
        assert [r.ratio for r in cached] == [r.ratio for r in uncached]
        assert [r.optimum_size for r in cached] == [r.optimum_size for r in uncached]

    def test_bnb_backend_matches_milp_optima(self):
        milp = solve_many(_instances(), "d2", RunConfig(validate="ratio", solver="milp"))
        bnb = solve_many(_instances(), "d2", RunConfig(validate="ratio", solver="bnb"))
        assert [r.optimum_size for r in milp] == [r.optimum_size for r in bnb]
        assert [r.ratio for r in milp] == [r.ratio for r in bnb]


class TestWire:
    def test_wire_roundtrip_preserves_graph_and_kernel(self):
        for _, graph in _instances():
            wire = kernel_for(graph).packed().to_wire()
            back = graph_from_wire(wire)
            assert set(back.nodes) == set(graph.nodes)
            assert {frozenset(e) for e in back.edges} == {
                frozenset(e) for e in graph.edges
            }
            assert kernel_for(back).closed_bits == kernel_for(graph).closed_bits

    def test_wire_roundtrip_tuple_labels(self):
        graph = nx.relabel_nodes(
            get_family("ladder").make(10, 0), lambda v: (v, f"v{v}")
        )
        back = graph_from_wire(kernel_for(graph).packed().to_wire())
        assert set(back.nodes) == set(graph.nodes)
        assert kernel_for(back).labels == kernel_for(graph).labels

    def test_wire_roundtrip_zero_nodes_and_isolates(self):
        empty = graph_from_wire(kernel_for(nx.Graph()).packed().to_wire())
        assert empty.number_of_nodes() == 0
        graph = nx.Graph()
        graph.add_nodes_from([0, 1, 2])
        graph.add_edge(0, 1)
        back = graph_from_wire(kernel_for(graph).packed().to_wire())
        assert set(back.nodes) == {0, 1, 2}
        assert back.number_of_edges() == 1

    def test_wire_never_changes_reports(self):
        config = RunConfig(validate="ratio")
        direct = solve_many(_instances(), ALGORITHMS, config)
        rebuilt = solve_many(
            [
                (meta, graph_from_wire(kernel_for(graph).packed().to_wire()))
                for meta, graph in _instances()
            ],
            ALGORITHMS,
            config,
        )
        assert _stable_payload(direct) == _stable_payload(rebuilt)


class TestWorkers:
    def test_workers_never_change_reports(self):
        config = RunConfig(validate="ratio")
        serial = solve_many(_instances(), ALGORITHMS, config)
        parallel = solve_many(_instances(), ALGORITHMS, config, workers=3)
        assert _stable_payload(serial) == _stable_payload(parallel)

    def test_workers_with_bnb_backend(self):
        config = RunConfig(validate="ratio", solver="bnb")
        serial = solve_many(_instances(), ["d2", "greedy"], config)
        parallel = solve_many(_instances(), ["d2", "greedy"], config, workers=2)
        assert _stable_payload(serial) == _stable_payload(parallel)


def _sharing_instances():
    """Int labels, tuple labels, and a cactus with true twins (there
    Algorithm 1 runs on a reduced copy, the MVC variant on the graph)."""
    ladder = get_family("ladder").make(14, 0)
    cactus = get_family("cactus").make(16, 1)
    assert has_true_twins(cactus)
    return [
        ({"family": "outerplanar"}, get_family("outerplanar").make(14, 2)),
        ({"family": "ladder", "labels": "tuple"},
         nx.relabel_nodes(ladder, lambda v: (v % 2, v // 2))),
        ({"family": "cactus"}, cactus),
    ]


class TestInstanceSharing:
    """Every algorithm of a batch shares one graph object's memos (cut
    lists, OPT, kernel); none of that sharing may change a report."""

    def test_batch_equals_each_algorithm_alone_on_a_fresh_copy(self):
        names = [spec.name for spec in list_algorithms()]
        config = RunConfig(validate="ratio")
        for meta, graph in _sharing_instances():
            batch = solve_many([(meta, graph)], names, config)
            alone = [solve(graph.copy(), name, config, meta=meta) for name in names]
            assert _stable_payload(batch) == _stable_payload(alone), meta

    def test_exact_vc_without_opt_cache_matches_cached(self):
        for _, graph in _sharing_instances():
            cached = solve(graph, "exact_vc", RunConfig(validate="ratio"))
            fresh = solve(graph.copy(), "exact_vc", RunConfig(opt_cache=False))
            assert fresh.solution == cached.solution
            assert fresh.result.rounds == cached.result.rounds

    def test_exact_vc_reads_the_opt_cache(self):
        clear_opt_cache()
        reset_cache_stats()
        graph = get_family("fan").make(12, 0)
        solve_many([({}, graph)], ["d2_vc", "exact_vc"], RunConfig(validate="ratio"))
        # d2_vc's validation solves OPT once; exact_vc and its own
        # validation both read it back.
        assert cache_stats() == {"hits": 2, "misses": 1}
        reset_cache_stats()
        solve(graph, "exact_vc", RunConfig(opt_cache=False))
        assert cache_stats() == {"hits": 0, "misses": 0}
