"""Tests for the distributed greedy baseline (centralized + protocol)."""

import os
import subprocess
import sys
from pathlib import Path

import networkx as nx

import repro

from repro.analysis.domination import is_dominating_set
from repro.core.distributed_greedy import (
    distributed_greedy_dominating_set,
    run_distributed_greedy,
)
from repro.graphs import generators as gen
from repro.graphs.random_families import random_outerplanar, random_tree
from repro.local_model.identifiers import shuffled_ids
from repro.solvers.exact import domination_number


class TestCentralized:
    def test_valid_on_zoo(self, small_zoo):
        for g in small_zoo:
            result = distributed_greedy_dominating_set(g)
            assert is_dominating_set(g, result.solution)

    def test_star_one_phase(self, star6):
        result = distributed_greedy_dominating_set(star6)
        assert result.solution == {0}
        assert result.metadata["phases"] == 1

    def test_quality_near_greedy(self, small_zoo):
        import math

        for g in small_zoo:
            result = distributed_greedy_dominating_set(g)
            delta = max(dict(g.degree).values())
            assert len(result.solution) <= (2 + math.log(delta + 1)) * domination_number(g)

    def test_phases_grow_on_paths(self):
        # A long path needs several phases (local maxima thin out).
        short = distributed_greedy_dominating_set(gen.path(6))
        long_ = distributed_greedy_dominating_set(gen.path(40))
        assert long_.metadata["phases"] >= short.metadata["phases"]

    def test_rounds_are_four_per_phase(self, fan5):
        result = distributed_greedy_dominating_set(fan5)
        assert result.rounds == 4 * result.metadata["phases"]


class TestProtocol:
    def test_agrees_with_centralized(self, small_zoo):
        for g in small_zoo:
            central = distributed_greedy_dominating_set(g)
            proto = run_distributed_greedy(g)
            assert proto.solution == central.solution, g

    def test_agrees_on_random_families(self):
        for seed in range(3):
            for g in (random_tree(16, seed), random_outerplanar(12, seed)):
                assert (
                    run_distributed_greedy(g).solution
                    == distributed_greedy_dominating_set(g).solution
                )

    def test_single_vertex(self):
        g = nx.Graph()
        g.add_node(0)
        assert run_distributed_greedy(g).solution == {0}

    def test_complete_graph(self):
        g = nx.complete_graph(7)
        result = run_distributed_greedy(g)
        assert len(result.solution) == 1

    def test_identifier_dependence_is_tie_break_only(self, cycle6):
        # shuffling ids may rotate which vertices win ties, but the
        # output size class and validity are invariant.
        base = run_distributed_greedy(cycle6)
        for seed in (1, 2):
            ids = shuffled_ids(cycle6, seed)
            other = run_distributed_greedy(cycle6, ids)
            assert is_dominating_set(cycle6, other.solution)
            assert abs(len(other.solution) - len(base.solution)) <= 1

    def test_rounds_recorded(self, path5):
        assert run_distributed_greedy(path5).rounds >= 4


class TestTieRanks:
    """Non-int labels rank by kernel index, as ``identity_ids`` assigns."""

    def test_tuple_labels_agree_with_protocol(self):
        g = nx.grid_2d_graph(6, 6)
        central = distributed_greedy_dominating_set(g)
        proto = run_distributed_greedy(g)
        assert central.solution == proto.solution
        assert is_dominating_set(g, central.solution)

    def test_mixed_labels_agree_with_protocol(self):
        g = gen.fan(9)
        g.add_edges_from([("tail", 0), ("tail", "end")])
        central = distributed_greedy_dominating_set(g)
        proto = run_distributed_greedy(g)
        assert central.solution == proto.solution
        assert is_dominating_set(g, central.solution)

    def test_tuple_labels_ignore_the_hash_seed(self):
        script = (
            "import networkx as nx\n"
            "from repro.core.distributed_greedy import distributed_greedy_dominating_set\n"
            "result = distributed_greedy_dominating_set(nx.grid_2d_graph(6, 6))\n"
            "print(sorted(result.solution), result.rounds)\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        outputs = set()
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            out = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, env=env, check=True,
            )
            outputs.add(out.stdout)
        assert len(outputs) == 1
        central = distributed_greedy_dominating_set(nx.grid_2d_graph(6, 6))
        assert outputs == {f"{sorted(central.solution)} {central.rounds}\n"}
