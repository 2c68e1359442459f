"""Remaining harness coverage: paper-mode sweep and family sampling."""

import pytest

from repro.experiments.paper_mode import (
    full_table_sweep,
    paper_mode_on_cycles,
    summarise_full_table,
)
from repro.graphs.random_families import sample_family


class TestPaperMode:
    def test_rows_fields(self):
        # On C_180 and C_200 the radius 88 is local: every vertex is an
        # 88-local 1-cut, and phase one alone gives n / ceil(n/3).
        for row in paper_mode_on_cycles(ns=(180, 200), t=2):
            assert row["m32_radius"] == 43 * 2 + 2
            assert row["all_vertices_are_local_1_cuts"]
            assert 2.9 <= row["ratio"] <= 3.0
            assert row["ratio"] <= row["ratio_bound"]

    def test_short_cycle_guard(self):
        with pytest.raises(ValueError, match="must exceed"):
            paper_mode_on_cycles(ns=(50,), t=2)
        with pytest.raises(ValueError):
            paper_mode_on_cycles(ns=(100,), t=2)  # 100 <= 2*88 + 1


class TestFullTableSweep:
    def test_checkpointed_sweep_and_summary(self, tmp_path):
        result = full_table_sweep(
            tmp_path / "table", algorithms=["d2"], shard_size=4, workers=2
        )
        assert result.complete
        rows = summarise_full_table(result.report_dicts())
        # One row per (family, algorithm); the tiny suite has 11 families.
        assert len(rows) == 11
        assert {row["algorithm"] for row in rows} == {"d2"}
        for row in rows:
            assert row["instances"] == 2
            assert row["all_valid"]
            assert row["ratio_max"] >= 1.0

        # Re-invoking on the same directory resumes (here: a no-op) and
        # reproduces the same merged reports instead of starting over.
        again = full_table_sweep(tmp_path / "table", workers=2)
        assert again.complete
        assert again.executed == []
        assert summarise_full_table(again.report_dicts()) == rows


class TestSampleFamily:
    def test_k2t_free_branch(self):
        graphs = sample_family("k2t_free", [8], t=4)
        assert graphs[0].number_of_nodes() == 8

    def test_sizes_respected(self):
        graphs = sample_family("outerplanar", [6, 9, 12], t=3)
        assert [g.number_of_nodes() for g in graphs] == [6, 9, 12]

    def test_seed_determinism(self):
        a = sample_family("ding", [20], t=8, seed=5)
        b = sample_family("ding", [20], t=8, seed=5)
        assert sorted(a[0].edges) == sorted(b[0].edges)
