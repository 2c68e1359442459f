"""Tests for the experiment harnesses (tiny scale)."""

import pytest

from repro.analysis.ratio import measure_ratio
from repro.core.algorithm1 import algorithm1
from repro.core.radii import RadiusPolicy
from repro.experiments.figures import figure1_rows, figure2_rows
from repro.experiments.sweeps import (
    _k2t_stress_instance,
    crossover_table,
    identifier_robustness,
    lemma_constants_sweep,
    message_volume_vs_radius,
    ratio_vs_n,
    ratio_vs_t,
    render_rows,
    rounds_vs_n,
    treewidth_asdim_chain,
)
from repro.experiments.table1 import table1_report, table1_rows
from repro.experiments.workloads import make_workload, standard_suite
from repro.solvers.opt_cache import cache_stats, reset_cache_stats


class TestWorkloads:
    def test_standard_suite_scales(self):
        suite = standard_suite("tiny")
        assert "tree" in suite
        assert all(w.instances for w in suite.values())

    def test_unknown_scale(self):
        with pytest.raises(ValueError):
            standard_suite("galactic")

    def test_make_workload_sizes(self):
        w = make_workload("path", [5, 8])
        assert w.sizes == [5, 8]


class TestTable1:
    def test_rows_structure(self):
        rows = table1_rows("tiny")
        assert len(rows) >= 6
        classes = {r.graph_class for r in rows}
        assert "trees (K_3)" in classes

    def test_all_solutions_valid(self):
        for row in table1_rows("tiny"):
            assert row.all_valid, row

    def test_measured_respects_paper_bounds(self):
        # the quantitative reproduction claim for the numeric rows
        for row in table1_rows("tiny"):
            if row.paper_ratio.isdigit():
                assert row.measured_ratio_max <= float(row.paper_ratio) + 1e-9, row

    def test_rounds_constant_rows(self):
        for row in table1_rows("tiny"):
            if row.paper_rounds.isdigit():
                assert row.measured_rounds_max <= int(row.paper_rounds), row

    def test_report_renders(self):
        text = table1_report("tiny")
        assert "Algorithm 1" in text

    def test_d2_uses_fewer_rounds_than_algorithm1(self):
        by_algo = {(r.graph_class, r.algorithm): r for r in table1_rows("tiny")}
        d2 = by_algo[("K_2,t-minor-free", "D2 / Thm 4.4")]
        alg1 = by_algo[("K_2,t-minor-free", "Algorithm 1 / Thm 4.1")]
        assert d2.measured_rounds_max < alg1.measured_rounds_max

    def test_one_opt_solve_per_distinct_instance(self):
        # tiny = 5 families x sizes (10, 14) x seed 0; rows sharing a
        # family must share its graphs, so each optimum is solved once.
        reset_cache_stats()
        table1_rows("tiny", workers=None)
        assert cache_stats()["misses"] == 10


class TestSweeps:
    def test_stress_instance_shape(self):
        g = _k2t_stress_instance(4, blocks=2)
        assert g.number_of_nodes() > 8

    def test_stress_instance_rejects_small_t(self):
        with pytest.raises(ValueError):
            _k2t_stress_instance(2)

    def test_ratio_vs_t_monotone_d2(self):
        rows = ratio_vs_t(ts=(3, 6, 9))
        d2 = [r["d2_ratio"] for r in rows]
        assert d2[0] < d2[-1]
        # while Algorithm 1 stays flat-ish
        alg1 = [r["alg1_ratio"] for r in rows]
        assert max(alg1) - min(alg1) < 1.0

    def test_ratio_vs_t_within_bounds(self):
        for row in ratio_vs_t(ts=(3, 5)):
            assert row["d2_ratio"] <= row["d2_bound"]
            assert row["alg1_ratio"] <= row["alg1_bound"]

    def test_ratio_vs_t_shape(self):
        # Theorem 4.4's guarantee degrades in t, Theorem 4.1's does not:
        # D2's measured ratio grows, Algorithm 1's stays flat, and D2's
        # overtakes Algorithm 1's well before the guarantee crossover.
        rows = ratio_vs_t(ts=(3, 4, 6, 8))
        d2 = [r["d2_ratio"] for r in rows]
        alg1 = [r["alg1_ratio"] for r in rows]
        assert d2 == sorted(d2)
        assert d2[-1] > d2[0]
        assert max(alg1) - min(alg1) < 1.0
        assert rows[-1]["d2_ratio"] > rows[-1]["alg1_ratio"]
        for row in rows:
            assert row["d2_ratio"] <= row["d2_bound"]
            assert row["alg1_ratio"] <= row["alg1_bound"]

    def test_wider_radii_keep_a_comparable_ratio(self):
        graph = _k2t_stress_instance(5)
        narrow = measure_ratio(graph, algorithm1(graph, RadiusPolicy.practical(2, 3)).solution)
        wide = measure_ratio(graph, algorithm1(graph, RadiusPolicy.practical(4, 5)).solution)
        assert narrow.valid and wide.valid
        assert wide.ratio <= narrow.ratio + 1.0

    def test_rounds_vs_n_constant_vs_linear(self):
        rows = rounds_vs_n(sizes=(8, 16, 24, 32))
        assert len({r["alg1_rounds"] for r in rows}) == 1
        assert len({r["d2_rounds"] for r in rows}) == 1
        gather = [r["full_gather_rounds"] for r in rows]
        assert gather == [r["diameter"] + 1 for r in rows]
        assert gather[-1] > 3 * gather[0] / 2
        # beyond small diameters the LOCAL algorithms win on rounds
        assert rows[-1]["alg1_rounds"] < rows[-1]["full_gather_rounds"]
        assert rows[-1]["d2_rounds"] < rows[-1]["alg1_rounds"]

    def test_ratio_vs_n_flat(self):
        rows = ratio_vs_n(sizes=(16, 32, 48))
        alg1 = [r["alg1_ratio"] for r in rows]
        assert max(alg1) <= 4.0
        assert max(alg1) - min(alg1) <= 2.0
        assert max(r["d2_ratio"] for r in rows) <= 5.0

    def test_lemma_constants_within_budgets(self):
        rows = lemma_constants_sweep(seeds=(0, 1, 2))
        for row in rows:
            assert row["c32_used"] <= row["c32_budget"]
            assert row["c33_used"] <= row["c33_budget"]
        # the measured constants sit well inside the proven budgets
        assert max(r["c32_used"] for r in rows) <= 4.0
        assert max(r["c33_used"] for r in rows) <= 6.0

    def test_crossover_at_25(self):
        rows = {r["t"]: r for r in crossover_table()}
        assert rows[25]["winner"] == "Thm 4.4"
        assert rows[26]["winner"] == "Thm 4.1"
        for t, row in rows.items():
            assert row["thm44_bound"] == 2 * t - 1
            assert row["thm41_bound"] == 50

    def test_gathering_needs_the_local_model(self):
        rows = message_volume_vs_radius(radii=(1, 2, 3))
        assert not any(r["congest_feasible"] for r in rows)
        volumes = [r["max_message_units"] for r in rows]
        assert volumes == sorted(volumes)

    def test_identifier_robustness(self):
        rows = identifier_robustness(seeds=(0, 1, 2))
        assert all(r["valid"] for r in rows)
        assert len({r["size"] for r in rows}) == 1
        assert all(r["rounds"] == 3 for r in rows)

    def test_treewidth_asdim_chain(self):
        # K_{2,t}-minor-free => treewidth O(t) => asdim 1, measured
        for row in treewidth_asdim_chain(seeds=(0, 1)):
            assert row["largest_k2t"] <= 7, row
            assert row["treewidth"] <= 3, row
            assert row["treewidth"] <= row["largest_k2t"] + 1, row
            assert row["cover_control_r2"] <= 12, row

    def test_render_rows(self):
        assert "t" in render_rows(crossover_table(ts=(3,)))
        assert render_rows([]) == "(no data)"


class TestFigures:
    def test_figure1_all_checks_pass(self):
        for row in figure1_rows(seeds=(0, 1, 2)):
            assert row["A_edgeless"]
            assert row["degrees_ok"]
            assert row["half_of_D2_ok"]
            assert row["ineq_|A|<=(t-1)|B|"]

    def test_figure2_charge_bounded(self):
        for row in figure2_rows(seeds=(0, 1, 2)):
            assert row["max_dist_to_dominator"] <= row["claim_5_11_bound"] == 5
            # Claim 5.12: at most 19 interesting vertices per MDS vertex
            assert row["charge_per_dominator"] <= 19


class TestAdversarialDegradationSweep:
    def test_fault_free_column_agrees(self):
        from repro.experiments.sweeps import adversarial_degradation_sweep

        rows = adversarial_degradation_sweep(
            churn_rates=(0.0, 0.3), byz_fractions=(0.0, 0.25)
        )
        assert {row["algorithm"] for row in rows} == {"d2", "degree_two", "greedy"}
        fault_free = [
            row
            for row in rows
            if row["churn_rate"] == 0.0 and row["byz_fraction"] == 0.0
        ]
        assert fault_free
        assert all(row["agree"] for row in fault_free)

    def test_byzantine_cells_degrade_something(self):
        from repro.experiments.sweeps import adversarial_degradation_sweep

        rows = adversarial_degradation_sweep(
            churn_rates=(0.0,), byz_fractions=(0.0, 0.5)
        )
        attacked = [row for row in rows if row["byz_fraction"] > 0.0]
        assert any(not row["agree"] for row in attacked)

    def test_rows_reproduce_exactly(self):
        from repro.experiments.sweeps import adversarial_degradation_sweep

        first = adversarial_degradation_sweep(
            churn_rates=(0.3,), byz_fractions=(0.25,), algorithms=("d2",)
        )
        second = adversarial_degradation_sweep(
            churn_rates=(0.3,), byz_fractions=(0.25,), algorithms=("d2",)
        )
        assert first == second

    def test_renders(self):
        from repro.experiments.sweeps import adversarial_degradation_sweep

        rows = adversarial_degradation_sweep(
            churn_rates=(0.0,), byz_fractions=(0.0,), algorithms=("d2",)
        )
        table = render_rows(rows)
        assert "churn_rate" in table and "agree" in table
