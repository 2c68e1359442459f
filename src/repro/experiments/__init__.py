"""Experiment harnesses: one driver per table/figure of the paper.

* :mod:`repro.experiments.table1` — the Table 1 landscape (ratio and
  rounds per graph class and algorithm);
* :mod:`repro.experiments.figures` — executable versions of the paper's
  two illustrative figures (Lemma 5.17/5.18 construction; the charging
  picture of Lemma 3.3);
* :mod:`repro.experiments.sweeps` — supplementary sweeps S1–S7 and
  S9–S12 (ratio vs t, ratio vs n, rounds vs n, lemma constants, the
  Theorem 4.1-vs-4.4 crossover, and the model, fault and structure
  sweeps); S8, the paper's own radii, is
  :mod:`repro.experiments.paper_mode`;
* :mod:`repro.experiments.workloads` — the instance suites everything
  draws from;
* :mod:`repro.experiments.report` — renders everything into the text
  report printed by ``python -m repro report``.
"""

from repro.experiments.workloads import Workload, run_workload, standard_suite
from repro.experiments.table1 import table1_report, Table1Row
from repro.experiments.sweeps import (
    ratio_vs_t,
    ratio_vs_n,
    rounds_vs_n,
    lemma_constants_sweep,
    crossover_table,
)
from repro.experiments.figures import figure1_report, figure2_report

__all__ = [
    "Workload",
    "run_workload",
    "standard_suite",
    "table1_report",
    "Table1Row",
    "ratio_vs_t",
    "ratio_vs_n",
    "rounds_vs_n",
    "lemma_constants_sweep",
    "crossover_table",
    "figure1_report",
    "figure2_report",
]
