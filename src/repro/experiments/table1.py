"""Table 1 reproduction: ratio/rounds per minor-free class and algorithm.

Paper rows (constant-round MDS approximation on H-minor-free classes):

| class                  | paper ratio | paper rounds | algorithm           |
|------------------------|-------------|--------------|---------------------|
| trees (K_3)            | 3           | 2            | degree ≥ 2 rule     |
| outerplanar (K_{2,3})  | 5           | 2–3          | D₂ (t = 3)          |
| K_{1,t}-minor-free     | t           | 0            | take all            |
| K_{2,t}-minor-free     | 2t − 1      | 3            | D₂ (Theorem 4.4)    |
| K_{2,t}-minor-free     | 50          | O_t(1)       | Alg. 1 (Thm 4.1)    |

For every row we run the row's algorithm (through the
:mod:`repro.api` registry, so rows and CLI use the same adapters) on
its family suite and report the *measured* worst/mean ratio (exact MDS
denominator) and the measured round count next to the paper's
guarantee.  The reproduction claim is shape-level: measured ≤ guarantee
everywhere, and the orderings between rows match the paper.
``workers`` fans the per-row instance batches out process-parallel via
:func:`repro.api.solve_many`; results are deterministic either way.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api import RunConfig
from repro.analysis.tables import format_table
from repro.core.radii import RadiusPolicy
from repro.experiments.workloads import Workload, make_workload, run_workload


@dataclass
class Table1Row:
    """One measured row of the reproduced Table 1."""

    graph_class: str
    algorithm: str
    paper_ratio: str
    paper_rounds: str
    measured_ratio_mean: float
    measured_ratio_max: float
    measured_rounds_max: int
    instances: int
    all_valid: bool


def _run_row(
    graph_class: str,
    algorithm_label: str,
    paper_ratio: str,
    paper_rounds: str,
    algorithm: str,
    config: RunConfig,
    workload: Workload,
    workers: int | None = None,
) -> Table1Row:
    reports = run_workload(workload, algorithm, config, workers=workers)
    ratios = [r.ratio for r in reports]
    rounds = [r.rounds for r in reports]
    return Table1Row(
        graph_class=graph_class,
        algorithm=algorithm_label,
        paper_ratio=paper_ratio,
        paper_rounds=paper_rounds,
        measured_ratio_mean=sum(ratios) / len(ratios),
        measured_ratio_max=max(ratios),
        measured_rounds_max=max(rounds),
        instances=len(reports),
        all_valid=all(r.valid for r in reports),
    )


def table1_rows(
    scale: str = "small",
    policy: RadiusPolicy | None = None,
    workers: int | None = None,
    solver: str = "milp",
    opt_cache: bool = True,
) -> list[Table1Row]:
    """Measure every row of Table 1 (plus a greedy reference row).

    ``policy`` overrides the radius policy of the Algorithm 1 rows
    (default: :meth:`~repro.core.radii.RadiusPolicy.practical`);
    ``workers`` runs each row's instance batch process-parallel;
    ``solver``/``opt_cache`` pick the exact backend for every ratio
    denominator and whether per-instance optima are shared (they are
    deterministic either way).
    """
    if policy is None:
        policy = RadiusPolicy.practical()
    sizes = {"tiny": [10, 14], "small": [14, 20, 28], "medium": [20, 40, 60]}[scale]
    seeds = (0, 1) if scale != "tiny" else (0,)

    # One workload per family: rows sharing a family share its graph
    # objects, so each graph's kernel memo (cut lists, OPT) is reused.
    suite = {
        name: make_workload(name, sizes, seeds)
        for name in ("tree", "outerplanar", "star", "ladder", "ding")
    }

    measured = RunConfig(validate="ratio", solver=solver, opt_cache=opt_cache)
    measured_alg1 = measured.with_(policy=policy)

    rows = [
        _run_row(
            "trees (K_3)", "degree>=2 (folklore)", "3", "2",
            "degree_two", measured, suite["tree"], workers,
        ),
        _run_row(
            "outerplanar (K_4,K_2,3)", "D2 / Thm 4.4 (t=3)", "5", "3",
            "d2", measured, suite["outerplanar"], workers,
        ),
        _run_row(
            "K_1,t-minor-free", "take all (folklore)", "t", "0",
            "take_all", measured, suite["star"], workers,
        ),
        _run_row(
            "K_2,t-minor-free", "D2 / Thm 4.4", "2t-1", "3",
            "d2", measured, suite["ladder"], workers,
        ),
        _run_row(
            "K_2,t-minor-free", "Algorithm 1 / Thm 4.1", "50", "O_t(1)",
            "algorithm1", measured_alg1, suite["ladder"], workers,
        ),
        _run_row(
            "K_2,t-minor-free (ding)", "Algorithm 1 / Thm 4.1", "50", "O_t(1)",
            "algorithm1", measured_alg1, suite["ding"], workers,
        ),
        _run_row(
            "reference", "centralized greedy", "ln(Delta)", "global",
            "greedy_central", measured, suite["ding"], workers,
        ),
        _run_row(
            "reference", "distributed greedy", "ln(Delta)", "O(phases)",
            "greedy", measured, suite["ding"], workers,
        ),
    ]
    return rows


def table1_simulation_rows(
    scale: str = "tiny", workers: int | None = None
) -> list[dict]:
    """Table 1b: cross-check fast-path rows against real protocol runs.

    For every Table 1 algorithm that ships a message-passing protocol,
    run the same instances through the :func:`repro.api.simulate_many`
    engine door and compare the solution the per-node protocol computes
    against the fast path's.  ``workers`` fans the simulation batch out
    process-parallel; results are deterministic either way.
    """
    from repro.api import SimulationSpec, simulate_many, solve_many

    sizes = {"tiny": [10, 14], "small": [14, 20, 28], "medium": [20, 40, 60]}[scale]
    pairs = [
        ("tree", "degree_two"),
        ("outerplanar", "d2"),
        ("star", "take_all"),
        ("ladder", "d2"),
        ("ding", "greedy"),
    ]
    rows = []
    for family, algorithm in pairs:
        instances = make_workload(family, sizes).labelled()
        fast = solve_many(instances, algorithm, RunConfig(validate="none"))
        simulated = simulate_many(instances, SimulationSpec(algorithm=algorithm), workers=workers)
        agree = all(
            f.solution == s.chosen for f, s in zip(fast, simulated)
        )
        rows.append(
            {
                "family": family,
                "algorithm": algorithm,
                "instances": len(simulated),
                "fast_rounds_max": max(r.rounds for r in fast),
                "sim_rounds_max": max(r.rounds for r in simulated),
                "sim_messages_max": max(r.total_messages for r in simulated),
                "solutions_agree": agree,
            }
        )
    return rows


def table1_report(
    scale: str = "small",
    workers: int | None = None,
    solver: str = "milp",
    opt_cache: bool = True,
) -> str:
    """Render the measured Table 1 as aligned text."""
    rows = table1_rows(scale, workers=workers, solver=solver, opt_cache=opt_cache)
    headers = [
        "graph class", "algorithm", "paper ratio", "paper rounds",
        "ratio mean", "ratio max", "rounds max", "n", "valid",
    ]
    body = [
        [
            r.graph_class, r.algorithm, r.paper_ratio, r.paper_rounds,
            r.measured_ratio_mean, r.measured_ratio_max,
            r.measured_rounds_max, r.instances, r.all_valid,
        ]
        for r in rows
    ]
    return format_table(headers, body)
