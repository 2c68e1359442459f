"""Assemble the full experiment report (``python -m repro report``).

``python -m repro.experiments.report`` prints every table; pass
``--scale tiny|small|medium`` to trade time for size.
"""

from __future__ import annotations

import argparse

from repro.experiments.figures import figure1_report, figure2_report
from repro.experiments.sweeps import (
    congest_gather_inflation,
    crossover_table,
    fault_tolerance_sweep,
    identifier_robustness,
    lemma_constants_sweep,
    message_volume_vs_radius,
    ratio_vs_n,
    ratio_vs_t,
    render_rows,
    rounds_vs_n,
    treewidth_asdim_chain,
)
from repro.experiments.table1 import table1_report, table1_simulation_rows


def full_report(
    scale: str = "small",
    workers: int | None = None,
    solver: str = "milp",
    opt_cache: bool = True,
) -> str:
    """Every experiment, rendered to one text block.

    ``workers`` parallelises the Table 1 regeneration (the dominant
    cost) through :func:`repro.api.solve_many`; ``solver``/``opt_cache``
    select the exact backend for Table 1's ratio denominators and
    whether per-instance optima are shared.
    """
    sections = [
        (
            "Table 1 — constant-round MDS approximation landscape",
            table1_report(scale, workers=workers, solver=solver, opt_cache=opt_cache),
        ),
        (
            "Table 1b — engine cross-check (fast path vs per-node protocol)",
            render_rows(table1_simulation_rows("tiny", workers=workers)),
        ),
        ("Figure 1 — Lemma 5.17/5.18 construction", figure1_report()),
        ("Figure 2 — Lemma 3.3 charging picture", figure2_report()),
        ("S1 — ratio vs t", render_rows(ratio_vs_t())),
        ("S2 — ratio vs n", render_rows(ratio_vs_n())),
        ("S3 — rounds vs n", render_rows(rounds_vs_n())),
        ("S4 — lemma constants", render_rows(lemma_constants_sweep())),
        ("S5 — Thm 4.1 vs Thm 4.4 crossover", render_rows(crossover_table())),
        ("S6 — LOCAL vs CONGEST message volume", render_rows(message_volume_vs_radius())),
        ("S7 — identifier-assignment robustness", render_rows(identifier_robustness())),
        ("S9 — CONGEST gathering round inflation", render_rows(congest_gather_inflation())),
        ("S10 — K_2,t-free => treewidth => asdim chain", render_rows(treewidth_asdim_chain())),
        ("S11 — fault tolerance of D2 (drops, crashes)", render_rows(fault_tolerance_sweep())),
    ]
    blocks = []
    for title, body in sections:
        blocks.append(f"== {title} ==\n{body}")
    return "\n\n".join(blocks)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="small", choices=["tiny", "small", "medium"])
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--solver", default="milp", choices=["milp", "bnb"])
    parser.add_argument("--no-opt-cache", action="store_true")
    args = parser.parse_args()
    print(
        full_report(
            args.scale,
            workers=args.workers,
            solver=args.solver,
            opt_cache=not args.no_opt_cache,
        )
    )


if __name__ == "__main__":
    main()
