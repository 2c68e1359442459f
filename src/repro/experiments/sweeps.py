"""Supplementary sweeps S1–S7 and S9–S12 (S8 is in ``paper_mode``).

Each sweep returns plain data rows (lists of dicts) plus a renderer, so
tests can assert on the numbers and ``python -m repro report`` can print
them (it prints all of these but S12).
Algorithm executions go through the :mod:`repro.api` front door
(:func:`repro.api.solve` with ``validate="ratio"``), so the sweeps
measure exactly what the CLI and Table 1 run.
"""

from __future__ import annotations

from typing import Sequence

import networkx as nx

from repro.analysis.lemmas import lemma_3_2_report, lemma_3_3_report
from repro.analysis.tables import format_table
from repro.api import RunConfig, solve
from repro.core.radii import RadiusPolicy
from repro.graphs.generators import ladder
from repro.graphs.random_families import random_ding_augmentation


def _k2t_stress_instance(t: int, blocks: int = 4) -> nx.Graph:
    """``K_{2,t}``-minor-free chains that are worst-case-ish for ``D₂``.

    Each block is ``K_{2,t−1}`` (hubs non-adjacent): every page ``p`` has
    ``N[p] = {p, hub₁, hub₂}`` contained in neither hub's closed
    neighborhood, so *all pages* land in ``D₂`` while two hubs dominate
    the block — the measured D₂ ratio grows like ``t/2``, tracking the
    ``2t − 1`` guarantee's shape.  Blocks are chained by length-2 paths
    to keep instances connected and the minor-freeness intact.
    """
    if t < 3:
        raise ValueError("t >= 3 required")
    graph = nx.Graph()
    offset = 0
    previous_anchor = None
    for _ in range(blocks):
        block = nx.complete_bipartite_graph(2, t - 1)
        mapping = {v: v + offset for v in block.nodes}
        graph.add_edges_from((mapping[u], mapping[v]) for u, v in block.edges)
        if previous_anchor is not None:
            bridge = offset + t + 1
            graph.add_edge(previous_anchor, bridge)
            graph.add_edge(bridge, mapping[0])
        previous_anchor = mapping[1]
        offset += t + 10
    return graph


def ratio_vs_t(ts: Sequence[int] = (3, 4, 5, 6, 8, 10)) -> list[dict]:
    """S1: Theorem 4.4's ratio grows with t, Algorithm 1's stays flat."""
    rows = []
    for t in ts:
        graph = _k2t_stress_instance(t)
        # Both ratio validations share one exact solve per graph through
        # the per-instance OPT cache — no hand-rolled reuse needed.
        d2 = solve(graph, "d2", RunConfig(validate="ratio"))
        alg1 = solve(
            graph, "algorithm1",
            RunConfig(validate="ratio", policy=RadiusPolicy.practical()),
        )
        rows.append(
            {
                "t": t,
                "n": graph.number_of_nodes(),
                "opt": d2.optimum_size,
                "d2_ratio": d2.ratio,
                "d2_bound": 2 * t - 1,
                "alg1_ratio": alg1.ratio,
                "alg1_bound": alg1.result.metadata["ratio_bound"],
            }
        )
    return rows


def ratio_vs_n(
    sizes: Sequence[int] = (16, 32, 48, 64), seed: int = 0
) -> list[dict]:
    """S2: measured ratios stay flat as n grows (fixed family)."""
    rows = []
    for n in sizes:
        graph = random_ding_augmentation(max(2, n // 8), max(1, n // 10), seed)
        alg1 = solve(graph, "algorithm1", RunConfig(validate="ratio"))
        d2 = solve(graph, "d2", RunConfig(validate="ratio"))  # cache-shared OPT
        rows.append(
            {
                "n": graph.number_of_nodes(),
                "opt": alg1.optimum_size,
                "alg1_ratio": alg1.ratio,
                "d2_ratio": d2.ratio,
            }
        )
    return rows


def rounds_vs_n(sizes: Sequence[int] = (8, 16, 24, 32)) -> list[dict]:
    """S3: LOCAL rounds stay constant as n grows; full-gather grows ~n.

    Ladders make the contrast sharp: diameter grows linearly, the
    residual structure does not.
    """
    rows = []
    for n in sizes:
        graph = ladder(n)
        alg1 = solve(graph, "algorithm1", RunConfig(validate="none"))
        d2 = solve(graph, "d2", RunConfig(validate="none"))
        exact = solve(graph, "exact", RunConfig(validate="none"))
        rows.append(
            {
                "n": graph.number_of_nodes(),
                "diameter": exact.result.metadata["diameter"],
                "alg1_rounds": alg1.rounds,
                "d2_rounds": d2.rounds,
                "full_gather_rounds": exact.rounds,
            }
        )
    return rows


def lemma_constants_sweep(
    r1: int = 2, r2: int = 3, seeds: Sequence[int] = (0, 1, 2)
) -> list[dict]:
    """S4: measured Lemma 3.2/3.3 constants vs the proven 6 and 44 (d=1)."""
    rows = []
    for seed in seeds:
        for name, graph in [
            ("cactus", _cactus(seed)),
            ("ladder", ladder(8 + 2 * seed)),
            ("ding", random_ding_augmentation(3, 3, seed)),
        ]:
            one = lemma_3_2_report(graph, r1)
            two = lemma_3_3_report(graph, r2)
            rows.append(
                {
                    "family": name,
                    "seed": seed,
                    "n": graph.number_of_nodes(),
                    "mds": one.mds,
                    "local_1_cuts": one.count,
                    "c32_used": one.constant_used,
                    "c32_budget": one.budget_constant,
                    "interesting": two.count,
                    "c33_used": two.constant_used,
                    "c33_budget": two.budget_constant,
                }
            )
    return rows


def _cactus(seed: int) -> nx.Graph:
    from repro.graphs.random_families import random_cactus

    return random_cactus(4, 6, seed)


def crossover_table(ts: Sequence[int] = (3, 5, 10, 20, 25, 26, 30, 40)) -> list[dict]:
    """S5: the guarantee crossover — ``2t − 1 < 50`` exactly for t ≤ 25."""
    rows = []
    for t in ts:
        rows.append(
            {
                "t": t,
                "thm44_bound": 2 * t - 1,
                "thm41_bound": 50,
                "winner": "Thm 4.4" if 2 * t - 1 < 50 else "Thm 4.1",
            }
        )
    return rows


def message_volume_vs_radius(radii: Sequence[int] = (1, 2, 3, 4)) -> list[dict]:
    """S6: LOCAL vs CONGEST — per-message volume of view gathering.

    The LOCAL model's unbounded messages are not a formality: gathering
    radius-r views ships whole subgraphs.  We measure per-message
    payload against the (one-identifier) CONGEST budget.
    """
    from repro.local_model.congest import trace_congest_report
    from repro.local_model.gather import gather_views

    graph = ladder(12)
    rows = []
    for radius in radii:
        _, trace = gather_views(graph, radius)
        report = trace_congest_report(graph, trace)
        rows.append(
            {
                "radius": radius,
                "rounds": report.rounds,
                "max_message_units": round(report.max_message_units, 1),
                "congest_budget": report.budget_units,
                "congest_feasible": report.congest_feasible,
            }
        )
    return rows


def identifier_robustness(seeds: Sequence[int] = (0, 1, 2, 3)) -> list[dict]:
    """S7: deterministic LOCAL algorithms must work for every identifier
    assignment — outputs may shift on ties but validity and size class
    must hold across schemes.  Runs through the :func:`repro.api.simulate`
    front door (``SimReport.chosen`` is vertex-keyed, so solutions are
    comparable across identifier schemes)."""
    from repro.analysis.domination import is_dominating_set
    from repro.api import SimulationSpec, simulate

    graph = _k2t_stress_instance(4, blocks=2)
    base_spec = SimulationSpec(algorithm="d2")
    baseline = simulate(graph, base_spec).chosen
    schemes = [("identity", base_spec)]
    schemes += [
        (f"shuffled(seed={s})", base_spec.with_(ids="shuffled", seed=s))
        for s in seeds
    ]
    schemes.append(("spread", base_spec.with_(ids="spread")))
    rows = []
    for name, spec in schemes:
        report = simulate(graph, spec)
        rows.append(
            {
                "ids": name,
                "size": len(report.chosen),
                "rounds": report.rounds,
                "valid": is_dominating_set(graph, report.chosen),
                "same_as_identity": report.chosen == baseline,
            }
        )
    return rows


def fault_tolerance_sweep(
    drops: Sequence[float] = (0.0, 0.1, 0.3), seed: int = 0
) -> list[dict]:
    """S11: what the paper's 3-round protocol does on a faulty network.

    The LOCAL model assumes reliable synchronous links; the engine's
    fault plans quantify the gap — D₂ still halts in 3 rounds under
    message loss and a crashed hub (its decisions only read whatever
    arrived), but validity degrades with the drop rate.  Everything is
    seeded, so the rows reproduce exactly.
    """
    from repro.analysis.domination import is_dominating_set
    from repro.api import FaultPlan, SimulationSpec, simulate

    graph = _k2t_stress_instance(4, blocks=2)
    crash_choices: list[tuple[str, tuple]] = [("none", ()), ("hub", (1,))]
    rows = []
    for drop in drops:
        for crash_name, crashed in crash_choices:
            spec = SimulationSpec(
                algorithm="d2",
                seed=seed,
                faults=FaultPlan(drop_probability=drop, crashed=crashed),
            )
            report = simulate(graph, spec)
            alive = set(graph.nodes) - set(crashed)
            rows.append(
                {
                    "drop_p": drop,
                    "crashed": crash_name,
                    "rounds": report.rounds,
                    "dropped_msgs": report.dropped_messages,
                    "swallowed_msgs": report.swallowed_messages,
                    "size": len(report.chosen),
                    "valid_on_alive": is_dominating_set(
                        graph.subgraph(alive), report.chosen
                    ),
                }
            )
    return rows


def adversarial_degradation_sweep(
    churn_rates: Sequence[float] = (0.0, 0.1, 0.3),
    byz_fractions: Sequence[float] = (0.0, 0.25),
    algorithms: Sequence[str] = ("d2", "degree_two", "greedy"),
    seed: int = 1,
    model: str = "local",
    max_rounds: int = 64,
) -> list[dict]:
    """S12: solution-quality degradation under churn × Byzantine nodes.

    For every cell of the (churn rate × Byzantine fraction) grid, each
    engine-capable protocol runs against the adversary and its fault-free
    twin on the same seed (:func:`repro.api.adversarial_degradation`).
    The achieved ratio is measured on the graph the run *ended* on, so
    churn that deletes a dominated vertex does not flatter the protocol.
    Byzantine nodes are picked deterministically — the first
    ``ceil(n · fraction)`` vertices in repr order, behaviors assigned
    round-robin from :data:`BYZANTINE_BEHAVIORS` — so the rows reproduce
    exactly.  The fault-free column (rate 0, fraction 0) must report
    ``agree=True``: with a trivial adversary the twin is the same run.
    """
    from repro.api import (
        BYZANTINE_BEHAVIORS,
        ByzantinePlan,
        ChurnPlan,
        SimulationSpec,
        adversarial_degradation,
    )

    graph = _k2t_stress_instance(4, blocks=2)
    nodes = sorted(graph.nodes, key=repr)
    rows = []
    for algorithm in algorithms:
        for rate in churn_rates:
            for fraction in byz_fractions:
                percent = round(fraction * 100)
                count = -(-len(nodes) * percent // 100)  # ceil(n · fraction)
                behaviors = tuple(
                    (nodes[i], BYZANTINE_BEHAVIORS[i % len(BYZANTINE_BEHAVIORS)])
                    for i in range(count)
                )
                spec = SimulationSpec(
                    algorithm=algorithm,
                    model=model,
                    seed=seed,
                    max_rounds=max_rounds,
                    churn=ChurnPlan(rate=rate, until=4) if rate else None,
                    byzantine=ByzantinePlan(behaviors) if behaviors else None,
                )
                out = adversarial_degradation(graph, spec)
                report, degradation = out["report"], out["degradation"]
                rows.append(
                    {
                        "algorithm": algorithm,
                        "churn_rate": rate,
                        "byz_fraction": fraction,
                        "byz_nodes": count,
                        "rounds": report.rounds,
                        "churn_events": report.churn_events,
                        "size": degradation["size"],
                        "coverage": round(degradation["coverage"], 3),
                        "valid": degradation["valid"],
                        "ratio": degradation["ratio"],
                        "agree": degradation["agree"],
                        "timed_out": report.timed_out,
                    }
                )
    return rows


def congest_gather_inflation(budgets: Sequence[int] = (1, 2, 4, 8)) -> list[dict]:
    """S9: round inflation of radius-2 gathering under CONGEST budgets.

    LOCAL ships the whole view in ``r + 1`` rounds; capping messages at
    ``budget`` facts pipelines the flood and multiplies the rounds —
    measured here on a fixed ladder (the quantitative content of the
    paper's LOCAL-vs-CONGEST remark in Section 1).
    """
    from repro.local_model.congest_gather import congest_gather_views
    from repro.local_model.gather import gather_views

    graph = ladder(10)
    _, local_trace = gather_views(graph, 2)
    rows = []
    for budget in budgets:
        _, trace = congest_gather_views(graph, 2, budget)
        rows.append(
            {
                "budget_facts_per_msg": budget,
                "congest_rounds": trace.round_count,
                "local_rounds": local_trace.round_count,
                "inflation": round(trace.round_count / local_trace.round_count, 2),
            }
        )
    return rows


def treewidth_asdim_chain(seeds: Sequence[int] = (0, 1)) -> list[dict]:
    """S10: the paper's structural chain, measured.

    Section 4 argues ``K_{2,t}``-minor-free ⟹ bounded treewidth ⟹
    asymptotic dimension 1.  For each family we measure the three
    stations: the largest ``K_{2,t}`` minor found (singleton hubs), the
    min-fill treewidth, and the witnessed control bound of the
    decomposition-derived cover at r = 2.
    """
    from repro.graphs.minors import largest_k2t_minor_singleton_hubs
    from repro.graphs.random_families import random_ding_augmentation, random_outerplanar
    from repro.graphs.treewidth import measured_cover_control, min_fill_decomposition, width

    rows = []
    for seed in seeds:
        for name, graph in [
            ("outerplanar", random_outerplanar(14 + seed, seed)),
            ("ladder", ladder(7 + seed)),
            ("ding", random_ding_augmentation(3, 2, seed)),
        ]:
            rows.append(
                {
                    "family": name,
                    "seed": seed,
                    "n": graph.number_of_nodes(),
                    "largest_k2t": largest_k2t_minor_singleton_hubs(graph),
                    "treewidth": width(min_fill_decomposition(graph)),
                    "cover_control_r2": measured_cover_control(graph, 2),
                }
            )
    return rows


def render_rows(rows: list[dict]) -> str:
    """Render a list of uniform dicts as an aligned table."""
    if not rows:
        return "(no data)"
    headers = list(rows[0])
    return format_table(headers, [[row[h] for h in headers] for row in rows])
