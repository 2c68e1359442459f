"""Engine hot-path benchmark: by-reference delivery vs defensive copies.

The engine's delivery contract is immutable-by-convention: payloads move
from outbox to inbox by reference, never copied (see
:mod:`repro.local_model.engine`).  This module quantifies what that
buys by re-imposing the defensive discipline — a ``copy.deepcopy`` of
every round's inbox before the algorithm reads it, which is what a
runtime that distrusts its algorithms would have to do — on the same
payload-heavy workload (radius-2 view gathering, whose messages carry
whole subgraphs).

Besides the ``pytest-benchmark`` timings, :func:`test_write_engine_
trajectory` measures the contrast across graph sizes and writes the
result to ``benchmarks/BENCH_engine.json`` so the scaling trajectory is
inspectable (and plottable) outside the test run.
"""

from __future__ import annotations

import copy
import json
import time
from pathlib import Path

import pytest

from repro.graphs import generators
from repro.local_model.engine import FaultPlan, SimulationEngine
from repro.local_model.gather import GatherAlgorithm
from repro.local_model.network import Network

TRAJECTORY_PATH = Path(__file__).parent / "BENCH_engine.json"
RADIUS = 2


class DefensiveCopyGather(GatherAlgorithm):
    """Radius-r gathering under the old defensive-copy discipline.

    Deep-copies the inbox before every read — the per-round cost the
    immutable-by-convention contract removed from the engine.
    """

    def on_round(self, ctx) -> None:
        copy.deepcopy(ctx.inbox)
        super().on_round(ctx)


def _run(graph, factory, **engine_kwargs):
    engine = SimulationEngine(Network(graph), **engine_kwargs)
    return engine.run(factory)


def _time(graph, factory, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        _run(graph, factory)
        best = min(best, time.perf_counter() - start)
    return best


def test_bench_engine_by_reference(benchmark):
    graph = generators.ladder(24)
    result = benchmark.pedantic(
        _run, args=(graph, lambda: GatherAlgorithm(RADIUS)), rounds=1, iterations=1
    )
    benchmark.extra_info["messages"] = result.total_messages
    benchmark.extra_info["payload"] = result.total_payload


def test_bench_engine_defensive_copy(benchmark):
    graph = generators.ladder(24)
    result = benchmark.pedantic(
        _run,
        args=(graph, lambda: DefensiveCopyGather(RADIUS)),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["messages"] = result.total_messages


def test_bench_engine_trace_off(benchmark):
    # trace="off" also skips payload_size accounting — the other half of
    # the hot path — so sweeps that only need outputs pay neither.
    graph = generators.ladder(24)
    result = benchmark.pedantic(
        _run,
        args=(graph, lambda: GatherAlgorithm(RADIUS)),
        kwargs={"trace": "off"},
        rounds=1,
        iterations=1,
    )
    assert result.total_payload is None  # payload sizing skipped


def test_bench_engine_faulty_delivery(benchmark):
    # Fault handling must not regress the clean path noticeably.
    graph = generators.ladder(24)
    result = benchmark.pedantic(
        _run,
        args=(graph, lambda: GatherAlgorithm(RADIUS)),
        kwargs={"faults": FaultPlan(drop_probability=0.1), "seed": 7},
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["dropped"] = result.dropped_messages


def test_write_engine_trajectory():
    """Measure by-reference vs deepcopy delivery across sizes; persist.

    The deepcopy run does strictly more work per round, so its time
    should not beat the by-reference run on the largest size; the
    trajectory file records the measured speedups.
    """
    trajectory = []
    for rungs in (8, 16, 24):
        graph = generators.ladder(rungs)
        by_reference = _time(graph, lambda: GatherAlgorithm(RADIUS))
        defensive = _time(graph, lambda: DefensiveCopyGather(RADIUS))
        reference_run = _run(graph, lambda: GatherAlgorithm(RADIUS))
        trajectory.append(
            {
                "n": graph.number_of_nodes(),
                "radius": RADIUS,
                "rounds": reference_run.rounds,
                "messages": reference_run.total_messages,
                "payload_units": reference_run.total_payload,
                "by_reference_s": round(by_reference, 6),
                "deepcopy_s": round(defensive, 6),
                "speedup": round(defensive / by_reference, 3),
            }
        )
    TRAJECTORY_PATH.write_text(
        json.dumps({"benchmark": "engine_delivery", "trajectory": trajectory}, indent=1)
    )
    assert trajectory[-1]["speedup"] > 1.0
