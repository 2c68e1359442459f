"""Batch-runner benchmark: bitset B&B + shared-OPT batching vs PR 3.

Measures the exact/batch layer end to end against the pre-overhaul
behavior (kept verbatim in ``tests/oracles`` as ``legacy_*``), then writes
``benchmarks/BENCH_batch.json``:

* ``bnb[*]`` — the pre-bitset set-walking branch and bound vs the
  kernel-bitset rewrite on each instance; ``agree`` confirms equal
  optimum sizes, ``milp_match`` pins both against the MILP backend;
* ``shared_opt`` — a ratio-validated multi-algorithm sweep over every
  *constant-round* MDS algorithm in the registry (the Table 1 shape,
  where the exact denominator dominates; ``algorithm1``/``algorithm2``
  are excluded because their wall time is their own internal exact
  sub-solves, which no harness can share) timed three ways:
  ``per_task_s`` re-solves OPT per ``(instance, algorithm)`` exactly as
  the PR 3 runner did, ``shared_milp_s``/``shared_bnb_s`` run the
  instance-major batch with one cached OPT per instance.  ``speedup``
  is ``per_task_s / shared_bnb_s`` (the acceptance floor is 3x for the
  full run), and ``agree`` proves all three produced identical ratios
  and optimum sizes;
* ``wire`` — shipping one batch's instances as per-task pickled
  ``nx.Graph`` objects (the PR 3 wire) vs one CSR ``KernelWire`` per
  instance, with payload byte counts and the rebuild cost included;
* ``workers`` — a full-registry ratio batch (algorithm1/2 included;
  compute-heavy tasks are where process parallelism pays) serial vs
  ``workers=4``, asserting the parallel report JSON is byte-identical
  modulo ``wall_time``.

Run as a script for the CI smoke (``python benchmarks/bench_batch.py
--quick``) or in full (``python benchmarks/bench_batch.py``) to
regenerate ``BENCH_batch.json``.
"""

from __future__ import annotations

import argparse
import json
import pickle
import sys
import time
from pathlib import Path

from repro.api import RunConfig, solve_many
from repro.api.registry import algorithm_names
from repro.experiments.workloads import make_workload
from repro.graphs.kernel import graph_from_wire, invalidate_kernel, kernel_for
from repro.io import run_report_to_dict
from repro.solvers.exact import minimum_dominating_set
from repro.solvers.opt_cache import clear_opt_cache

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))  # for tests.oracles
from tests.oracles.solvers import (
    legacy_bnb_minimum_dominating_set,
    legacy_per_task_sweep,
)

RESULT_PATH = Path(__file__).parent / "BENCH_batch.json"


# -- measurement harness --------------------------------------------------


def _best_of(fn, repeats):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _instances(quick):
    sizes = [16, 24] if quick else [24, 36, 48]
    seeds = (0,) if quick else (0, 1)
    pairs = []
    for family in ("fan", "ladder", "outerplanar", "ding"):
        pairs.extend(make_workload(family, sizes, seeds).labelled())
    return pairs


def measure_bnb(instances, repeats):
    from repro.solvers.branch_and_bound import bnb_minimum_dominating_set

    rows = []
    for meta, graph in instances:
        kernel_for(graph)  # both paths see a warm kernel
        legacy_s, legacy_out = _best_of(
            lambda: legacy_bnb_minimum_dominating_set(graph), repeats
        )
        bitset_s, bitset_out = _best_of(
            lambda: bnb_minimum_dominating_set(graph), repeats
        )
        milp_size = len(minimum_dominating_set(graph))
        rows.append(
            {
                "family": meta["family"],
                "n": graph.number_of_nodes(),
                "m": graph.number_of_edges(),
                "legacy_s": round(legacy_s, 6),
                "bitset_s": round(bitset_s, 6),
                "speedup": round(legacy_s / bitset_s, 2) if bitset_s else float("inf"),
                "agree": len(legacy_out) == len(bitset_out),
                "milp_match": len(bitset_out) == milp_size,
            }
        )
    return rows


def _ratio_payload(reports):
    return [
        (r.algorithm, r.instance.get("family"), r.instance.get("size"),
         r.instance.get("seed"), r.optimum_size, r.ratio, r.valid)
        for r in reports
    ]


def _constant_round_algorithms():
    """The registry's MDS algorithms whose cost is the harness, not
    themselves (algorithm1/2 spend their time in internal per-component
    exact sub-solves that no batch layer can amortise)."""
    return [
        name for name in algorithm_names("mds")
        if name not in ("algorithm1", "algorithm2")
    ]


def measure_shared_opt(instances, repeats):
    algorithms = _constant_round_algorithms()
    base = RunConfig(validate="ratio")

    def cold(fn):
        # Every timed pass starts from a cold OPT cache, so the shared
        # paths are charged for their one exact solve per instance.
        return lambda: (clear_opt_cache(), fn())[1]

    per_task_s, per_task = _best_of(
        cold(lambda: legacy_per_task_sweep(instances, algorithms, base)), repeats
    )
    shared_milp_s, shared_milp = _best_of(
        cold(lambda: solve_many(instances, algorithms, base)), repeats
    )
    shared_bnb_s, shared_bnb = _best_of(
        cold(lambda: solve_many(instances, algorithms, base.with_(solver="bnb"))),
        repeats,
    )
    agree = (
        _ratio_payload(per_task)
        == _ratio_payload(shared_milp)
        == _ratio_payload(shared_bnb)
    )
    return {
        "instances": len(instances),
        "algorithms": len(algorithms),
        "per_task_s": round(per_task_s, 6),
        "shared_milp_s": round(shared_milp_s, 6),
        "shared_bnb_s": round(shared_bnb_s, 6),
        "speedup_milp": round(per_task_s / shared_milp_s, 2),
        "speedup": round(per_task_s / shared_bnb_s, 2),
        "agree": agree,
    }


def measure_wire(instances, algorithm_count, repeats):
    def ship_pickled():
        # PR 3 shipped one pickled nx.Graph per (instance, algorithm).
        total = 0
        for _, graph in instances:
            for _ in range(algorithm_count):
                total += len(pickle.dumps(graph, protocol=pickle.HIGHEST_PROTOCOL))
        return total

    def ship_wire():
        # One CSR wire per instance, rebuilt (graph + kernel) once.
        total = 0
        for _, graph in instances:
            blob = pickle.dumps(
                kernel_for(graph).packed().to_wire(), protocol=pickle.HIGHEST_PROTOCOL
            )
            total += len(blob)
            graph_from_wire(pickle.loads(blob))
        return total

    for _, graph in instances:
        kernel_for(graph)  # charge neither path for the first kernel build
    pickled_s, pickled_bytes = _best_of(ship_pickled, repeats)
    wire_s, wire_bytes = _best_of(ship_wire, repeats)
    return {
        "instances": len(instances),
        "tasks_per_instance": algorithm_count,
        "pickled_s": round(pickled_s, 6),
        "wire_s": round(wire_s, 6),
        "speedup": round(pickled_s / wire_s, 2) if wire_s else float("inf"),
        "pickled_bytes": pickled_bytes,
        "wire_bytes": wire_bytes,
        "bytes_ratio": round(pickled_bytes / wire_bytes, 2),
    }


def measure_workers(instances, repeats):
    algorithms = algorithm_names("mds")
    config = RunConfig(validate="ratio")

    def stable(reports):
        payload = []
        for report in reports:
            data = run_report_to_dict(report)
            data.pop("wall_time", None)
            payload.append(data)
        return json.dumps(payload, sort_keys=True)

    def cold_serial():
        # Workers rebuild every instance from its wire, so they start
        # cold; drop the serial side's kernels and per-graph memos (cut
        # lists, OPT) too, or its later repeats would time memo hits.
        for _, graph in instances:
            invalidate_kernel(graph)
        return solve_many(instances, algorithms, config)

    serial_s, serial = _best_of(cold_serial, repeats)
    parallel_s, parallel = _best_of(
        lambda: solve_many(instances, algorithms, config, workers=4), repeats
    )
    return {
        "instances": len(instances),
        "algorithms": len(algorithms),
        "serial_s": round(serial_s, 6),
        "workers4_s": round(parallel_s, 6),
        "speedup": round(serial_s / parallel_s, 2),
        "byte_stable": stable(serial) == stable(parallel),
    }


def run(quick: bool) -> dict:
    instances = _instances(quick)
    repeats = 2 if quick else 3
    return {
        "benchmark": "batch_runner",
        "quick": quick,
        "bnb": measure_bnb(instances, repeats),
        "shared_opt": measure_shared_opt(instances, repeats),
        "wire": measure_wire(instances, len(algorithm_names("mds")), repeats * 3),
        "workers": measure_workers(instances, 1 if quick else 2),
    }


def check(result: dict, quick: bool) -> list[str]:
    """Regression assertions; quick mode uses looser CI-safe floors."""
    failures = []
    for row in result["bnb"]:
        if not row["agree"]:
            failures.append(
                f"bnb {row['family']} n={row['n']}: legacy and bitset disagree"
            )
        if not row["milp_match"]:
            failures.append(
                f"bnb {row['family']} n={row['n']}: bitset optimum != MILP optimum"
            )
    shared = result["shared_opt"]
    floor = 1.8 if quick else 3.0
    if not shared["agree"]:
        failures.append("shared_opt: per-task and shared runs disagree")
    if shared["speedup"] < floor:
        failures.append(f"shared_opt speedup {shared['speedup']} < {floor}")
    if not result["workers"]["byte_stable"]:
        failures.append("workers: parallel reports not byte-stable vs serial")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small instances + loose floors (CI regression smoke)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="write the result JSON here (default: only full runs write "
        "BENCH_batch.json)",
    )
    args = parser.parse_args(argv)
    result = run(quick=args.quick)
    out = args.out if args.out is not None else (None if args.quick else RESULT_PATH)
    if out is not None:
        out.write_text(json.dumps(result, indent=1))
    for row in result["bnb"]:
        print(
            f"{'bnb ' + row['family']:>24} n={row['n']:<4} "
            f"legacy {row['legacy_s'] * 1e3:8.2f}ms  "
            f"bitset {row['bitset_s'] * 1e3:8.2f}ms  {row['speedup']:6.1f}x  "
            f"milp_match={row['milp_match']}"
        )
    shared = result["shared_opt"]
    print(
        f"{'shared-OPT sweep':>24} {shared['instances']} instances x "
        f"{shared['algorithms']} algorithms: per-task {shared['per_task_s']:.3f}s  "
        f"shared(milp) {shared['shared_milp_s']:.3f}s  "
        f"shared(bnb) {shared['shared_bnb_s']:.3f}s  "
        f"{shared['speedup']:.1f}x agree={shared['agree']}"
    )
    wire = result["wire"]
    print(
        f"{'wire format':>24} pickled {wire['pickled_s'] * 1e3:.2f}ms "
        f"({wire['pickled_bytes']} B) vs wire {wire['wire_s'] * 1e3:.2f}ms "
        f"({wire['wire_bytes']} B): {wire['speedup']:.1f}x, "
        f"{wire['bytes_ratio']:.1f}x fewer bytes"
    )
    workers = result["workers"]
    print(
        f"{'workers=4':>24} serial {workers['serial_s']:.3f}s vs "
        f"{workers['workers4_s']:.3f}s ({workers['speedup']:.1f}x), "
        f"byte_stable={workers['byte_stable']}"
    )
    failures = check(result, quick=args.quick)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
