"""The shard executor that runs inside pool worker processes.

One task = one shard attempt.  The payload is a plain dict (cheap to
pickle, stable across interpreter restarts): embedded instance wires,
the algorithm list + config (solve) or spec list (simulate), the
attempt number, and the fault-injection spec, if any.  The worker
rebuilds each instance from its CSR wire (kernel pre-seeded), runs the
same :func:`repro.api.solve` / :func:`repro.api.simulate` calls the
batch runners use, and returns JSON-ready report dicts — the parent
dispatcher owns all disk writes.

Fault-injection sites fire **mid-shard**, after the first unit's report
has been produced, so an injected kill provably discards completed work
and the retry provably regenerates it byte-identically.
"""

from __future__ import annotations

from repro.api.config import RunConfig
from repro.api.runner import solve
from repro.api.simulation import SimulationSpec, simulate
from repro.io import (
    from_dict,
    kernel_wire_from_dict,
    run_report_to_dict,
    sim_report_to_dict,
)
from repro.sweep.faultinject import FaultInjector, FaultSpec


def shard_task(
    manifest_dict: dict, shard_dict: dict, attempt: int, fault_dict: dict | None
) -> dict:
    """Build the picklable payload for one shard attempt."""
    task = {
        "kind": manifest_dict["kind"],
        "shard": shard_dict,
        "attempt": attempt,
        "faults": fault_dict,
    }
    if manifest_dict["kind"] == "solve":
        task["algorithms"] = manifest_dict["algorithms"]
        task["config"] = manifest_dict["config"]
    else:
        task["specs"] = manifest_dict["specs"]
    return task


def execute_shard(task: dict) -> tuple[str, list[dict]]:
    """Run one shard attempt; returns ``(shard_id, report dicts)``.

    Module-level so :class:`concurrent.futures.ProcessPoolExecutor` can
    pickle it by reference.
    """
    from repro.graphs.kernel import instance_from_wire

    shard = task["shard"]
    shard_id = shard["id"]
    attempt = task["attempt"]
    injector = FaultInjector(
        FaultSpec.from_dict(task["faults"]) if task["faults"] else None
    )

    if task["kind"] == "solve":
        config = from_dict(RunConfig, task["config"])
        units = [
            (entry, name) for entry in shard["instances"] for name in task["algorithms"]
        ]
    else:
        specs = [from_dict(SimulationSpec, s) for s in task["specs"]]
        units = [(entry, spec) for entry in shard["instances"] for spec in specs]

    reports: list[dict] = []
    graphs: dict[str, tuple] = {}
    for index, (entry, what) in enumerate(units):
        if index == min(1, len(units) - 1):
            # Mid-shard injection point: at least one unit's work exists
            # (for single-unit shards, before the shard returns).
            injector.maybe_kill(shard_id, attempt)
            injector.maybe_raise(shard_id, attempt)
            injector.maybe_hang(shard_id, attempt)
        # Graphs are cached by content digest (identical instances — a
        # deterministic family at two seeds — share one kernel), but the
        # meta is always the entry's own: provenance must never be
        # deduplicated along with the bytes.
        # instance_from_wire keeps big instances as KernelViews over
        # packed kernels — a million-node shard never builds an nx.Graph.
        graph = graphs.get(entry["digest"])
        if graph is None:
            graph = instance_from_wire(kernel_wire_from_dict(entry["wire"]))
            graphs[entry["digest"]] = graph
        meta = dict(entry.get("meta", {}))
        if task["kind"] == "solve":
            reports.append(run_report_to_dict(solve(graph, what, config, meta=meta)))
        else:
            reports.append(sim_report_to_dict(simulate(graph, what, meta=meta)))
    return shard_id, reports
