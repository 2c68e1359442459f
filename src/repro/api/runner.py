"""`solve` / `solve_many`: the uniform front door over the registry.

:func:`solve` runs one registered algorithm on one graph and returns a
:class:`~repro.api.config.RunReport`; :func:`solve_many` fans a batch of
``instances x algorithms`` out over a :class:`concurrent.futures.\
ProcessPoolExecutor` while keeping the result order deterministic
(instance-major, then the algorithm order as given) — the parallel run
returns exactly the serial run's reports, in the same order.

Batch structure
---------------

Tasks are grouped **instance-major**: one parallel task is one instance
together with *every* algorithm in the batch.  That shape is what makes
``validate="ratio"`` sweeps cheap — the exact optimum depends only on
the instance, so each task computes OPT once (through
:mod:`repro.solvers.opt_cache`) and every algorithm's ratio shares it,
in the serial path and inside each worker process alike.  Instances
cross the process boundary as :class:`~repro.graphs.kernel.KernelWire`
CSR snapshots instead of pickled ``nx.Graph`` adjacency dicts: each
instance is serialised once per batch (not once per algorithm), and the
worker rebuilds graph + kernel in one linear pass.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Iterable, Mapping, Sequence

import networkx as nx

import repro.api.algorithms  # noqa: F401  (populates the registry)
from repro.api.config import RunConfig, RunReport, instance_meta, measured_ratio
from repro.api.registry import AlgorithmSpec, get_algorithm
from repro.analysis.domination import is_dominating_set
from repro.graphs.kernel import KernelView, KernelWire, instance_from_wire, kernel_for
from repro.solvers.opt_cache import optimum_size
from repro.solvers.vc import is_vertex_cover


class WorkerCrashError(RuntimeError):
    """A pool worker died mid-batch (OOM kill, SIGKILL, interpreter abort).

    Raised in place of the raw :class:`concurrent.futures.process.\
    BrokenProcessPool` so callers get an actionable record instead of a
    bare "pool is not usable anymore": ``completed`` tasks already
    yielded their reports in order, ``in_flight`` names the first
    unfinished chunk (its instance metadata), and the whole batch can be
    re-run — or, better, routed through :mod:`repro.sweep`, whose
    dispatcher catches exactly this error, rebuilds the pool, and
    retries only the unfinished shards.
    """

    def __init__(self, kind: str, completed: int, total: int, in_flight: object):
        self.kind = kind
        self.completed = completed
        self.total = total
        self.in_flight = in_flight
        super().__init__(
            f"a {kind} pool worker crashed after {completed}/{total} tasks; "
            f"first unfinished chunk: {in_flight!r} (re-run, or use "
            f"repro.sweep for checkpointed retry)"
        )


def _optimum_size(graph: nx.Graph, spec: AlgorithmSpec, config: RunConfig) -> int:
    """|OPT| for the spec's problem kind, via the per-instance cache.

    ``config.solver`` selects the MDS backend only; MVC optima always
    use the MILP backend (no pure-Python MVC solver is shipped).
    """
    solver = "milp" if spec.problem == "mvc" else config.solver
    return optimum_size(graph, spec.problem, solver, use_cache=config.opt_cache)


def _check_valid(graph: nx.Graph, spec: AlgorithmSpec, solution: set) -> bool:
    if spec.problem == "mvc":
        return is_vertex_cover(graph, solution)
    return is_dominating_set(graph, solution)


def solve(
    graph: nx.Graph,
    algorithm: str,
    config: RunConfig | None = None,
    *,
    meta: Mapping | None = None,
) -> RunReport:
    """Run one registered algorithm on one graph.

    ``meta`` (e.g. ``{"family": "fan", "size": 20, "seed": 0}``) is
    merged into the report's instance record for provenance.  Raises
    :class:`repro.api.registry.UnsupportedModeError` when ``config.mode``
    is not in the algorithm's capability flags, and
    :class:`repro.api.registry.UnknownAlgorithmError` on a bad name.
    """
    config = config or RunConfig()
    spec = get_algorithm(algorithm)
    spec.check_mode(config.mode)

    start = time.perf_counter()
    result = spec.run(graph, config)
    wall_time = time.perf_counter() - start

    valid: bool | None = None
    optimum_size: int | None = None
    ratio: float | None = None
    if config.validate != "none":
        valid = _check_valid(graph, spec, result.solution)
    if config.validate == "ratio":
        optimum_size = _optimum_size(graph, spec, config)
        ratio = measured_ratio(result.size, optimum_size)

    return RunReport(
        algorithm=spec.name,
        problem=spec.problem,
        instance=instance_meta(graph, meta),
        result=result,
        config=config,
        wall_time=wall_time,
        valid=valid,
        optimum_size=optimum_size,
        ratio=ratio,
    )


def _normalise_instances(
    instances: Iterable,
) -> list[tuple[dict, nx.Graph]]:
    """Accept graphs/:class:`KernelView`s, ``(meta, graph)`` pairs, or a mix.

    A :class:`~repro.graphs.kernel.KernelView` counts as a bare
    instance — the packed large-graph path never builds an
    ``nx.Graph``, and everything downstream (kernel primitives,
    validity checks, ``instance_meta``) runs on the view's kernel.
    """
    out: list[tuple[dict, nx.Graph]] = []
    for item in instances:
        if isinstance(item, (nx.Graph, KernelView)):
            out.append(({}, item))
        else:
            meta, graph = item
            out.append((dict(meta), graph))
    return out


def _run_instance(
    meta: dict, graph: nx.Graph, algorithms: Sequence[str], config: RunConfig
) -> list[RunReport]:
    """Every algorithm on one instance; OPT is shared through the cache."""
    return [solve(graph, name, config, meta=meta) for name in algorithms]


def _solve_instance_task(
    task: tuple[dict, KernelWire, Sequence[str], RunConfig],
) -> list[RunReport]:
    """Module-level worker so ProcessPoolExecutor can pickle it.

    Rebuilds the instance from the CSR wire once — an ``nx.Graph`` with
    a pre-seeded kernel below the packed threshold, a
    :class:`~repro.graphs.kernel.KernelView` over a packed kernel at or
    above it — then runs the whole algorithm list on it: one
    deserialisation and (for ratio runs) one exact solve per instance,
    regardless of how many algorithms ride.
    """
    meta, wire, algorithms, config = task
    return _run_instance(meta, instance_from_wire(wire), algorithms, config)


def solve_many(
    instances: Iterable,
    algorithms: str | Sequence[str],
    config: RunConfig | None = None,
    *,
    workers: int | None = None,
) -> list[RunReport]:
    """Run a batch of ``instances x algorithms`` through :func:`solve`.

    ``instances`` may be bare graphs or ``(meta, graph)`` pairs (the
    shape :func:`repro.io.read_corpus` returns).  ``workers`` > 1 runs
    the batch in a process pool, one instance-major chunk of tasks per
    dispatch; ordering is deterministic either way: instance-major,
    algorithms in the order given.  Capability checks run *before* any
    work starts, so a bad mode/name fails fast instead of mid-sweep.
    """
    config = config or RunConfig()
    if isinstance(algorithms, str):
        algorithm_list = [algorithms]
    else:
        algorithm_list = list(algorithms)
    for name in algorithm_list:
        get_algorithm(name).check_mode(config.mode)

    pairs = _normalise_instances(instances)
    if not pairs or not algorithm_list:
        return []
    if workers is None or workers <= 1:
        reports: list[RunReport] = []
        for meta, graph in pairs:
            reports.extend(_run_instance(meta, graph, algorithm_list, config))
        return reports
    tasks = [
        (meta, kernel_for(graph).packed().to_wire(), algorithm_list, config)
        for meta, graph in pairs
    ]
    chunksize = max(1, len(tasks) // (workers * 4))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        # Executor.map preserves submission order, giving parallel runs
        # the exact serial ordering.
        batches = pool.map(_solve_instance_task, tasks, chunksize=chunksize)
        reports: list[RunReport] = []
        done = 0
        try:
            for batch in batches:
                reports.extend(batch)
                done += 1
        except BrokenProcessPool as error:
            raise WorkerCrashError(
                "solve", done, len(tasks), tasks[done][0]
            ) from error
        return reports
