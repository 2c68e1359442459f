"""`simulate` / `simulate_many`: the front door to the simulation engine.

The distributed counterpart of :func:`repro.api.solve`: a
:class:`SimulationSpec` says *how* to execute one registered algorithm's
message-passing protocol (round model, CONGEST budget, round limit,
trace policy, RNG seed, fault plan, identifier scheme); a
:class:`SimReport` says *what happened* (per-vertex outputs, round and
message totals, drops, crashes).  Both are plain picklable dataclasses,
round-trip through JSON via :func:`repro.io.to_dict` /
:func:`repro.io.from_dict`, and :func:`simulate_many` fans
``instances × specs`` out over the same process-parallel,
order-deterministic machinery as :func:`repro.api.solve_many`.

Reports carry **no wall-clock fields** — everything in a
:class:`SimReport` is a pure function of (graph, spec), so a
``workers=4`` batch serialises byte-identically to the serial run.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import Hashable, Iterable, Sequence

import networkx as nx

import repro.api.algorithms  # noqa: F401  (populates the registry)
from repro.api.config import (
    instance_meta,
    measured_ratio,
    parse_byzantine,
    parse_churn,
    parse_faults,
)
from repro.api.registry import AlgorithmSpec, get_algorithm
from repro.api.runner import _normalise_instances
from repro.local_model.adversary import (
    ByzantinePlan,
    ChurnPlan,
    churned_graph,
    materialize_churn,
)
from repro.local_model.engine import (
    MODELS,
    TRACE_POLICIES,
    FaultPlan,
    SimulationEngine,
    scheduler_for,
)
from repro.local_model.identifiers import identity_ids, shuffled_ids, spread_ids
from repro.local_model.instrumentation import RoundStats
from repro.local_model.network import Network

Vertex = Hashable

ID_SCHEMES = ("identity", "shuffled", "spread")

#: Field metadata of a default-skipping field (see :mod:`repro.io`).
_OMIT = {"omit": True}


@dataclass(frozen=True)
class SimulationSpec:
    """How to execute one algorithm on the simulation engine.

    ``algorithm`` names a registered algorithm with a message-passing
    protocol (see ``repro algorithms``; the registry rejects the rest).
    The other fields' ``help`` metadata documents them and doubles as
    the ``repro simulate`` flag text.  Beyond that:

    * ``budget`` is ignored under LOCAL, ``delay`` under LOCAL/CONGEST;
    * ``max_rounds`` — exceeding it raises instead of hanging;
    * ``trace="off"`` counts messages but skips payload sizing, so
      large sweeps need not hold per-round traces in memory;
    * ``seed`` — drives the fault RNG, the ``"shuffled"`` identifier
      scheme and the random churn process; recorded for provenance;
    * ``churn`` changes the topology between rounds on a copy of the
      input graph, never mutating it.

    Leaving ``churn``/``byzantine`` unset (or trivial) and the model at
    LOCAL/CONGEST reproduces pre-adversarial reports byte-identically.
    """

    algorithm: str
    model: str = field(
        default="local",
        metadata={
            "choices": MODELS,
            "help": "round model: LOCAL (unbounded), CONGEST (budgeted messages), "
            "async (seeded delivery delays), or adversarial (worst-case "
            "delays and reordering)",
        },
    )
    budget: int = field(
        default=4, metadata={"help": "CONGEST cap in identifier units per message"}
    )
    max_rounds: int = 10_000
    trace: str = field(
        default="stats",
        metadata={
            "choices": TRACE_POLICIES,
            "help": "full per-round stats, aggregate totals, or no accounting",
        },
    )
    seed: int = 0
    faults: FaultPlan | None = field(
        default=None,
        metadata={
            "grammar": parse_faults,
            "metavar": "PLAN",
            "help": "fault plan, e.g. 'drop=0.2', 'drop=0.1,crash=0+4', or "
            "round-scoped 'crash=4@3' (vertex 4 crashes at round 3)",
        },
    )
    ids: str = field(
        default="identity",
        metadata={"choices": ID_SCHEMES, "help": "identifier assignment scheme"},
    )
    churn: ChurnPlan | None = field(
        default=None,
        metadata={
            "omit": True,
            "grammar": parse_churn,
            "metavar": "PLAN",
            "help": "churn plan: 'rate=<p>,until=<r>' for seeded random edge "
            "flips and/or events 'add:u-v@r', 'del:u-v@r', 'join:v[-anchor]@r', "
            "'leave:v@r'",
        },
    )
    byzantine: ByzantinePlan | None = field(
        default=None,
        metadata={
            "omit": True,
            "grammar": parse_byzantine,
            "metavar": "PLAN",
            "help": "byzantine plan: '<behavior>=<v>+<v>' parts, behaviors "
            "silent/babble/equivocate/lie, e.g. 'babble=0+3,lie=7'",
        },
    )
    delay: int = field(
        default=2,
        metadata={
            "omit": True,
            "help": "per-message delay bound for --model async/adversarial",
        },
    )

    def __post_init__(self) -> None:
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}; choose from {MODELS}")
        if self.trace not in TRACE_POLICIES:
            raise ValueError(
                f"unknown trace policy {self.trace!r}; choose from {TRACE_POLICIES}"
            )
        if self.budget < 1:
            raise ValueError("budget must allow at least one identifier")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be positive")
        if self.ids not in ID_SCHEMES:
            raise ValueError(
                f"unknown identifier scheme {self.ids!r}; choose from {ID_SCHEMES}"
            )
        if self.churn is not None and not isinstance(self.churn, ChurnPlan):
            raise ValueError(f"churn must be a ChurnPlan, got {self.churn!r}")
        if self.byzantine is not None and not isinstance(self.byzantine, ByzantinePlan):
            raise ValueError(
                f"byzantine must be a ByzantinePlan, got {self.byzantine!r}"
            )
        if self.delay < 0:
            raise ValueError(f"delay bound must be >= 0, got {self.delay}")

    def with_(self, **changes: object) -> "SimulationSpec":
        """A copy with the given fields replaced (frozen-dataclass update)."""
        return replace(self, **changes)


@dataclass
class SimReport:
    """Everything one :func:`simulate` call produced.

    ``outputs`` is keyed by graph vertex (simulator bookkeeping labels),
    so reports are comparable across identifier schemes; crashed nodes
    never halt and are absent.  ``round_stats`` is ``None`` unless the
    spec asked for ``trace="full"``.  ``total_messages`` is always
    counted; ``total_payload`` is ``None`` when payload sizes were not
    measured (``trace="off"`` under a model other than CONGEST).
    """

    algorithm: str
    problem: str
    model: str
    instance: dict = field(default_factory=dict, metadata={"jsonable": True})
    spec: SimulationSpec | None = None
    outputs: dict[Vertex, object] = field(
        default_factory=dict, metadata={"pairs": True, "jsonable": True}
    )
    rounds: int = 0
    total_messages: int = 0
    total_payload: int | None = 0
    dropped_messages: int = 0
    """Messages lost to the fault plan's ``drop_probability`` RNG."""
    swallowed_messages: int = 0
    """Messages addressed to crashed nodes, or caught queued in a node
    by a scheduled crash (never delivered)."""
    crashed: tuple[Vertex, ...] = field(default=(), metadata={"sort": repr})
    round_stats: list[RoundStats] | None = None
    delayed_messages: int = field(default=0, metadata=_OMIT)
    """Messages the async/adversarial scheduler held >= 1 round."""
    churn_events: int = field(default=0, metadata=_OMIT)
    """Topology-change events applied during the run."""
    churn_lost_messages: int = field(default=0, metadata=_OMIT)
    """In-flight messages invalidated by churn."""
    suspicion: dict[Vertex, dict] = field(
        default_factory=dict, metadata={"omit": True, "pairs": True}
    )
    """Per-Byzantine-vertex accountability tallies
    (``behavior``/``deviations``/``detections``)."""
    failed: tuple[Vertex, ...] = field(default=(), metadata={"omit": True, "sort": repr})
    """Vertices whose protocol raised under adversarial conditions."""
    timed_out: bool = field(default=False, metadata=_OMIT)
    """An adversarial run hit ``max_rounds`` before honest nodes halted
    (non-termination under attack is a result, not an error)."""

    @property
    def chosen(self) -> set:
        """Vertices whose output is exactly ``True`` — the solution set
        of membership protocols (D2, degree rule, greedy, take-all)."""
        return {v for v, output in self.outputs.items() if output is True}

    @property
    def halted(self) -> int:
        """How many nodes produced an output."""
        return len(self.outputs)


def _make_ids(graph: nx.Graph, spec: SimulationSpec) -> dict:
    if spec.ids == "shuffled":
        return shuffled_ids(graph, spec.seed)
    if spec.ids == "spread":
        return spread_ids(graph)
    return identity_ids(graph)


def _as_spec(spec: SimulationSpec | str) -> SimulationSpec:
    return SimulationSpec(algorithm=spec) if isinstance(spec, str) else spec


def _engine_spec(spec: SimulationSpec) -> AlgorithmSpec:
    """Resolve + capability-check the registered algorithm."""
    alg = get_algorithm(spec.algorithm)
    alg.check_engine()
    return alg


def simulate(
    graph: nx.Graph,
    spec: SimulationSpec | str,
    *,
    meta: dict | None = None,
) -> SimReport:
    """Run one registered algorithm's protocol on the simulation engine.

    ``spec`` may be a bare algorithm name (shorthand for
    ``SimulationSpec(algorithm=name)``).  Raises
    :class:`~repro.api.registry.UnknownAlgorithmError` on a bad name,
    :class:`~repro.api.registry.UnsupportedModeError` when the algorithm
    ships no protocol, and
    :class:`~repro.local_model.engine.MessageTooLargeError` (with round
    and receiver) when ``model="congest"`` rejects a message.

    The zero-node graph is handled without a network: the report is
    empty with zero rounds.
    """
    spec = _as_spec(spec)
    alg = _engine_spec(spec)
    base = SimReport(
        algorithm=alg.name,
        problem=alg.problem,
        model=spec.model,
        instance=instance_meta(graph, meta),
        spec=spec,
        crashed=tuple(spec.faults.crashed) if spec.faults else (),
        round_stats=[] if spec.trace == "full" else None,
    )
    if graph.number_of_nodes() == 0:
        # The engine owns crash-vertex validation; match its contract
        # here, where no engine is ever constructed.
        if spec.faults is not None and spec.faults.crashed:
            raise ValueError(
                f"crashed vertices not in the network: {list(spec.faults.crashed)!r}"
            )
        return base

    churn_plan = spec.churn if spec.churn is not None and not spec.churn.is_trivial else None
    if churn_plan is not None and not isinstance(graph, nx.Graph):
        # KernelView instances are immutable CSR facades; churn needs a
        # mutable nx.Graph to apply join/leave/rewire events to.
        raise TypeError(
            "churn plans require a mutable nx.Graph instance; "
            f"got {type(graph).__name__} (rebuild the instance as a graph, "
            "e.g. via graph_from_wire, to simulate churn)"
        )
    byz_plan = (
        spec.byzantine
        if spec.byzantine is not None and not spec.byzantine.is_trivial
        else None
    )
    churn_rounds = None
    if churn_plan is not None:
        # Materialize against the caller's graph, then run on a copy —
        # churn mutates the engine-side topology, never the input.
        churn_rounds = materialize_churn(churn_plan, graph, spec.seed)
        graph = graph.copy()
    network = Network(graph, _make_ids(graph, spec))
    engine = SimulationEngine(
        network,
        scheduler_for(spec.model, spec.budget, delay=spec.delay, seed=spec.seed),
        max_rounds=spec.max_rounds,
        faults=spec.faults,
        trace=spec.trace,
        seed=spec.seed,
        churn=churn_rounds,
        byzantine=byz_plan.as_mapping() if byz_plan is not None else None,
    )
    result = engine.run(alg.protocol_factory(graph, spec))
    base.outputs = result.outputs
    base.rounds = result.rounds
    base.total_messages = result.total_messages
    base.total_payload = result.total_payload
    base.dropped_messages = result.dropped_messages
    base.swallowed_messages = result.swallowed_messages
    base.round_stats = result.round_stats
    base.crashed = result.crashed
    base.delayed_messages = result.delayed_messages
    base.churn_events = result.churn_events
    base.churn_lost_messages = result.churn_lost_messages
    base.suspicion = result.suspicion
    base.failed = result.failed
    base.timed_out = result.timed_out
    return base


def _simulate_task(task: tuple[dict, nx.Graph, SimulationSpec]) -> SimReport:
    """Module-level worker so ProcessPoolExecutor can pickle it."""
    meta, graph, spec = task
    return simulate(graph, spec, meta=meta)


def simulate_many(
    instances: Iterable,
    specs: SimulationSpec | str | Sequence[SimulationSpec | str],
    *,
    workers: int | None = None,
) -> list[SimReport]:
    """Run a batch of ``instances × specs`` through :func:`simulate`.

    ``instances`` may be bare graphs or ``(meta, graph)`` pairs (the
    shape :func:`repro.io.read_corpus` returns); ``specs`` may be one
    spec/name or a sequence.  ``workers`` > 1 runs the batch in a
    process pool; ordering is deterministic either way (instance-major,
    specs in the order given), and because reports carry no wall-clock
    fields the parallel batch is byte-identical to the serial one under
    JSON.  Capability checks run before any work starts, so a bad
    name/model fails fast instead of mid-sweep.

    Serial batches that revisit a graph (e.g. the S7 identifier sweep:
    one graph, many specs) reuse the graph's cached
    :class:`~repro.graphs.kernel.GraphKernel` — port orders and
    delivery routes are derived once per graph, not once per run.
    """
    if isinstance(specs, (SimulationSpec, str)):
        spec_list = [_as_spec(specs)]
    else:
        spec_list = [_as_spec(s) for s in specs]
    for spec in spec_list:
        _engine_spec(spec)

    tasks = [
        (meta, graph, spec)
        for meta, graph in _normalise_instances(instances)
        for spec in spec_list
    ]
    if not tasks:
        return []
    if workers is None or workers <= 1:
        return [_simulate_task(task) for task in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        # Executor.map preserves submission order, giving parallel runs
        # the exact serial ordering.  A dead worker surfaces as the
        # typed WorkerCrashError naming the first unfinished task, not
        # as a raw BrokenProcessPool.
        from repro.api.runner import WorkerCrashError

        results = pool.map(_simulate_task, tasks)
        reports: list[SimReport] = []
        try:
            for report in results:
                reports.append(report)
        except BrokenProcessPool as error:
            raise WorkerCrashError(
                "simulate", len(reports), len(tasks), tasks[len(reports)][0]
            ) from error
        return reports


def adversarial_degradation(
    graph: nx.Graph,
    spec: SimulationSpec | str,
    *,
    meta: dict | None = None,
) -> dict:
    """Run a spec and its fault-free twin on the same seed; compare.

    The accountability report of the adversarial layer: the twin strips
    faults, churn, and Byzantine behaviors (and maps the async/
    adversarial models back to LOCAL), so the two runs differ *only* in
    what the adversary did.  The achieved solution is then measured
    against the graph the run actually ended on — churn is
    re-materialized deterministically from (plan, graph, seed) and
    replayed up to the round the report stopped at — giving:

    * ``coverage`` — the fraction of final vertices the chosen set
      dominates;
    * ``valid`` — whether it still dominates everything;
    * ``ratio`` — achieved size vs the exact optimum of the final
      graph (``None`` when the adversary forced an empty answer on a
      non-empty graph — no ratio flatters a run that chose nothing);
    * ``baseline_ratio`` / ``agree`` — the fault-free twin's ratio and
      whether the two chosen sets coincide (``agree`` is the S12
      fault-free-column check: with a trivial adversary it must be
      true).

    Returns ``{"report", "baseline", "degradation"}``.
    """
    from repro.analysis.domination import is_dominating_set
    from repro.graphs.kernel import kernel_for
    from repro.solvers.exact import domination_number

    spec = _as_spec(spec)
    report = simulate(graph, spec, meta=meta)
    baseline_spec = spec.with_(
        faults=None,
        churn=None,
        byzantine=None,
        model="local" if spec.model in ("async", "adversarial") else spec.model,
    )
    baseline = simulate(graph, baseline_spec, meta=meta)

    final_graph = churned_graph(graph, spec.churn, spec.seed, report.rounds)
    final_vertices = set(final_graph.nodes)
    chosen = tuple(
        v for v in sorted(report.chosen, key=repr) if v in final_vertices
    )
    n_final = final_graph.number_of_nodes()
    if n_final and chosen:
        kernel = kernel_for(final_graph)
        covered = kernel.union_closed_bits(chosen).bit_count()
    else:
        covered = 0
    optimum = domination_number(final_graph) if n_final else 0
    degradation = {
        "final_n": n_final,
        "final_m": final_graph.number_of_edges(),
        "size": len(chosen),
        "coverage": covered / n_final if n_final else 1.0,
        "valid": is_dominating_set(final_graph, chosen),
        "optimum": optimum,
        "ratio": (
            None
            if n_final and not chosen
            else measured_ratio(len(chosen), optimum)
        ),
        "baseline_size": len(baseline.chosen),
        "baseline_ratio": measured_ratio(
            len(baseline.chosen), domination_number(graph) if len(graph) else 0
        ),
        "agree": report.chosen == baseline.chosen,
    }
    return {"report": report, "baseline": baseline, "degradation": degradation}
