"""Run configuration and run reports: the currency of :mod:`repro.api`.

A :class:`RunConfig` says *how* to run an algorithm (radius policy,
execution mode, validation level, exact-solver backend); a
:class:`RunReport` says *what happened* (the raw
:class:`~repro.core.results.AlgorithmResult` plus instance metadata,
wall time, validity, and the measured approximation ratio).  Both are
plain picklable dataclasses so :func:`repro.api.solve_many` can ship
them across process boundaries, and both round-trip through JSON via
:func:`repro.io.to_dict` / :func:`repro.io.from_dict`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping

from repro.core.radii import RadiusPolicy
from repro.core.results import AlgorithmResult
from repro.graphs.kernel import cached_kernel
from repro.io import from_dict

MODES = ("fast", "simulate")
VALIDATION_LEVELS = ("none", "valid", "ratio")
SOLVER_BACKENDS = ("milp", "bnb")


@dataclass(frozen=True)
class RunConfig:
    """How to execute one algorithm run.

    * ``policy`` — the :class:`RadiusPolicy` for policy-aware algorithms
      (``None`` means the algorithm's registered default);
    * ``mode`` — ``"fast"`` (centralized computation of the same set) or
      ``"simulate"`` (true per-node message-passing execution); the
      registry rejects modes an algorithm does not support;
    * ``validate`` — ``"none"`` (trust the algorithm), ``"valid"``
      (check the output is a dominating set / vertex cover), or
      ``"ratio"`` (also solve the instance exactly and measure
      |ALG|/|OPT|);
    * ``solver`` — exact backend used by ``validate="ratio"`` and the
      ``exact`` algorithm: ``"milp"`` (scipy/HiGHS) or ``"bnb"``
      (pure-Python branch and bound).  MDS only — MVC optima always use
      the MILP backend;
    * ``opt_cache`` — serve ``validate="ratio"`` optima from the
      per-instance cache (:mod:`repro.solvers.opt_cache`), so a batch
      solves each instance exactly once per backend.  All backends are
      deterministic, so disabling the cache (the CLI's
      ``--no-opt-cache``) never changes a reported number — it only
      re-solves;
    * ``seed`` — recorded in reports for provenance (instance generation
      happens upstream; the algorithms themselves are deterministic).
    """

    policy: RadiusPolicy | None = None
    mode: str = "fast"
    validate: str = "valid"
    solver: str = "milp"
    opt_cache: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; choose from {MODES}")
        if self.validate not in VALIDATION_LEVELS:
            raise ValueError(
                f"unknown validation level {self.validate!r}; choose from {VALIDATION_LEVELS}"
            )
        if self.solver not in SOLVER_BACKENDS:
            raise ValueError(
                f"unknown solver backend {self.solver!r}; choose from {SOLVER_BACKENDS}"
            )

    def with_(self, **changes: object) -> "RunConfig":
        """A copy with the given fields replaced (frozen-dataclass update)."""
        return replace(self, **changes)


@dataclass
class RunReport:
    """Everything one :func:`repro.api.solve` call produced.

    ``instance`` always carries ``n`` and ``m``; callers that know more
    (family, size, seed — e.g. :func:`repro.experiments.workloads.run_workload`)
    merge it in.  ``valid``/``optimum_size``/``ratio`` are ``None`` when
    the configured validation level did not compute them.
    """

    algorithm: str
    problem: str
    instance: dict = field(default_factory=dict, metadata={"jsonable": True})
    result: AlgorithmResult | None = None
    config: RunConfig = field(default_factory=RunConfig)
    wall_time: float = 0.0
    valid: bool | None = None
    optimum_size: int | None = None
    ratio: float | None = None

    @property
    def size(self) -> int:
        return self.result.size if self.result is not None else 0

    @property
    def rounds(self) -> int:
        return self.result.rounds if self.result is not None else 0

    @property
    def solution(self) -> set:
        return self.result.solution if self.result is not None else set()


def run_config_from_options(*, simulate: bool = False, **options: object) -> RunConfig:
    """Build a :class:`RunConfig` from flat front-door options.

    The single construction point shared by the CLI (``repro run`` /
    ``compare`` flags) and the serve request parser
    (:mod:`repro.serve.schema`), so the two entry points cannot drift:
    ``simulate`` maps to the execution mode, and ``options`` are the
    other :class:`RunConfig` fields with the front doors'
    ``validate="ratio"`` default.  Values are type-checked by
    :func:`repro.io.from_dict`; anything ill-typed raises ``ValueError``.
    """
    if not isinstance(simulate, bool):
        raise ValueError(f"'simulate' must be a boolean, got {simulate!r}")
    mode = "simulate" if simulate else "fast"
    return from_dict(RunConfig, {"validate": "ratio", **options, "mode": mode})


def _vertex_label(label: str):
    """CLI vertex-label convention: digits mean int labels."""
    return int(label) if label.lstrip("-").isdigit() else label


def _round_suffix(text: str, what: str) -> tuple[str, int | None]:
    """Split a trailing ``@<round>`` off ``text``; round must parse."""
    body, at, round_text = text.partition("@")
    if not at:
        return body, None
    if not round_text.isdigit():
        raise ValueError(
            f"malformed {what} {text!r}: the part after '@' must be a "
            f"non-negative integer round, got {round_text!r}"
        )
    return body, int(round_text)


def parse_faults(text: str | None) -> "FaultPlan | None":
    """Parse a fault-plan string: ``drop=<p>`` and/or ``crash=<v>+<v>``.

    The one parser behind the CLI ``--faults`` flag and the serve wire
    schema's string-form ``"faults"`` field (``"drop=0.2,crash=0+4"``),
    so the accepted grammar cannot drift between entry points.  A crash
    entry may carry a round suffix — ``crash=4@3`` crashes vertex 4 at
    the start of round 3, mid-run (``@0`` is the same as no suffix: the
    node never starts).  ``None``/empty input means no fault plan.
    Raises ``ValueError`` with the offending fragment on malformed
    specs.
    """
    # Imported lazily: config is a leaf module and the engine pulls in
    # the whole local_model package.
    from repro.local_model.engine import FaultPlan

    if text is None:
        return None
    drop = 0.0
    crashed: list = []
    schedule: list = []
    for part in filter(None, (p.strip() for p in text.split(","))):
        key, _, value = part.partition("=")
        if key == "drop":
            try:
                drop = float(value)
            except ValueError:
                raise ValueError(
                    f"malformed drop probability {value!r}: expected a float "
                    f"in [0, 1], as in drop=0.2"
                ) from None
        elif key == "crash":
            for entry in filter(None, value.split("+")):
                label, when = _round_suffix(entry, "crash entry")
                if not label:
                    raise ValueError(
                        f"malformed crash entry {entry!r}: missing the vertex "
                        f"before '@'"
                    )
                vertex = _vertex_label(label)
                if when is None or when == 0:
                    crashed.append(vertex)
                else:
                    schedule.append((vertex, when))
        else:
            raise ValueError(
                f"unknown fault knob {key!r}; use drop=<p> and/or "
                f"crash=<v>+<v>[@<round>]"
            )
    return FaultPlan(
        drop_probability=drop,
        crashed=tuple(crashed),
        crash_schedule=tuple(schedule),
    )


def parse_churn(text: str | None) -> "ChurnPlan | None":
    """Parse a churn-plan string into a :class:`ChurnPlan`.

    Comma-separated parts, shared verbatim by the CLI ``--churn`` flag
    and the serve schema's string-form ``"churn"`` field:

    * ``rate=<p>`` / ``until=<r>`` — the seeded random edge-flip
      process: each round ``1..r`` flips one edge with probability
      ``p``;
    * ``add:<u>-<v>@<round>`` / ``del:<u>-<v>@<round>`` — explicit edge
      events;
    * ``join:<v>@<round>`` or ``join:<v>-<anchor>@<round>`` — a vertex
      joins (isolated, or attached to ``anchor``);
    * ``leave:<v>@<round>`` — a vertex departs with its edges.

    Example: ``"rate=0.1,until=20,del:0-1@4,join:9-4@3"``.  Raises
    ``ValueError`` with the offending fragment on malformed specs.
    """
    from repro.local_model.adversary import ChurnEvent, ChurnPlan

    if text is None:
        return None
    rate = 0.0
    until = 0
    events: list = []
    for part in filter(None, (p.strip() for p in text.split(","))):
        if part.startswith(("add:", "del:", "join:", "leave:")):
            kind_word, _, spec = part.partition(":")
            body, when = _round_suffix(spec, f"{kind_word} event")
            if when is None:
                raise ValueError(
                    f"malformed churn event {part!r}: every event needs an "
                    f"@<round> suffix, as in del:0-1@4"
                )
            if kind_word in ("add", "del"):
                u_text, dash, v_text = body.partition("-")
                if not dash or not u_text or not v_text:
                    raise ValueError(
                        f"malformed churn event {part!r}: {kind_word} takes "
                        f"two '-'-separated endpoints, as in {kind_word}:0-1@4"
                    )
                kind = "add_edge" if kind_word == "add" else "del_edge"
                events.append(
                    ChurnEvent(
                        when, kind, _vertex_label(u_text), _vertex_label(v_text)
                    )
                )
            elif kind_word == "join":
                u_text, dash, v_text = body.partition("-")
                if not u_text:
                    raise ValueError(
                        f"malformed churn event {part!r}: join takes "
                        f"<v>[@-<anchor>], as in join:9-4@3"
                    )
                anchor = _vertex_label(v_text) if dash and v_text else None
                events.append(ChurnEvent(when, "join", _vertex_label(u_text), anchor))
            else:  # leave
                if not body:
                    raise ValueError(
                        f"malformed churn event {part!r}: leave takes one "
                        f"vertex, as in leave:2@5"
                    )
                events.append(ChurnEvent(when, "leave", _vertex_label(body)))
            continue
        key, eq, value = part.partition("=")
        if not eq or key not in ("rate", "until"):
            raise ValueError(
                f"unknown churn knob {part!r}; use rate=<p>, until=<r>, or "
                f"events add:/del:/join:/leave: with an @<round> suffix"
            )
        try:
            if key == "rate":
                rate = float(value)
            else:
                until = int(value)
        except ValueError:
            raise ValueError(
                f"malformed churn knob {part!r}: {key} takes a number"
            ) from None
    return ChurnPlan(events=tuple(events), rate=rate, until=until)


def parse_byzantine(text: str | None) -> "ByzantinePlan | None":
    """Parse a Byzantine-plan string into a :class:`ByzantinePlan`.

    Comma-separated ``<behavior>=<v>+<v>`` parts, shared by the CLI
    ``--byzantine`` flag and the serve schema — e.g.
    ``"babble=0+3,lie=7"``.  Behaviors come from
    :data:`~repro.local_model.adversary.BYZANTINE_BEHAVIORS`; an unknown
    one raises ``ValueError`` listing the valid choices.
    """
    from repro.local_model.adversary import BYZANTINE_BEHAVIORS, ByzantinePlan

    if text is None:
        return None
    behaviors: list = []
    for part in filter(None, (p.strip() for p in text.split(","))):
        behavior, eq, value = part.partition("=")
        if not eq or behavior not in BYZANTINE_BEHAVIORS:
            raise ValueError(
                f"unknown byzantine behavior {behavior!r}; choose from "
                f"{BYZANTINE_BEHAVIORS}, as in babble=0+3"
            )
        labels = [label for label in value.split("+") if label]
        if not labels:
            raise ValueError(
                f"malformed byzantine entry {part!r}: {behavior} needs at "
                f"least one vertex, as in {behavior}=0+3"
            )
        for label in labels:
            behaviors.append((_vertex_label(label), behavior))
    return ByzantinePlan(behaviors=tuple(behaviors))


def measured_ratio(size: int, optimum_size: int) -> float:
    """|ALG| / |OPT| with the shared empty-optimum convention (cf.
    :class:`repro.analysis.ratio.RatioReport`): 1.0 when both are
    empty, infinite when only the optimum is."""
    if optimum_size == 0:
        return 1.0 if size == 0 else float("inf")
    return size / optimum_size


def instance_meta(graph, extra: Mapping | None = None) -> dict:
    """The standard instance-metadata dict (``n``, ``m``, caller extras).

    ``m`` is the cached edge count of the graph's kernel when one is
    already built (validation builds it), else networkx's degree sum;
    no kernel is built just to count edges.
    """
    kernel = cached_kernel(graph)
    m = graph.number_of_edges() if kernel is None else kernel.packed().edge_count()
    meta = {"n": graph.number_of_nodes(), "m": m}
    if extra:
        meta.update(extra)
    return meta
