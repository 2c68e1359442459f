"""Wire schema: parse a job-submission payload into an executable plan.

The schema reuses the repo's one spec codec: ``config`` and simulate
specs are decoded by :func:`repro.io.from_dict` (the
:func:`repro.io.to_dict` shape of ``RunConfig``/``SimulationSpec``),
flat solve options go through the CLI's
:func:`repro.api.config.run_config_from_options`, and inline graphs
are :func:`repro.io.graph_from_dict`'s shape — so the serve front door,
the batch CLI and the sweep manifests accept the same vocabulary and
cannot drift.  The decoder is strict: every value is type-checked
against its dataclass field (``"seed": "abc"`` or ``"budget": true``
is refused), unknown spec keys are rejected rather than ignored, and
the plan fields ``faults``/``churn``/``byzantine`` take either their
object form or the CLI's text grammar (``"drop=0.1,crash=0+4"``).

A solve job::

    {"kind": "solve",
     "instances": [{"family": "fan", "size": 20, "seed": 0},
                   {"graph": {"nodes": [...], "edges": [...]}}],
     "algorithms": ["d2", "greedy"],
     "validate": "ratio", "solver": "bnb",      # flat CLI-style options
     "timeout": 30.0}

A simulate job::

    {"kind": "simulate",
     "instances": [{"family": "tree", "size": 15}],
     "specs": [{"algorithm": "d2", "model": "congest", "budget": 8,
                "faults": "drop=0.1,crash=0+4"}]}

Every validation failure raises :class:`SpecError`, which the HTTP
layer answers with ``400`` and a JSON error body — capability checks
(unknown algorithm, unsupported mode, no engine protocol) run here, at
submission time, so a bad spec never occupies a queue slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.api.config import RunConfig, run_config_from_options
from repro.api.registry import (
    UnknownAlgorithmError,
    UnsupportedModeError,
    get_algorithm,
)
from repro.api.simulation import SimulationSpec
from repro.graphs.families import FAMILIES
from repro.graphs.kernel import KernelWire, kernel_for
from repro.io import from_dict, graph_from_dict
from repro.serve.instances import InstanceCache, wire_digest

KINDS = ("solve", "simulate")

#: Flat CLI-style config fields accepted at the top level of a solve job.
FLAT_CONFIG_FIELDS = ("simulate", "validate", "solver", "opt_cache", "seed")


class SpecError(ValueError):
    """A job payload the schema rejects (HTTP 400)."""


class FamilyRef(NamedTuple):
    """A generated instance: resolved through the resident cache."""

    family: str
    size: int
    seed: int

    def resolve(self, cache: InstanceCache):
        return cache.resolve_family(self.family, self.size, self.seed)


class WireRef(NamedTuple):
    """An inline graph, shipped as a KernelWire CSR snapshot."""

    digest: str
    wire: KernelWire
    meta: dict

    def resolve(self, cache: InstanceCache):
        return cache.resolve_wire(self.digest, self.wire, self.meta)


@dataclass(frozen=True)
class ParsedJob:
    """A validated, executable job plan (what the worker pool runs)."""

    kind: str
    instances: tuple
    """``FamilyRef``/``WireRef`` entries, in submission order."""
    algorithms: tuple[str, ...] = ()
    """Solve jobs: registered algorithm names, in submission order."""
    config: RunConfig | None = None
    """Solve jobs: the run configuration."""
    specs: tuple[SimulationSpec, ...] = ()
    """Simulate jobs: engine specs, in submission order."""
    timeout: float | None = None
    """Per-job execution budget in seconds (``None``: service default)."""

    @property
    def task_count(self) -> int:
        """Instance-major unit count (the cancellation granularity)."""
        per_instance = len(self.algorithms) if self.kind == "solve" else len(self.specs)
        return len(self.instances) * per_instance


def parse_job(payload: object) -> ParsedJob:
    """Validate a submission payload; raises :class:`SpecError`."""
    if not isinstance(payload, dict):
        raise SpecError("job spec must be a JSON object")
    kind = payload.get("kind", "solve")
    if kind not in KINDS:
        raise SpecError(f"unknown job kind {kind!r}; choose from {KINDS}")
    instances = _parse_instances(payload.get("instances"))
    timeout = _parse_timeout(payload.get("timeout"))
    if kind == "solve":
        algorithms = _parse_algorithms(payload.get("algorithms"))
        config = _parse_run_config(payload)
        for name in algorithms:
            _capability(lambda n=name: get_algorithm(n).check_mode(config.mode))
        return ParsedJob(
            kind=kind,
            instances=instances,
            algorithms=algorithms,
            config=config,
            timeout=timeout,
        )
    raw_specs = payload.get("specs")
    if raw_specs is None:
        raw_specs = payload.get("spec")
    specs = _parse_sim_specs(raw_specs)
    for spec in specs:
        _capability(lambda s=spec: get_algorithm(s.algorithm).check_engine())
    return ParsedJob(kind=kind, instances=instances, specs=specs, timeout=timeout)


def _capability(check) -> None:
    try:
        check()
    except (UnknownAlgorithmError, UnsupportedModeError) as error:
        raise SpecError(str(error)) from error


def _parse_timeout(value: object) -> float | None:
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value < 0:
        raise SpecError(f"timeout must be a non-negative number, got {value!r}")
    return float(value)


def _parse_instances(raw: object) -> tuple:
    if not isinstance(raw, list) or not raw:
        raise SpecError("'instances' must be a non-empty list")
    return tuple(_parse_instance(spec) for spec in raw)


def _parse_instance(spec: object):
    if not isinstance(spec, dict):
        raise SpecError(f"instance spec must be an object, got {spec!r}")
    if "family" in spec:
        family = spec["family"]
        if not isinstance(family, str) or family not in FAMILIES:
            raise SpecError(
                f"unknown family {family!r}; choose from {sorted(FAMILIES)}"
            )
        size = spec.get("size")
        if isinstance(size, bool) or not isinstance(size, int) or size < 1:
            raise SpecError(
                f"family instance needs an integer 'size' >= 1, got {size!r}"
            )
        seed = spec.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise SpecError(f"instance 'seed' must be an integer, got {seed!r}")
        return FamilyRef(family, size, seed)
    if "graph" in spec:
        meta = spec.get("meta", {})
        if not isinstance(meta, dict):
            raise SpecError(f"instance 'meta' must be an object, got {meta!r}")
        try:
            graph = graph_from_dict(spec["graph"])
            wire = kernel_for(graph).packed().to_wire()
        except (KeyError, TypeError, ValueError) as error:
            raise SpecError(f"invalid inline graph: {error}") from error
        return WireRef(wire_digest(wire), wire, meta)
    raise SpecError(
        "instance spec needs 'family' (+ size/seed) or an inline 'graph'"
    )


def _parse_algorithms(raw: object) -> tuple[str, ...]:
    if isinstance(raw, str):
        raw = [raw]
    if not isinstance(raw, list) or not raw:
        raise SpecError("'algorithms' must be a name or a non-empty list of names")
    for name in raw:
        if not isinstance(name, str):
            raise SpecError(f"algorithm names must be strings, got {name!r}")
        _capability(lambda n=name: get_algorithm(n))
    return tuple(raw)


def _parse_run_config(payload: dict) -> RunConfig:
    """``config`` in the :func:`repro.io.to_dict` shape, or flat CLI options.

    The flat form mirrors `repro run`/`compare`: ``simulate`` flips the
    mode, and ``validate`` defaults to ``"ratio"`` like the CLI front
    doors (the dict form keeps the dataclass's ``"valid"`` default).
    Both forms go through the typed decoder.
    """
    raw = payload.get("config")
    try:
        if raw is not None:
            return from_dict(RunConfig, raw)
        options = {key: payload[key] for key in FLAT_CONFIG_FIELDS if key in payload}
        return run_config_from_options(**options)
    except (TypeError, ValueError) as error:
        raise SpecError(f"invalid run config: {error}") from error


def _parse_sim_specs(raw: object) -> tuple[SimulationSpec, ...]:
    if isinstance(raw, dict):
        raw = [raw]
    if not isinstance(raw, list) or not raw:
        raise SpecError("simulate jobs need 'specs': a non-empty list of spec objects")
    try:
        return tuple(from_dict(SimulationSpec, spec) for spec in raw)
    except (TypeError, ValueError) as error:
        raise SpecError(f"invalid simulate spec: {error}") from error
