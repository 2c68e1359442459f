"""Shard planner and durable run manifest.

A sweep is a ``solve_many``/``simulate_many`` workload cut into
**instance-major shards**: shard ``k`` owns a contiguous slice of the
instance list, and every algorithm (or simulation spec) in the batch
rides along with it — exactly the batch runners' task shape, so the
concatenation of per-shard reports in shard order *is* the serial run's
report order.

The manifest is the run's durable root of trust.  It is written once,
atomically, when the run is planned, and carries everything needed to
re-execute any shard from a cold start:

* every instance as a :class:`~repro.graphs.kernel.KernelWire` CSR
  snapshot (base64 in JSON) plus its content digest — instances are
  embedded, never referenced, so resume works even if the generating
  code changed or the instance came from a mutated graph;
* the :class:`~repro.api.RunConfig` (solve) or the
  :class:`~repro.api.SimulationSpec` list (simulate) in their
  :func:`repro.io.to_dict` shapes;
* one **spec digest** per shard, hashing the shard's instance digests +
  algorithm list/specs + config.  A checkpoint that does not carry the
  matching digest is not a completion of this shard (schema drift,
  tampering, or a torn write) and the shard re-runs.

``schema`` is versioned; a manifest with an unknown schema is refused
rather than misread.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from repro.api.config import RunConfig
from repro.api.runner import _normalise_instances
from repro.api.simulation import SimulationSpec, _as_spec
from repro.graphs.kernel import kernel_for, wire_digest
from repro.io import (
    from_dict,
    kernel_wire_from_dict,
    kernel_wire_to_dict,
    to_dict,
    write_json_atomic,
)

MANIFEST_SCHEMA = 1
MANIFEST_NAME = "manifest.json"

KINDS = ("solve", "simulate")


class ManifestError(ValueError):
    """A run directory whose manifest is missing, torn, or incompatible."""


@dataclass(frozen=True)
class InstanceRef:
    """One embedded instance: metadata + wire snapshot + content digest."""

    meta: dict
    wire_dict: dict
    digest: str

    def to_dict(self) -> dict:
        return {"meta": self.meta, "digest": self.digest, "wire": self.wire_dict}

    @classmethod
    def from_dict(cls, data: dict) -> "InstanceRef":
        return cls(
            meta=dict(data.get("meta", {})),
            wire_dict=data["wire"],
            digest=data["digest"],
        )

    def materialise(self):
        """``(meta, instance)`` with the kernel pre-seeded from the wire.

        The instance is an ``nx.Graph`` below the packed threshold and a
        :class:`~repro.graphs.kernel.KernelView` at or above it — the
        same backend split every worker applies.
        """
        from repro.graphs.kernel import instance_from_wire

        return self.meta, instance_from_wire(kernel_wire_from_dict(self.wire_dict))


@dataclass(frozen=True)
class ShardSpec:
    """One unit of dispatch: a contiguous instance slice + the full
    algorithm/spec list, identified by a content digest."""

    id: str
    instances: tuple[InstanceRef, ...]
    digest: str

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "digest": self.digest,
            "instances": [ref.to_dict() for ref in self.instances],
        }


@dataclass(frozen=True)
class SweepManifest:
    """The planned run: shards plus the shared execution parameters."""

    kind: str
    shards: tuple[ShardSpec, ...]
    algorithms: tuple[str, ...] = ()
    config: RunConfig | None = None
    specs: tuple[SimulationSpec, ...] = ()
    seed: int = 0

    @property
    def shard_ids(self) -> list[str]:
        return [shard.id for shard in self.shards]

    def shard(self, shard_id: str) -> ShardSpec:
        for shard in self.shards:
            if shard.id == shard_id:
                return shard
        raise KeyError(shard_id)

    def to_dict(self) -> dict:
        data: dict = {
            "schema": MANIFEST_SCHEMA,
            "kind": self.kind,
            "seed": self.seed,
            "shards": [shard.to_dict() for shard in self.shards],
        }
        if self.kind == "solve":
            data["algorithms"] = list(self.algorithms)
            data["config"] = to_dict(self.config or RunConfig())
        else:
            data["specs"] = [to_dict(spec) for spec in self.specs]
        return data

    def write(self, run_dir: str | Path) -> Path:
        run_dir = Path(run_dir)
        run_dir.mkdir(parents=True, exist_ok=True)
        path = run_dir / MANIFEST_NAME
        write_json_atomic(path, self.to_dict())
        return path


def _shard_digest(
    kind: str,
    shard_id: str,
    instance_digests: Sequence[str],
    payload: dict,
) -> str:
    """Content hash of everything that determines a shard's reports."""
    canonical = json.dumps(
        {
            "kind": kind,
            "id": shard_id,
            "instances": list(instance_digests),
            **payload,
        },
        sort_keys=True,
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _instance_refs(instances: Iterable) -> list[InstanceRef]:
    refs = []
    for meta, graph in _normalise_instances(instances):
        wire = kernel_for(graph).packed().to_wire()
        refs.append(
            InstanceRef(
                meta=dict(meta),
                wire_dict=kernel_wire_to_dict(wire),
                digest=wire_digest(wire),
            )
        )
    return refs


def plan_sweep(
    instances: Iterable,
    *,
    algorithms: str | Sequence[str] | None = None,
    specs=None,
    config: RunConfig | None = None,
    shard_size: int = 1,
    seed: int = 0,
) -> SweepManifest:
    """Deterministically partition a batch workload into shards.

    ``instances`` accepts exactly what :func:`repro.api.solve_many`
    accepts (bare graphs or ``(meta, graph)`` pairs).  Pass
    ``algorithms`` (+ optional ``config``) for a solve sweep or
    ``specs`` for a simulate sweep — one of the two, not both.  Shards
    are instance-major: shard ``k`` is the ``k``-th contiguous slice of
    ``shard_size`` instances together with the *whole* algorithm/spec
    list, so merging checkpoints in shard order reproduces the serial
    batch order exactly.
    """
    if (algorithms is None) == (specs is None):
        raise ValueError("plan a sweep with either 'algorithms' or 'specs'")
    if shard_size < 1:
        raise ValueError("shard_size must be positive")
    refs = _instance_refs(instances)
    if not refs:
        raise ValueError("cannot plan a sweep over zero instances")

    if algorithms is not None:
        kind = "solve"
        algorithm_list = (
            (algorithms,) if isinstance(algorithms, str) else tuple(algorithms)
        )
        if not algorithm_list:
            raise ValueError("cannot plan a solve sweep with no algorithms")
        config = config or RunConfig()
        payload = {
            "algorithms": list(algorithm_list),
            "config": to_dict(config),
        }
        spec_list: tuple[SimulationSpec, ...] = ()
    else:
        kind = "simulate"
        if isinstance(specs, (SimulationSpec, str)):
            specs = [specs]
        spec_list = tuple(_as_spec(spec) for spec in specs)
        if not spec_list:
            raise ValueError("cannot plan a simulate sweep with no specs")
        algorithm_list = ()
        config = None
        payload = {"specs": [to_dict(spec) for spec in spec_list]}

    shards = []
    for start in range(0, len(refs), shard_size):
        chunk = tuple(refs[start : start + shard_size])
        shard_id = f"s{start // shard_size:05d}"
        digest = _shard_digest(
            kind, shard_id, [ref.digest for ref in chunk], payload
        )
        shards.append(ShardSpec(id=shard_id, instances=chunk, digest=digest))
    return SweepManifest(
        kind=kind,
        shards=tuple(shards),
        algorithms=algorithm_list,
        config=config,
        specs=spec_list,
        seed=seed,
    )


def load_manifest(run_dir: str | Path) -> SweepManifest:
    """Read and validate ``<run_dir>/manifest.json``.

    Raises :class:`ManifestError` on a missing file, torn JSON, or an
    unknown schema version — a run directory we cannot prove we
    understand is never silently re-executed.
    """
    path = Path(run_dir) / MANIFEST_NAME
    if not path.exists():
        raise ManifestError(f"no sweep manifest at {path}")
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        raise ManifestError(f"unreadable sweep manifest {path}: {error}") from error
    schema = data.get("schema")
    if schema != MANIFEST_SCHEMA:
        raise ManifestError(
            f"manifest schema {schema!r} at {path} is not supported "
            f"(this build reads schema {MANIFEST_SCHEMA})"
        )
    kind = data.get("kind")
    if kind not in KINDS:
        raise ManifestError(f"manifest {path} has unknown kind {kind!r}")
    shards = tuple(
        ShardSpec(
            id=entry["id"],
            digest=entry["digest"],
            instances=tuple(
                InstanceRef.from_dict(ref) for ref in entry["instances"]
            ),
        )
        for entry in data["shards"]
    )
    if kind == "solve":
        return SweepManifest(
            kind=kind,
            shards=shards,
            algorithms=tuple(data.get("algorithms", ())),
            config=from_dict(RunConfig, data.get("config", {})),
            seed=data.get("seed", 0),
        )
    return SweepManifest(
        kind=kind,
        shards=shards,
        specs=tuple(from_dict(SimulationSpec, s) for s in data.get("specs", ())),
        seed=data.get("seed", 0),
    )
