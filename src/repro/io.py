"""Instance and result persistence (JSON, no external deps).

Experiments should be replayable from artifacts: this module serialises
graphs, specs, reports, and sweep tables to a stable JSON layout.

* graphs — ``{"nodes": [...], "edges": [[u, v], ...], "meta": {...}}``
  with sorted nodes/edges so files are diff-able (hand-written, like
  the base64 :class:`~repro.graphs.kernel.KernelWire` codec);
* specs, plans and reports — one codec, :func:`to_dict` /
  :func:`from_dict`, for every dataclass the front doors exchange:
  ``RunConfig``, ``SimulationSpec``, ``FaultPlan``, ``ChurnPlan``,
  ``ByzantinePlan``, ``AlgorithmResult``, ``RunReport`` and
  ``SimReport``.  It reads the dataclass declarations: keys follow the
  field order, and per-field quirks are declared once as
  ``field(metadata=...)`` (see the codec section below).  File-level
  helpers: :func:`save_run_reports` / :func:`load_run_reports` and
  :func:`save_sim_reports` / :func:`load_sim_reports`;
  :func:`run_report_to_dict` / :func:`sim_report_to_dict` are the
  report encoders' named entry points;
* corpora — a directory of instances addressed by family/size/seed,
  written by :func:`write_corpus` and reloaded by :func:`read_corpus`.

Serialisation is fully deterministic (repr-sorted sets and vertex
tuples, no wall-clock fields outside ``RunReport.wall_time``), so
parallel sweeps dump byte-identically to serial ones.  Default-skipping
fields are left out when they hold their default, so a run without
adversarial features keeps its pre-adversarial bytes:
``SimulationSpec.delay`` (when 2), ``churn``/``byzantine`` (when unset
or trivial — a trivial plan therefore decodes as ``None``),
``FaultPlan.crash_schedule`` (when empty), and ``SimReport``'s
adversarial tallies (``delayed_messages``, ``churn_events``,
``churn_lost_messages``, ``suspicion``, ``failed``, ``timed_out``).

Decoding is strict, because the same decoder reads the serve wire:
missing keys take the dataclass default, unknown keys are rejected,
and every value is type-checked against its field's hint.
"""

from __future__ import annotations

import base64
import dataclasses
import functools
import json
import os
import tempfile
import types
import typing
from collections.abc import Callable, Hashable, Iterable, Mapping
from pathlib import Path
from typing import NamedTuple

import networkx as nx


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` so a crash can never leave a torn file.

    The text lands in a temporary file in the *same directory* (rename
    across filesystems is not atomic), is fsync'd, and is then renamed
    over the destination; the directory is fsync'd afterwards so the
    rename itself survives a power loss.  Readers therefore see either
    the complete old content or the complete new content — never a
    prefix.  This is the sanctioned write path for every checkpoint-like
    artifact (sweep manifests/checkpoints, serve result spills and job
    journals); ``repro lint`` RPR006 flags raw writes in those modules.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    dir_fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def write_json_atomic(path: str | Path, payload: object, *, indent: int = 1) -> None:
    """:func:`write_text_atomic` for a JSON payload (the common case)."""
    write_text_atomic(path, json.dumps(payload, indent=indent))


def graph_to_dict(graph: nx.Graph, meta: dict | None = None) -> dict:
    """JSON-ready dict for a graph (integer-labelled)."""
    return {
        "nodes": sorted(graph.nodes),
        "edges": sorted([sorted(e) for e in graph.edges]),
        "meta": dict(meta or {}),
    }


def graph_from_dict(data: dict) -> nx.Graph:
    """Inverse of :func:`graph_to_dict`."""
    graph = nx.Graph()
    graph.add_nodes_from(data["nodes"])
    graph.add_edges_from((u, v) for u, v in data["edges"])
    return graph


def save_graph(graph: nx.Graph, path: str | Path, meta: dict | None = None) -> None:
    Path(path).write_text(json.dumps(graph_to_dict(graph, meta), indent=1))


def load_graph(path: str | Path) -> nx.Graph:
    return graph_from_dict(json.loads(Path(path).read_text()))


#: Bytes of CSR blob encoded per base64 block.  A multiple of 3 so the
#: per-block encodings concatenate into one valid base64 string; sized
#: so encoding a million-node wire never materialises more than one
#: small transient buffer beyond the output.
_B64_CHUNK = 3 * (1 << 20)


def _b64_chunked(blob: bytes) -> str:
    """``base64.b64encode`` in bounded chunks (large-wire friendly)."""
    view = memoryview(blob)
    return "".join(
        base64.b64encode(view[start : start + _B64_CHUNK]).decode("ascii")
        for start in range(0, len(view), _B64_CHUNK)
    )


def kernel_wire_to_dict(wire: "KernelWire") -> dict:
    """JSON-ready dict for a :class:`repro.graphs.kernel.KernelWire`.

    The CSR byte arrays travel base64-encoded (chunk-encoded, so the
    transient working set stays bounded even for million-node wires);
    labels travel as plain JSON (tuple labels become lists and are
    re-tupled on the way back, like every other vertex round-trip in
    this module).
    """
    return {
        "labels": list(wire.labels),
        "indptr": _b64_chunked(wire.indptr),
        "indices": _b64_chunked(wire.indices),
    }


def kernel_wire_from_dict(data: dict) -> "KernelWire":
    """Inverse of :func:`kernel_wire_to_dict`."""
    from repro.graphs.kernel import KernelWire

    return KernelWire(
        labels=tuple(_vertex_from_json(label) for label in data["labels"]),
        indptr=base64.b64decode(data["indptr"]),
        indices=base64.b64decode(data["indices"]),
    )


# -- the spec/report codec ----------------------------------------------------
#
# Driven by ``dataclasses.fields`` and the resolved type hints.  The
# ``field(metadata=...)`` keys it reads:
#
# * ``"omit"`` — default-skipping: the key is left out when the value
#   equals the field default or is a trivial plan (``.is_trivial``);
# * ``"sort"`` — key function ordering a set/tuple (or a dict's set
#   values) before encoding, e.g. ``repr``;
# * ``"pairs"`` — a dict travels as ``[[key, value], ...]`` sorted by
#   ``repr(key)`` (JSON objects only carry string keys);
# * ``"jsonable"`` — dict entries whose value JSON cannot encode are
#   dropped;
# * ``"rows"`` — nested dataclasses travel as value rows in field order;
# * ``"grammar"`` — a text parser (``parse_faults`` & co.) the decoder
#   also accepts, so a plan field may be given as its CLI string.


class _Field(NamedTuple):
    name: str
    encode: Callable | None
    """``None`` when the value is already JSON-ready."""
    decode: Callable
    default: object
    """``dataclasses.MISSING`` for a required field."""
    omit: bool


_VERTEX = (typing.Hashable, Hashable)
_UNIONS = (types.UnionType, typing.Union)


def _expect(value: object, kinds: type | tuple, what: str) -> object:
    if not isinstance(value, kinds):
        raise ValueError(f"expected {what}, got {value!r}")
    return value


def _scalar_decoder(kind: type) -> Callable:
    accepted = (int, float) if kind is float else kind

    def decode(value: object) -> object:
        # bool is an int subclass; only bool fields take it.
        if not isinstance(value, accepted) or (
            isinstance(value, bool) and kind is not bool
        ):
            raise ValueError(f"expected {kind.__name__}, got {value!r}")
        return value

    return decode


def _vertex_from_json(value: object) -> object:
    """Re-hash a JSON-decoded vertex label: lists (JSON has no tuples)
    come back as tuples, recursively, so tuple-labelled graphs (e.g.
    ``nx.grid_2d_graph``) survive the round-trip."""
    if isinstance(value, list):
        return tuple(_vertex_from_json(item) for item in value)
    return value


def _vertex(value: object) -> object:
    vertex = _vertex_from_json(value)
    try:
        hash(vertex)  # repro: ignore[RPR003] hashability probe; the value is discarded
    except TypeError:
        raise ValueError(f"vertex labels must be hashable, got {value!r}") from None
    return vertex


def _encoder(hint: object, meta: Mapping) -> Callable | None:
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in _UNIONS:  # ``X | None``
        inner = _encoder(next(a for a in args if a is not type(None)), meta)
        if inner is None:
            return None
        return lambda v: None if v is None else inner(v)
    if dataclasses.is_dataclass(hint):
        return (lambda v: list(to_dict(v).values())) if meta.get("rows") else to_dict
    if hint is dict or origin is dict:
        value = _encoder(args[1], {"sort": meta.get("sort")}) if args else None
        jsonable = meta.get("jsonable")

        def items(d: dict) -> list:
            return [
                (k, v if value is None else value(v))
                for k, v in d.items()
                if not jsonable or _jsonable(v)
            ]

        if meta.get("pairs"):
            return lambda d: [[k, v] for k, v in sorted(items(d), key=_key_repr)]
        return lambda d: dict(items(d))
    if origin in (tuple, list, set):
        if origin is tuple and args[-1] is not Ellipsis:  # a fixed-shape row
            return list
        item = _encoder(args[0], {"rows": meta.get("rows")})
        sort = meta.get("sort")
        if item is None:
            return list if sort is None else (lambda v: sorted(v, key=sort))
        if sort is None:
            return lambda v: [item(x) for x in v]
        return lambda v: [item(x) for x in sorted(v, key=sort)]
    return None


def _key_repr(pair: tuple) -> str:
    return repr(pair[0])


def _same(value: object) -> object:
    return value


def _decoder(hint: object, meta: Mapping) -> Callable:
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in _UNIONS:  # ``X | None``
        inner = _decoder(next(a for a in args if a is not type(None)), meta)
        return lambda v: None if v is None else inner(v)
    if hint in _VERTEX:
        return _vertex
    if hint is object:
        return _same
    if hint in (str, int, float, bool):
        return _scalar_decoder(hint)
    if dataclasses.is_dataclass(hint):
        if meta.get("rows"):
            return lambda v: _from_row(hint, v)
        return lambda v: from_dict(hint, v)
    if hint is dict or origin is dict:
        key, value = (_decoder(args[0], {}), _decoder(args[1], {})) if args else (_same,) * 2
        if meta.get("pairs"):
            return lambda v: {
                key(k): value(x)
                for k, x in (
                    _row(pair, 2) for pair in _expect(v, (list, tuple), "a pair list")
                )
            }
        return lambda v: {
            key(k): value(x) for k, x in _expect(v, dict, "an object").items()
        }
    if origin is tuple and args[-1] is not Ellipsis:  # a fixed-shape row
        items = [_decoder(arg, {}) for arg in args]
        return lambda v: tuple(
            decode(x) for decode, x in zip(items, _row(v, len(items)))
        )
    if origin in (tuple, list, set):
        item = _decoder(args[0], {"rows": meta.get("rows")})
        return lambda v: origin(
            item(x) for x in _expect(v, (list, tuple), "a list")
        )
    raise TypeError(f"no codec for type {hint!r}")


def _row(value: object, length: int) -> tuple | list:
    _expect(value, (list, tuple), f"a {length}-entry list")
    if len(value) != length:
        raise ValueError(f"expected a {length}-entry list, got {value!r}")
    return value


def _from_row(cls: type, row: object) -> object:
    names = [field.name for field in _codec(cls)]
    return from_dict(cls, dict(zip(names, _row(row, len(names)))))


@functools.cache
def _codec(cls: type) -> tuple[_Field, ...]:
    """Per-field codecs of ``cls``; type hints are resolved once per class."""
    hints = typing.get_type_hints(cls)
    codec = []
    for field in dataclasses.fields(cls):
        meta = field.metadata
        hint = hints[field.name]
        decode = _decoder(hint, meta)
        grammar = meta.get("grammar")
        if grammar is not None:
            decode = functools.partial(_parse_or_decode, grammar, decode)
        default = (
            field.default_factory()
            if field.default_factory is not dataclasses.MISSING
            else field.default
        )
        codec.append(
            _Field(field.name, _encoder(hint, meta), decode, default, bool(meta.get("omit")))
        )
    return tuple(codec)


def _parse_or_decode(grammar: Callable, decode: Callable, value: object) -> object:
    return grammar(value) if isinstance(value, str) else decode(value)


def to_dict(obj: object) -> dict:
    """JSON-ready dict for a spec, plan or report dataclass.

    Keys follow the field order; sets and vertex tuples are sorted as
    their fields declare, so equal objects serialise to equal bytes.
    """
    data = {}
    for name, encode, _, default, omit in _codec(type(obj)):
        value = getattr(obj, name)
        if omit and (value == default or getattr(value, "is_trivial", False)):
            continue
        data[name] = value if encode is None else encode(value)
    return data


def from_dict(cls: type, data: object) -> object:
    """Inverse of :func:`to_dict`: build a ``cls`` from its JSON form.

    Missing keys take the dataclass default; unknown keys are rejected;
    every value is type-checked against its field's hint (``int``
    rejects ``bool``, ``float`` accepts ``int``); vertex-typed values
    re-tuple JSON lists.  Raises ``ValueError`` naming the offending
    field.
    """
    _expect(data, dict, f"a {cls.__name__} object")
    codec = _codec(cls)
    unknown = data.keys() - {field.name for field in codec}
    if unknown:
        raise ValueError(
            f"unknown {cls.__name__} field(s) {sorted(unknown, key=repr)}"
        )
    values = {}
    for field in codec:
        if field.name in data:
            try:
                values[field.name] = field.decode(data[field.name])
            except ValueError as error:
                raise ValueError(f"{field.name}: {error}") from None
        elif field.default is dataclasses.MISSING:
            raise ValueError(f"{cls.__name__} needs {field.name!r}")
    return cls(**values)


def run_report_to_dict(report: "RunReport") -> dict:
    """JSON-ready dict for a :class:`repro.api.RunReport`."""
    return to_dict(report)


def sim_report_to_dict(report: "SimReport") -> dict:
    """JSON-ready dict for a :class:`repro.api.SimReport`.

    ``outputs`` is a vertex-sorted pair list (JSON objects cannot carry
    non-string keys); non-JSON-able outputs are dropped, like result
    metadata.  The layout contains no wall-clock data, so equal runs
    serialise to equal bytes.
    """
    return to_dict(report)


def save_sim_reports(reports: "Iterable[SimReport]", path: str | Path) -> None:
    """Persist a batch of simulation reports (a `simulate_many` sweep)."""
    payload = [sim_report_to_dict(r) for r in reports]
    Path(path).write_text(json.dumps(payload, indent=1))


def load_sim_reports(path: str | Path) -> "list[SimReport]":
    """Inverse of :func:`save_sim_reports`."""
    from repro.api.simulation import SimReport

    return [from_dict(SimReport, d) for d in json.loads(Path(path).read_text())]


def save_run_reports(reports: "Iterable[RunReport]", path: str | Path) -> None:
    """Persist a batch of run reports (e.g. a `solve_many` sweep)."""
    payload = [run_report_to_dict(r) for r in reports]
    Path(path).write_text(json.dumps(payload, indent=1))


def load_run_reports(path: str | Path) -> "list[RunReport]":
    """Inverse of :func:`save_run_reports`."""
    from repro.api.config import RunReport

    return [from_dict(RunReport, d) for d in json.loads(Path(path).read_text())]


def counted_payload(key: str, items: list, **extra: object) -> dict:
    """The shared counted-list JSON envelope: ``{key: items, "count": n}``.

    One shape for every "list of things plus how many" payload, so
    consumers parse them uniformly: ``repro lint --json`` reports its
    findings with it, and the serve ``GET /stats`` endpoint reports the
    observable job queue with it (plus ``capacity`` as an extra).
    """
    return {key: list(items), "count": len(items), **extra}


def _jsonable(value: object) -> bool:
    try:
        json.dumps(value)
        return True
    except (TypeError, ValueError):
        return False


def save_rows(rows: list[dict], path: str | Path) -> None:
    """Persist a sweep table (list of uniform dicts)."""
    Path(path).write_text(json.dumps(rows, indent=1, default=str))


def load_rows(path: str | Path) -> list[dict]:
    return json.loads(Path(path).read_text())


def write_corpus(
    directory: str | Path,
    family_names: Iterable[str],
    sizes: Iterable[int],
    seeds: Iterable[int] = (0,),
) -> list[Path]:
    """Materialise a corpus of instances on disk; returns written paths."""
    from repro.graphs.families import get_family

    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    written = []
    for name in family_names:
        family = get_family(name)
        for size in sizes:
            for seed in seeds:
                graph = family.make(size, seed)
                meta = {"family": name, "size": size, "seed": seed}
                path = root / f"{name}_n{size}_s{seed}.json"
                save_graph(graph, path, meta)
                written.append(path)
    return written


def read_corpus(directory: str | Path) -> list[tuple[dict, nx.Graph]]:
    """Load every instance of a corpus as (meta, graph) pairs."""
    out = []
    for path in sorted(Path(directory).glob("*.json")):
        data = json.loads(path.read_text())
        out.append((data.get("meta", {}), graph_from_dict(data)))
    return out
