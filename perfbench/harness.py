"""Run one workload: set-up, timed passes, checks, metrics, result line.

A *pass* runs every unit of the workload's list once, in order.  The
timed phase repeats passes for about ``--seconds`` of unit time (at
least three), so a run always covers the whole list and its output digest
and ``ratio_mean`` depend on the seed alone.  Workloads whose users
start from fresh objects rebuild their inputs before every pass after
the first, untimed; each rebuild is one more ``setup_s`` sample.

A unit's latency is its fastest pass.  On a shared host a neighbour
only ever adds time, in bursts of seconds to minutes, and the fastest
of several passes spread over the run is the sample least touched by
them; ``units_per_s`` and the percentiles are taken over these
per-unit latencies.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
passes twice, untraced (for ``--seconds / 2``) and then traced (the
same number of passes), and reports the per-layer metrics of the traced
half, per pass, with the tracing overhead; both halves must produce the
same output digest.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import statistics
import subprocess
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.api import algorithm_names

from perfbench.spans import Tracer, clock, instrument
from perfbench.workloads import ROOT, WORKLOADS, Workload, canonical

OUT_DIR = ROOT / ".perfbench"
SETUP_REPS = {"full": (5, 0.5), "tiny": (1, 0.0)}
"""Set-up samples taken before timing: at least this many, and at
least this many seconds of them."""
PASS_SETUP_S = {"full": 0.25, "tiny": 0.0}
"""Seconds of set-up samples before each later pass of a workload that
starts every pass from fresh inputs.  Spread over the run like the
passes, they keep a set-up of milliseconds from being measured in one
short, possibly noisy, stretch."""
MIN_PASSES = {"full": 3, "tiny": 1}
"""Timed passes of an untraced run, at the least: a unit's latency is
the fastest of them."""

END_TO_END = {
    "setup_s": "s",
    "units_per_s": "1/s",
    "unit_p50_ms": "ms",
    "unit_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "ratio_mean": "ratio",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Passes:
    units: list = field(default_factory=list)
    """The first pass's units (their graphs feed the checks)."""
    outputs: list = field(default_factory=list)
    """The first pass, per unit: the unit's report dicts, or None if it raised."""
    hashes: list = field(default_factory=list)
    """Per pass, per unit: sha256 of the canonical output.  Later passes
    keep only these, so their reports do not pile up on the heap."""
    errors: list = field(default_factory=list)
    times: list = field(default_factory=list)
    """Per pass, per unit: seconds."""
    peak_rss_mb: float = 0.0
    """Peak RSS once the first timed pass is done: later passes repeat
    its work, and how much the heap fragments over a varying number of
    them says nothing about the program."""

    @property
    def wall(self) -> float:
        """Unit seconds of every pass."""
        return sum(map(sum, self.times))

    @property
    def samples(self) -> int:
        return sum(map(len, self.times))

    @property
    def best(self) -> list:
        """Per unit: its fastest pass, in seconds."""
        return [min(unit) for unit in zip(*self.times)]

    @property
    def units_per_s(self) -> float:
        return len(self.units) / sum(self.best)

    @property
    def digest(self) -> str:
        """The workload's output digest: over the first pass's outputs."""
        return _sha256("\n".join(self.hashes[0]))


@contextmanager
def collected_heap():
    """Collect, then freeze what survives for the duration.

    CPython's collector runs after a count of allocations, so from a
    collected heap its pauses land on the same units in every run at one
    seed; frozen objects (the benchmark's own: earlier inputs, kept
    reports) are not scanned by those pauses, so what the benchmark
    keeps does not tax the program's timings.
    """
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def prepare(workload: Workload) -> float:
    """Set-up, timed from a collected heap."""
    with collected_heap():
        return workload.prepare()


def set_up(workload: Workload, least: int, seconds: float) -> list[float]:
    """At least ``least`` set-ups and ``seconds`` of them; the inputs of
    the last one stay."""
    samples = []
    while len(samples) < least or sum(samples) < seconds:
        samples.append(prepare(workload))
    return samples


def run_passes(workload: Workload, setups: list, *, seconds: float | None = None,
               least: int = 1, count: int | None = None,
               tracer: Tracer | None = None) -> Passes:
    """``count`` passes, or at least ``least`` and then for about
    ``seconds`` of unit time: the next pass starts while the time left
    exceeds half a pass.  Each pass runs from a collected heap.
    """
    done = Passes()
    while True:
        if workload.used and workload.fresh_per_pass:
            setups += set_up(workload, 1, PASS_SETUP_S[workload.scale])
        units = workload.units()
        done.units = done.units or units
        handle = instrument(tracer) if tracer is not None and workload.in_process else None
        outputs, errors, times = [], [], []
        done.times.append(times)
        try:
            with collected_heap():
                for unit in units:
                    start = clock()
                    span = tracer.begin("unit") if tracer is not None else None
                    try:
                        outputs.append(unit.run())
                        errors.append(None)
                    except Exception as error:  # noqa: BLE001 - a failed unit is a result
                        outputs.append(None)
                        errors.append(f"{unit.label}: {type(error).__name__}: {error}")
                    if span is not None:
                        tracer.end(span)
                    times.append(clock() - start)
        finally:
            if handle is not None:
                handle.restore()
        workload.used = True
        done.outputs = done.outputs or outputs
        done.hashes.append([_sha256(canonical(reports)) for reports in outputs])
        done.errors.append(errors)
        if count is not None and len(done.hashes) >= count:
            return done
        passes = len(done.times)
        if passes == 1:
            done.peak_rss_mb = workload.peak_rss_mb()
        if count is None and passes >= least and done.wall * (1 + 0.5 / passes) >= seconds:
            return done


def warm_up(name: str, seed: int) -> None:
    """One untimed pass at the smoke-test size, so lazy imports and
    first-call initialisation land before the timed passes."""
    workload = WORKLOADS[name](seed, "tiny")
    if workload.in_process:
        workload.prepare()
        run_passes(workload, [], count=1)
    workload.close()


def failures(workload: Workload, done: Passes) -> list[str]:
    """One message per failing unit, per pass it ran in.

    A unit fails if it raised, if its output fails the workload's
    checks, or if a later pass produced different output than pass 0.
    """
    verdicts = workload.check(done.units, done.outputs)
    reference = done.hashes[0]
    problems = []
    for number, (hashes, errors) in enumerate(zip(done.hashes, done.errors)):
        for index, (output_hash, error) in enumerate(zip(hashes, errors)):
            if error is not None:
                problems.append(error)
            elif verdicts[index]:
                problems.append("; ".join(verdicts[index]))
            elif output_hash != reference[index]:
                problems.append(f"{done.units[index].label}: pass {number} differs from pass 0")
    return problems


def percentile_ms(seconds: list, q: int) -> float:
    if len(seconds) < 2:
        return seconds[0] * 1e3
    return statistics.quantiles(seconds, n=100, method="inclusive")[q - 1] * 1e3


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def envelope(workload: Workload, done: Passes) -> dict:
    import networkx
    import numpy
    import scipy

    return {
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "workload": workload.name,
        "seed": workload.seed,
        "scale": workload.scale,
        "units_per_pass": len(done.units),
    }


def _merge(*summaries: dict) -> dict:
    table: dict[str, dict] = {}
    for summary in summaries:
        for name, row in summary.items():
            into = table.setdefault(name, {"busy": 0.0, "self": 0.0, "calls": 0})
            for key in into:
                into[key] += row[key]
    return table


def _engine_totals(outputs: list) -> dict:
    """Engine counts of one pass, from its simulation reports."""
    totals = dict.fromkeys(("rounds", "messages", "delayed", "dropped", "churn"), 0)
    for reports in outputs:
        for report in reports or ():
            if "total_messages" not in report:
                continue
            totals["rounds"] += report["rounds"]
            totals["messages"] += report["total_messages"]
            totals["delayed"] += report.get("delayed_messages", 0)
            totals["dropped"] += report["dropped_messages"]
            totals["churn"] += report.get("churn_events", 0)
    return totals


def layer_metrics(summary: dict, delta: dict, done: Passes, samples: list,
                  untraced_wall: float) -> dict:
    """The per-layer table, per pass (``trace.overhead_pct`` excepted).

    Engine counts come from the first pass; every pass must match it.
    """
    passes = len(done.hashes)

    def row(name: str) -> dict:
        return summary.get(name, {"busy": 0.0, "self": 0.0, "calls": 0})

    def busy(name: str) -> float:
        return row(name)["busy"] / passes

    def calls(name: str) -> float:
        return row(name)["calls"] / passes

    def median_ms(values) -> float:
        values = list(values)
        return statistics.median(values) * 1e3 if values else 0.0

    builds = calls("kernel.build.int") + calls("kernel.build.packed")
    names = algorithm_names()
    engine = _engine_totals(done.outputs)
    opt_lookups = delta["opt_hits"] + delta["opt_misses"]
    instance_lookups = delta["instance_hits"] + delta["instance_misses"]
    values = {
        "kernel.build_s": (busy("kernel.build.int") + busy("kernel.build.packed"), "s"),
        "kernel.builds": (builds, "count"),
        "kernel.packed_share": (calls("kernel.build.packed") / builds if builds else 0.0, "ratio"),
        "algorithm.busy_s": (sum(busy(f"algorithm.{n}") for n in names), "s"),
        **{f"algorithm.{n}.busy_s": (busy(f"algorithm.{n}"), "s") for n in names},
        "validate.busy_s": (busy("validate"), "s"),
        "validate.calls": (calls("validate"), "count"),
        "opt.busy_s": (busy("opt"), "s"),
        "opt.hits": (delta["opt_hits"] / passes, "count"),
        "opt.misses": (delta["opt_misses"] / passes, "count"),
        "opt.hit_ratio": (delta["opt_hits"] / opt_lookups if opt_lookups else 0.0, "ratio"),
        "serialize.busy_s": (busy("serialize"), "s"),
        "serialize.bytes": (delta["bytes"] / passes, "bytes"),
        "network.init_s": (busy("network.init"), "s"),
        "engine.run_s": (busy("engine.run"), "s"),
        "engine.self_s": (row("engine.run")["self"] / passes, "s"),
        "engine.rounds": (engine["rounds"], "count"),
        "engine.messages": (engine["messages"], "count"),
        "engine.messages_per_s": (
            engine["messages"] / busy("engine.run") if busy("engine.run") else 0.0, "1/s"),
        "protocol.step_s": (busy("protocol.step"), "s"),
        "protocol.steps": (calls("protocol.step"), "count"),
        "churn.materialize_s": (busy("churn.materialize"), "s"),
        "churn.events": (engine["churn"], "count"),
        "engine.delayed_messages": (engine["delayed"], "count"),
        "engine.dropped_messages": (engine["dropped"], "count"),
        "serve.submit_ms": (median_ms(s["submit"] for s in samples), "ms"),
        "serve.exec_ms": (median_ms(s["exec"] for s in samples), "ms"),
        "serve.overhead_ms": (median_ms(s["latency"] - s["exec"] for s in samples), "ms"),
        "serve.fetch_ms": (median_ms(s["fetch"] for s in samples), "ms"),
        "serve.polls_per_job": (
            statistics.mean(s["polls"] for s in samples) if samples else 0.0, "count"),
        "serve.instance_hit_ratio": (
            delta["instance_hits"] / instance_lookups if instance_lookups else 0.0, "ratio"),
        "other.self_s": (row("unit")["self"] / passes, "s"),
        "trace.overhead_pct": (100.0 * (done.wall / untraced_wall - 1.0), "%"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def run(name: str, seed: int, seconds: float, trace: bool, scale: str = "full") -> tuple[dict, dict]:
    """One benchmark run; returns (result object, detail record)."""
    if scale != "tiny":
        warm_up(name, seed)
    workload = WORKLOADS[name](seed, scale)
    try:
        setups = set_up(workload, *SETUP_REPS[scale])
        if trace:
            plain = run_passes(workload, setups, seconds=seconds / 2)
        else:
            plain = run_passes(workload, setups, seconds=seconds, least=MIN_PASSES[scale])
        problems = failures(workload, plain)
        attempted = plain.samples
        detail = {
            "envelope": envelope(workload, plain),
            "digest": plain.digest,
            "passes": len(plain.hashes),
            "samples": plain.samples,
            "units": len(plain.units),
        }
        if not trace:
            values = {
                "setup_s": statistics.median(setups),
                "units_per_s": plain.units_per_s,
                "unit_p50_ms": percentile_ms(plain.best, 50),
                "unit_p90_ms": percentile_ms(plain.best, 90),
                "peak_rss_mb": plain.peak_rss_mb,
                "ratio_mean": workload.ratio_mean(plain.units, plain.outputs),
            }
            metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
            detail["setup_samples"] = len(setups)
        else:
            tracer = Tracer()
            workload.start_tracing(tracer)
            mark = len(workload.serve_samples())
            before = workload.counters()
            traced = run_passes(workload, setups, count=len(plain.hashes), tracer=tracer)
            after = workload.counters()
            summary = _merge(tracer.summary(), workload.stop_tracing())
            tracer.dump(OUT_DIR / f"spans-{name}-seed{seed}.json")
            problems += failures(workload, traced)
            attempted += traced.samples
            detail["traced_digest"] = traced.digest
            if detail["traced_digest"] != detail["digest"]:
                problems.append("traced run's digest differs from the untraced run's")
            delta = {key: after[key] - before[key] for key in before}
            metrics = layer_metrics(summary, delta, traced, workload.serve_samples()[mark:],
                                    plain.wall)
            detail["spans"] = {k: summary[k] for k in sorted(summary)}
        if name == "serve_mixed":
            detail["poll_interval_ms"] = workload.POLL_S * 1e3
    finally:
        workload.close()
    detail["error_rate"] = len(problems) / attempted
    detail["problems"] = problems[:50]
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": metrics,
    }
    return result, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one perfbench workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SETUP_REPS), default="full",
                        help="input sizes; 'tiny' is the smoke test's")
    args = parser.parse_args(argv)
    result, detail = run(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{result['attempted']} units in {detail['passes']} passes, "
          f"{result['failed']} failed, digest {detail['digest'][:16]}")
    for metric, entry in result["metrics"].items():
        print(f"  {metric:<30} {entry['value']:>14.6g} {entry['unit']}")
    for problem in detail["problems"][:20]:
        print(f"  FAIL {problem}")
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0
