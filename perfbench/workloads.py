"""The workloads: inputs from the benchmark seed, units, and checks.

A workload turns the benchmark seed into concrete inputs (the program
only ever sees the generated graphs and job specs), lists its timed
units, and checks their outputs outside the timed region.  README.md
next to this file says why each workload exists and which known defects
it steers around.
"""

from __future__ import annotations

import functools
import json
import re
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from http.client import HTTPConnection
from pathlib import Path
from typing import Callable

import networkx as nx

from repro import io as rio
from repro.api import (
    RunConfig,
    SimulationSpec,
    algorithm_names,
    parse_byzantine,
    parse_churn,
    parse_faults,
    simulate_many,
    solve,
    solve_many,
)
from repro.experiments.workloads import make_workload
from repro.graphs.families import get_family
from repro.graphs.kernel import kernel_backend
from repro.solvers import opt_cache
from repro.solvers.tree_dp import tree_minimum_dominating_set

ROOT = Path(__file__).resolve().parent.parent


@dataclass
class Unit:
    """One timed unit: ``run()`` returns the unit's report dicts."""

    label: str
    run: Callable[[], list]
    graph: object = None
    meta: dict | None = None
    spec: object = None
    """Workload-specific: algorithm name, SimulationSpec, or job payload."""


class ReportWriter:
    """Serialises reports the way ``save_run_reports`` does, counting bytes.

    The ``repro.io`` functions are looked up on every call, so a traced
    run sees the wrapped versions.
    """

    def __init__(self) -> None:
        self.bytes = 0

    def _write(self, dicts: list) -> list:
        self.bytes += len(json.dumps(dicts, indent=1))
        return dicts

    def runs(self, reports) -> list:
        return self._write([rio.run_report_to_dict(r) for r in reports])

    def sims(self, reports) -> list:
        return self._write([rio.sim_report_to_dict(r) for r in reports])


def _strip(value):
    if isinstance(value, dict):
        return {k: _strip(v) for k, v in value.items() if k != "wall_time"}
    if isinstance(value, (list, tuple)):
        return [_strip(v) for v in value]
    return value


def canonical(reports) -> str:
    """Reports as canonical JSON, without the wall-clock ``wall_time``."""
    return json.dumps(_strip(reports), sort_keys=True, separators=(",", ":"))


def _label(meta: dict) -> str:
    return f"{meta['family']}/{meta['size']}/{meta['seed']}"


def paper_bound(algorithm: str, t: int, graph) -> float | None:
    """The ratio bound the paper (or folklore) proves for ``algorithm``.

    ``t`` is the family's ``minor_free_t`` (``K_{2,t}``-minor-free; 0
    when unknown).  ``take_all``'s guarantee is ``t`` on
    ``K_{1,t}``-minor-free graphs, a different ``t``: every vertex
    dominates at most ``Δ + 1`` vertices, so the check uses ``Δ + 1``.
    """
    if algorithm == "algorithm1" and t >= 2:
        return 50.0
    if algorithm == "d2" and t >= 2:
        return 2.0 * t - 1
    if algorithm == "take_all":
        return float(max((d for _, d in graph.degree), default=0) + 1)
    if algorithm == "degree_two" and nx.is_tree(graph):
        return 3.0
    return None


def ratio_problems(label: str, algorithm: str, size: int, optimum: int, t: int, graph) -> list[str]:
    ratio = size / optimum if optimum else (1.0 if size == 0 else float("inf"))
    problems = []
    if ratio < 1.0:
        problems.append(f"{label} {algorithm}: ratio {ratio:.4f} < 1")
    bound = paper_bound(algorithm, t, graph)
    if bound is not None and ratio > bound:
        problems.append(f"{label} {algorithm}: ratio {ratio:.4f} > paper bound {bound:g}")
    return problems


def solve_problems(label: str, report: dict, graph, t: int) -> list[str]:
    """A solve report must be valid and, when it has a ratio, within bounds."""
    problems = []
    if report["valid"] is not True:
        problems.append(f"{label} {report['algorithm']}: invalid solution")
    if report.get("optimum_size") is not None:
        size = len(report["result"]["solution"])
        problems += ratio_problems(
            label, report["algorithm"], size, report["optimum_size"], t, graph
        )
    return problems


def exact_optimum(graph, problem: str) -> int | None:
    """|OPT| where a polynomial exact method exists, else ``None``.

    MDS on trees: the linear tree DP.  MVC on bipartite graphs: König's
    theorem, |MVC| = |maximum matching|.
    """
    if problem == "mds" and nx.is_tree(graph):
        return len(tree_minimum_dominating_set(graph))
    if problem == "mvc" and nx.is_bipartite(graph):
        top = {v for v, side in nx.bipartite.color(graph).items() if side == 0}
        return len(nx.bipartite.hopcroft_karp_matching(graph, top_nodes=top)) // 2
    return None


def _is_packed(graph) -> bool:
    backend, threshold = kernel_backend()
    return backend == "packed" or (
        backend == "auto" and graph.number_of_nodes() >= threshold
    )


def _mean(values: list) -> float:
    return sum(values) / len(values) if values else 0.0


class Workload:
    """Inputs, units and checks of one workload.

    ``fresh_per_pass``: every pass starts from freshly generated inputs,
    as a user of one CLI invocation does; ``in_process``: the units run
    the program in this process (so the tracer can wrap it here).
    """

    name = ""
    fresh_per_pass = True
    in_process = True

    def __init__(self, seed: int, scale: str) -> None:
        self.seed = seed
        self.scale = scale
        self.used = False
        self.writer = ReportWriter()
        self.tracer = None

    def prepare(self) -> float:
        """Set the inputs up; returns the seconds it took."""
        start = time.perf_counter()
        self.setup()
        self.used = False
        return time.perf_counter() - start

    def setup(self) -> None:
        raise NotImplementedError

    def units(self) -> list[Unit]:
        raise NotImplementedError

    def check(self, units: list[Unit], outputs: list) -> list[list[str]]:
        """Per unit, what is wrong with its output (``None`` outputs skipped)."""
        raise NotImplementedError

    def ratio_mean(self, units: list[Unit], outputs: list) -> float:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def counters(self) -> dict:
        stats = opt_cache.cache_stats()
        return {
            "opt_hits": stats["hits"],
            "opt_misses": stats["misses"],
            "instance_hits": 0,
            "instance_misses": 0,
            "bytes": self.writer.bytes,
        }

    def serve_samples(self) -> list[dict]:
        return []

    def start_tracing(self, tracer) -> None:
        self.tracer = tracer

    def stop_tracing(self) -> dict:
        """Stop tracing; returns span summaries recorded elsewhere."""
        self.tracer = None
        return {}

    def close(self) -> None:
        pass


class RatioSweep(Workload):
    """Table-1-style sweep: every registered algorithm, ``validate="ratio"``.

    The families and sizes of ``standard_suite("medium")`` at one
    instance seed: 11 families x 4 sizes = 44 instances, 528 reports
    (the suite's three seeds would leave a 30 s run two passes).  Unit:
    one instance through ``solve_many`` with all 12 algorithms (the
    batch runner's task).
    Every pass starts from fresh graphs and a cleared OPT cache, as each
    ``repro report``/``compare`` invocation does.
    """

    name = "ratio_sweep"
    FAMILIES = (
        "path", "tree", "star", "cycle", "outerplanar", "fan",
        "cactus", "ladder", "ding", "fan_flower", "clique_pendants",
    )
    SIZES = {"full": (24, 48, 72, 96), "tiny": (12,)}

    def __init__(self, seed: int, scale: str) -> None:
        super().__init__(seed, scale)
        self.algorithms = algorithm_names()
        self.config = RunConfig(validate="ratio")

    def setup(self) -> None:
        opt_cache.clear_opt_cache()
        self.pairs = [
            pair
            for family in self.FAMILIES
            for pair in make_workload(family, self.SIZES[self.scale], (self.seed,)).labelled()
        ]

    def units(self) -> list[Unit]:
        return [
            Unit(_label(meta), functools.partial(self._solve, meta, graph), graph, meta)
            for meta, graph in self.pairs
        ]

    def _solve(self, meta: dict, graph) -> list:
        return self.writer.runs(solve_many([(meta, graph)], self.algorithms, self.config))

    def check(self, units, outputs):
        verdicts = []
        for unit, reports in zip(units, outputs):
            t = get_family(unit.meta["family"]).minor_free_t
            verdicts.append([
                problem
                for report in reports or ()
                for problem in solve_problems(unit.label, report, unit.graph, t)
            ])
        return verdicts

    def ratio_mean(self, units, outputs):
        return _mean([r["ratio"] for reports in outputs if reports for r in reports])


class LargeFast(Workload):
    """Constant-round algorithms on large paper-family graphs, no OPT.

    Ladders, outerplanar graphs and trees at two sizes below the 8192
    packed-kernel threshold (int backend) and one above it (packed).
    Unit: one ``solve`` report with ``validate="valid"``.  Distributed
    ``greedy`` runs only below the threshold: on packed kernels it
    raises ``AttributeError`` (``closed_bits``).
    """

    name = "large_fast"
    FAMILIES = ("ladder", "outerplanar", "tree")
    SIZES = {"full": (2048, 2560, 16384), "tiny": (48, 64)}
    ALGORITHMS = ("d2", "take_all", "degree_two", "greedy_central", "d2_vc", "matching_vc")

    def __init__(self, seed: int, scale: str) -> None:
        super().__init__(seed, scale)
        self.config = RunConfig(validate="valid")
        self.optima: dict[tuple, int | None] = {}

    def setup(self) -> None:
        self.instances = [
            ({"family": family, "size": size, "seed": self.seed},
             get_family(family).make(size, self.seed))
            for family in self.FAMILIES
            for size in self.SIZES[self.scale]
        ]

    def units(self) -> list[Unit]:
        units = []
        for meta, graph in self.instances:
            names = self.ALGORITHMS + (() if _is_packed(graph) else ("greedy",))
            units += [
                Unit(f"{_label(meta)}/{name}",
                     functools.partial(self._solve, meta, graph, name), graph, meta, name)
                for name in names
            ]
        return units

    def _solve(self, meta: dict, graph, algorithm: str) -> list:
        return self.writer.runs([solve(graph, algorithm, self.config, meta=meta)])

    def _optimum(self, unit: Unit, problem: str) -> int | None:
        key = (unit.meta["family"], unit.meta["size"], unit.meta["seed"], problem)
        if key not in self.optima:
            self.optima[key] = exact_optimum(unit.graph, problem)
        return self.optima[key]

    def check(self, units, outputs):
        verdicts = []
        for unit, reports in zip(units, outputs):
            problems = []
            t = get_family(unit.meta["family"]).minor_free_t
            for report in reports or ():
                if report["valid"] is not True:
                    problems.append(f"{unit.label}: invalid solution")
                optimum = self._optimum(unit, report["problem"])
                if optimum is not None:
                    size = len(report["result"]["solution"])
                    problems += ratio_problems(
                        unit.label, report["algorithm"], size, optimum, t, unit.graph
                    )
            verdicts.append(problems)
        return verdicts

    def ratio_mean(self, units, outputs):
        ratios = []
        for unit, reports in zip(units, outputs):
            for report in reports or ():
                optimum = self._optimum(unit, report["problem"])
                if optimum:
                    ratios.append(len(report["result"]["solution"]) / optimum)
        return _mean(ratios)


def serve_jobs(seed: int, scale: str) -> list[dict]:
    """The fixed job list: eight jobs (:func:`serve_job_set`) for each of
    three instance seeds derived from the benchmark seed, so the slowest
    jobs, which set ``unit_p90_ms``, are not one draw of each graph."""
    copies = 3 if scale == "full" else 1
    return [job for k in range(copies) for job in serve_job_set(seed * copies + k, scale)]


def serve_job_set(seed: int, scale: str) -> list[dict]:
    """Family solves (ratio), one inline graph, and simulate jobs in the
    async+drop, churn and adversarial+byzantine string grammars."""

    def size(n: int) -> int:
        return n if scale == "full" else max(12, n // 4)

    def solve_job(instance: dict, algorithms: list) -> dict:
        return {"kind": "solve", "instances": [instance], "algorithms": algorithms,
                "validate": "ratio"}

    def family(name: str, n: int) -> dict:
        return {"family": name, "size": size(n), "seed": seed}

    def sim_job(instance: dict, spec: dict) -> dict:
        return {"kind": "simulate", "instances": [instance], "specs": [{**spec, "seed": seed}]}

    inline = get_family("outerplanar").make(size(40), seed)
    return [
        solve_job(family("tree", 80), ["d2", "degree_two", "greedy"]),
        solve_job(family("outerplanar", 60), ["algorithm1", "d2"]),
        solve_job(family("ladder", 48), ["d2", "local_cuts_vc", "matching_vc"]),
        solve_job(family("ding", 64), ["d2", "take_all", "greedy_central"]),
        solve_job(
            {"graph": rio.graph_to_dict(inline),
             "meta": {"family": "outerplanar", "size": size(40), "seed": seed,
                      "source": "inline"}},
            ["d2", "algorithm1"],
        ),
        sim_job(family("outerplanar", 120),
                {"algorithm": "d2", "model": "async", "delay": 2, "faults": "drop=0.1"}),
        sim_job(family("tree", 150), {"algorithm": "d2", "churn": "rate=0.3,until=6"}),
        sim_job(family("tree", 120),
                {"algorithm": "degree_two", "model": "adversarial",
                 "byzantine": "babble=0+3"}),
    ]


class ServeProcess:
    """``repro serve --workers 1`` on a loopback port, in its own process."""

    def __init__(self, spans_path: Path | None = None) -> None:
        command = [sys.executable, str(ROOT / "perfbench" / "serve_host.py")]
        if spans_path is not None:
            command += ["--trace", "--spans", str(spans_path)]
        command += ["--", "--workers", "1", "--host", "127.0.0.1", "--port", "0"]
        self.proc = subprocess.Popen(
            command, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        line = self.proc.stdout.readline()
        match = re.search(r"http://[^:/]+:(\d+)", line)
        if match is None:
            self.close()
            raise RuntimeError(f"repro serve did not start: {line!r}")
        self.port = int(match.group(1))

    def call(self, method: str, path: str, payload: object = None) -> tuple[int, bytes]:
        """One request on a connection of its own.

        A kept-alive connection stalls about 40 ms per response: the
        server writes headers and body in two sends, and Nagle's
        algorithm holds the body until the client's delayed ACK.
        """
        body = None if payload is None else json.dumps(payload).encode()
        headers = {} if body is None else {"Content-Type": "application/json"}
        conn = HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def command(self, text: str) -> dict:
        """Send a host command; ``dump`` answers with one JSON line."""
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline()) if text == "dump" else {}

    def close(self) -> None:
        self.proc.stdin.close()  # end of input: the host stops the server
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class ServeMixed(Workload):
    """A closed-loop client against ``repro serve --workers 1``.

    One client cycles the job list of :func:`serve_jobs`, sending each
    job only after the previous result arrived.  Unit: one job, from
    POST until its result body is read; status is polled every
    ``POLL_S``.  Set-up boots the server and runs one warm pass, so the
    timed passes hit the instance and OPT caches.
    """

    name = "serve_mixed"
    fresh_per_pass = False
    in_process = False
    POLL_S = 0.002

    def __init__(self, seed: int, scale: str) -> None:
        super().__init__(seed, scale)
        self.jobs = serve_jobs(seed, scale)
        self.server: ServeProcess | None = None
        self.spans_path: Path | None = None
        self.samples: list[dict] = []
        self.body_bytes = 0
        self.direct: dict[int, tuple[list, list]] = {}

    def setup(self) -> None:
        self.close()
        self.server = ServeProcess(self.spans_path)
        for payload in self.jobs:
            self._job(payload)

    def units(self) -> list[Unit]:
        return [
            Unit(f"job{index}-{payload['kind']}",
                 functools.partial(self._job, payload), spec=(index, payload))
            for index, payload in enumerate(self.jobs)
        ]

    def _call(self, span: str, method: str, path: str, payload: object = None):
        index = self.tracer.begin(span) if self.tracer is not None else None
        try:
            return self.server.call(method, path, payload)
        finally:
            if index is not None:
                self.tracer.end(index)

    def _job(self, payload: dict) -> list:
        start = time.perf_counter()
        status, body = self._call("serve.submit", "POST", "/jobs", payload)
        if status != 202:
            raise RuntimeError(f"submit answered {status}: {body[:200]!r}")
        job_id = json.loads(body)["id"]
        submitted = time.perf_counter()
        polls = 0
        while True:
            status, body = self._call("serve.poll", "GET", f"/jobs/{job_id}")
            polls += 1
            record = json.loads(body)
            if record["state"] not in ("queued", "running"):
                break
            if time.perf_counter() - start > 120:
                raise TimeoutError(f"job {job_id} still {record['state']} after 120 s")
            time.sleep(self.POLL_S)
        if record["state"] != "completed":
            raise RuntimeError(f"job {job_id} {record['state']}: {record.get('error')}")
        finished = time.perf_counter()
        status, body = self._call("serve.fetch", "GET", f"/jobs/{job_id}/result")
        if status != 200:
            raise RuntimeError(f"result answered {status}: {body[:200]!r}")
        fetched = time.perf_counter()
        self.body_bytes += len(body)
        self.samples.append({
            "latency": fetched - start,
            "submit": submitted - start,
            "fetch": fetched - finished,
            "exec": record["wall_time"],
            "polls": polls,
        })
        return json.loads(body)

    def serve_samples(self) -> list[dict]:
        return self.samples

    @staticmethod
    def _instance(spec: dict) -> tuple[dict, object]:
        if "family" in spec:
            meta = {"family": spec["family"], "size": spec["size"], "seed": spec["seed"]}
            return meta, get_family(spec["family"]).make(spec["size"], spec["seed"])
        return dict(spec["meta"]), rio.graph_from_dict(spec["graph"])

    @staticmethod
    def _sim_spec(spec: dict) -> SimulationSpec:
        return SimulationSpec(
            algorithm=spec["algorithm"],
            model=spec.get("model", "local"),
            delay=spec.get("delay", 2),
            seed=spec["seed"],
            faults=parse_faults(spec.get("faults")),
            churn=parse_churn(spec.get("churn")),
            byzantine=parse_byzantine(spec.get("byzantine")),
        )

    def _direct_reports(self, index: int, payload: dict) -> tuple[list, list]:
        """The same job through the direct batch calls: (report dicts,
        the graph each report ran on)."""
        if index not in self.direct:
            pairs = [self._instance(spec) for spec in payload["instances"]]
            if payload["kind"] == "solve":
                names = payload["algorithms"]
                reports = [rio.run_report_to_dict(r) for r in
                           solve_many(pairs, names, RunConfig(validate="ratio"))]
                graphs = [graph for _, graph in pairs for _ in names]
            else:
                specs = [self._sim_spec(spec) for spec in payload["specs"]]
                reports = [rio.sim_report_to_dict(r) for r in simulate_many(pairs, specs)]
                graphs = [graph for _, graph in pairs for _ in specs]
            self.direct[index] = (reports, graphs)
        return self.direct[index]

    def check(self, units, outputs):
        verdicts = []
        for unit, served in zip(units, outputs):
            if served is None:
                verdicts.append([])
                continue
            index, payload = unit.spec
            direct, graphs = self._direct_reports(index, payload)
            problems = []
            if canonical(served) != canonical(direct):
                problems.append(f"{unit.label}: served reports differ from the direct call")
            if payload["kind"] == "solve":
                for report, graph in zip(served, graphs):
                    t = get_family(report["instance"]["family"]).minor_free_t
                    problems += solve_problems(unit.label, report, graph, t)
            verdicts.append(problems)
        return verdicts

    def ratio_mean(self, units, outputs):
        return _mean([
            report["ratio"]
            for served in outputs if served
            for report in served
            if report.get("ratio") is not None
        ])

    def peak_rss_mb(self) -> float:
        return self.server.command("dump")["peak_rss_mb"]

    def counters(self) -> dict:
        _, body = self.server.call("GET", "/stats")
        stats = json.loads(body)
        return {
            "opt_hits": stats["opt_cache"]["hits"],
            "opt_misses": stats["opt_cache"]["misses"],
            "instance_hits": stats["instances"]["hits"],
            "instance_misses": stats["instances"]["misses"],
            "bytes": self.body_bytes,
        }

    def start_tracing(self, tracer) -> None:
        # A traced server of its own, warmed like the untraced one; the
        # spans of its warm pass are dropped.
        self.spans_path = ROOT / ".perfbench" / f"spans-{self.name}-server.json"
        self.prepare()
        self.server.command("reset")
        self.tracer = tracer

    def stop_tracing(self) -> dict:
        self.tracer = None
        return self.server.command("dump")["summary"] or {}

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (RatioSweep, LargeFast, ServeMixed)
}
