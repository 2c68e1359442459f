"""Command-line interface: run the paper's algorithms on generated graphs.

Everything is driven by the :mod:`repro.api` registry — the
``--algorithm`` choices, the capability checks, and the ``compare``
sweep are all derived from the registered :class:`~repro.api.AlgorithmSpec`
records, so a newly registered algorithm appears here automatically.

Examples::

    python -m repro run --family fan --size 20 --algorithm algorithm1
    python -m repro run --family ladder --size 24 --algorithm algorithm1 --simulate
    python -m repro run --family fan --size 16 --algorithm d2_vc --json
    python -m repro compare --family outerplanar --size 18 --seed 3 --workers 2
    python -m repro compare --family fan --size 16 --problem mvc
    python -m repro simulate --family tree --size 15 --algorithm d2
    python -m repro simulate --family tree --size 8 --algorithm degree_two --model congest
    python -m repro simulate --family fan --size 12 --algorithm d2 --faults drop=0.2,crash=0 --json
    python -m repro sweep run --dir runs/night --families fan,tree --sizes 14,18 --algorithms greedy,d2
    python -m repro sweep resume --dir runs/night
    python -m repro sweep status --dir runs/night --json
    python -m repro algorithms
    python -m repro families
    python -m repro report --scale tiny
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import warnings

from repro.analysis.tables import format_table
from repro.api import (
    RunConfig,
    SimulationSpec,
    UnsupportedModeError,
    algorithm_names,
    engine_algorithm_names,
    list_algorithms,
    simulate,
    solve,
    solve_many,
)
from repro.api.config import SOLVER_BACKENDS, run_config_from_options
from repro.graphs.families import FAMILIES, get_family
from repro.io import from_dict, run_report_to_dict, sim_report_to_dict
from repro.local_model.engine import MessageTooLargeError


#: The :class:`SimulationSpec` fields `repro simulate` exposes as flags,
#: in ``--help`` order; defaults, choices and help come from the fields.
SPEC_FLAGS = (
    "model", "budget", "delay", "max_rounds", "trace", "ids",
    "faults", "churn", "byzantine",
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one algorithm on one instance")
    run.add_argument("--family", required=True, choices=sorted(FAMILIES))
    run.add_argument("--size", type=int, default=20)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--algorithm", required=True, choices=algorithm_names())
    run.add_argument(
        "--simulate",
        action="store_true",
        help="true per-node message-passing execution (capability-checked "
        "against the registry; unsupported algorithms are an error)",
    )
    run.add_argument("--json", action="store_true", help="emit the RunReport as JSON")

    compare = sub.add_parser("compare", help="run every algorithm on one instance")
    compare.add_argument("--family", required=True, choices=sorted(FAMILIES))
    compare.add_argument("--size", type=int, default=20)
    compare.add_argument("--seed", type=int, default=0)
    compare.add_argument("--problem", default="mds", choices=["mds", "mvc"])
    compare.add_argument(
        "--workers", type=int, default=None,
        help="process-parallel runs (deterministic ordering)",
    )
    compare.add_argument(
        "--solver", default="milp", choices=list(SOLVER_BACKENDS),
        help="exact backend for the shared ratio denominator "
        "(MDS only; MVC optima always use MILP)",
    )
    compare.add_argument(
        "--no-opt-cache", action="store_true",
        help="re-solve the exact optimum per run instead of sharing the "
        "per-instance cache (numbers are identical either way)",
    )
    compare.add_argument("--json", action="store_true", help="emit RunReports as JSON")

    simulate_p = sub.add_parser(
        "simulate",
        help="run an algorithm's message-passing protocol on the simulation engine",
    )
    simulate_p.add_argument("--family", required=True, choices=sorted(FAMILIES))
    simulate_p.add_argument("--size", type=int, default=20)
    simulate_p.add_argument(
        "--seed", type=int, default=0,
        help="instance seed; also drives the fault RNG and shuffled ids",
    )
    simulate_p.add_argument(
        "--algorithm", required=True, choices=engine_algorithm_names(),
        help="engine-capable algorithms only (see `repro algorithms`)",
    )
    spec_fields = {f.name: f for f in dataclasses.fields(SimulationSpec)}
    for name in SPEC_FLAGS:
        spec_field = spec_fields[name]
        simulate_p.add_argument(
            "--" + name.replace("_", "-"),
            type=int if isinstance(spec_field.default, int) else None,
            default=spec_field.default,
            choices=spec_field.metadata.get("choices"),
            metavar=spec_field.metadata.get("metavar"),
            help=spec_field.metadata.get("help"),
        )
    simulate_p.add_argument(
        "--json", action="store_true", help="emit the SimReport as JSON"
    )

    lint = sub.add_parser(
        "lint",
        help="run the project's contract-enforcing static analysis "
        "(kernel invalidation, per-graph caches, determinism, registry "
        "hygiene, bitset discipline)",
    )
    lint.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to check (default: src/repro)",
    )
    lint.add_argument(
        "--select", default=None, metavar="RULES",
        help="comma-separated rule ids to run (e.g. RPR001,RPR003); "
        "default: all",
    )
    lint.add_argument(
        "--json", action="store_true",
        help="emit findings as JSON (the CI gate's format)",
    )
    lint.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue"
    )

    serve = sub.add_parser(
        "serve",
        help="run the resident job-queue service (REST/JSON API over "
        "solve_many/simulate_many; kernels and OPT caches stay warm "
        "across requests)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8008)
    serve.add_argument(
        "--workers", type=int, default=2,
        help="resident worker threads (threads share the kernel/OPT caches)",
    )
    serve.add_argument(
        "--queue-depth", type=int, default=32,
        help="bounded job queue; a full queue answers 429 + Retry-After",
    )
    serve.add_argument(
        "--job-timeout", type=float, default=None, metavar="SECONDS",
        help="default per-job execution budget (cooperative cancellation "
        "between instance x algorithm units; jobs may override it)",
    )
    serve.add_argument(
        "--result-capacity", type=int, default=256,
        help="finished jobs kept in the in-memory ring buffer",
    )
    serve.add_argument(
        "--result-dir", default=None, metavar="DIR",
        help="spill evicted results to this directory so they survive "
        "ring-buffer recycling",
    )
    serve.add_argument(
        "--journal-dir", default=None, metavar="DIR",
        help="durable job journal: accepted jobs are persisted here and "
        "re-enqueued on the next start, so queued work survives a "
        "service crash",
    )

    sweep = sub.add_parser(
        "sweep",
        help="crash-safe sharded sweeps: checkpointed shards with "
        "retry/backoff, poison-shard quarantine, and resume-after-crash",
    )
    sweep_sub = sweep.add_subparsers(dest="sweep_command", required=True)

    def _dispatch_options(p):
        p.add_argument(
            "--workers", type=int, default=2,
            help="pool worker processes executing shards",
        )
        p.add_argument(
            "--max-attempts", type=int, default=3,
            help="attempts before a shard is quarantined",
        )
        p.add_argument(
            "--shard-timeout", type=float, default=None, metavar="SECONDS",
            help="per-shard wall budget; a hung shard abandons the pool "
            "and retries",
        )
        p.add_argument("--json", action="store_true", help="emit the result as JSON")

    sweep_run = sweep_sub.add_parser(
        "run", help="plan a new sharded sweep under --dir and execute it"
    )
    sweep_run.add_argument(
        "--dir", required=True, dest="run_dir", metavar="DIR",
        help="run directory (manifest, checkpoints, merged reports)",
    )
    sweep_run.add_argument(
        "--families", default="fan",
        help="comma-separated graph families (cross product with sizes/seeds)",
    )
    sweep_run.add_argument("--sizes", default="16", help="comma-separated sizes")
    sweep_run.add_argument("--seeds", default="0", help="comma-separated seeds")
    sweep_run.add_argument(
        "--algorithms", default=None,
        help="comma-separated algorithms (default: every MDS algorithm)",
    )
    sweep_run.add_argument(
        "--solver", default="milp", choices=list(SOLVER_BACKENDS),
        help="exact backend for ratio denominators",
    )
    sweep_run.add_argument(
        "--shard-size", type=int, default=1,
        help="instances per shard (each shard runs every algorithm)",
    )
    sweep_run.add_argument(
        "--sweep-seed", type=int, default=0,
        help="sweep seed (drives backoff jitter; recorded in the manifest)",
    )
    _dispatch_options(sweep_run)

    sweep_resume = sweep_sub.add_parser(
        "resume",
        help="finish an interrupted sweep: verify checkpoints, run the rest",
    )
    sweep_resume.add_argument(
        "--dir", required=True, dest="run_dir", metavar="DIR"
    )
    _dispatch_options(sweep_resume)

    sweep_status = sweep_sub.add_parser(
        "status", help="report a run directory's progress without executing"
    )
    sweep_status.add_argument(
        "--dir", required=True, dest="run_dir", metavar="DIR"
    )
    sweep_status.add_argument(
        "--json", action="store_true", help="emit the status as JSON"
    )

    algorithms = sub.add_parser("algorithms", help="list registered algorithms")
    algorithms.add_argument("--problem", default=None, choices=["mds", "mvc"])
    algorithms.add_argument("--json", action="store_true", help="emit specs as JSON")

    sub.add_parser("families", help="list available graph families")

    report = sub.add_parser("report", help="regenerate every experiment table")
    report.add_argument("--scale", default="tiny", choices=["tiny", "small", "medium"])
    report.add_argument(
        "--workers", type=int, default=None,
        help="process-parallel Table 1 regeneration",
    )
    report.add_argument(
        "--solver", default="milp", choices=list(SOLVER_BACKENDS),
        help="exact backend for every ratio denominator in the report",
    )
    report.add_argument(
        "--no-opt-cache", action="store_true",
        help="re-solve exact optima per run instead of sharing the "
        "per-instance cache",
    )
    return parser


def _instance(args):
    graph = get_family(args.family).make(args.size, args.seed)
    meta = {"family": args.family, "size": args.size, "seed": args.seed}
    return graph, meta


def _cmd_run(args) -> int:
    graph, meta = _instance(args)
    config = run_config_from_options(simulate=args.simulate)
    try:
        report = solve(graph, args.algorithm, config, meta=meta)
    except UnsupportedModeError as error:
        print(f"error: {error}", file=sys.stderr)
        print(
            "hint: `python -m repro algorithms` lists per-algorithm "
            "capability flags",
            file=sys.stderr,
        )
        return 2
    if args.json:
        print(json.dumps(run_report_to_dict(report), indent=1))
        return 0 if report.valid else 1
    result = report.result
    print(f"family={args.family} n={graph.number_of_nodes()} m={graph.number_of_edges()}")
    print(f"algorithm={result.name} rounds={result.rounds}")
    print(f"solution ({result.size} vertices): {sorted(result.solution, key=repr)}")
    print(
        f"optimum: {report.optimum_size}  ratio: {report.ratio:.3f}  "
        f"valid: {report.valid}"
    )
    if result.phases:
        print(f"phases: {result.phase_sizes()}")
    return 0 if report.valid else 1


def _display_sorted(vertices) -> list:
    """Sort a vertex set naturally for display, repr-sorting mixed types."""
    try:
        return sorted(vertices)
    except TypeError:
        return sorted(vertices, key=repr)


def _cmd_simulate(args) -> int:
    graph, meta = _instance(args)
    try:
        spec = from_dict(
            SimulationSpec,
            {
                "algorithm": args.algorithm,
                "seed": args.seed,
                **{name: getattr(args, name) for name in SPEC_FLAGS},
            },
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        report = simulate(graph, spec, meta=meta)
    except ValueError as error:
        # e.g. a crash vertex that is not in the generated graph
        print(f"error: {error}", file=sys.stderr)
        return 2
    except MessageTooLargeError as error:
        print(f"error: {error}", file=sys.stderr)
        print(
            "hint: raise --budget, or pick a CONGEST-fit protocol "
            "(`python -m repro algorithms` lists capability flags)",
            file=sys.stderr,
        )
        return 1
    except RuntimeError as error:
        # the engine's round-limit trip ("did not halt within N rounds")
        print(f"error: {error}", file=sys.stderr)
        print("hint: raise --max-rounds", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(sim_report_to_dict(report), indent=1))
        return 0
    print(
        f"family={args.family} n={graph.number_of_nodes()} "
        f"m={graph.number_of_edges()} model={report.model}"
    )
    payload = "n/a" if report.total_payload is None else report.total_payload
    print(
        f"algorithm={report.algorithm} rounds={report.rounds} "
        f"messages={report.total_messages} payload={payload}"
    )
    if report.dropped_messages or report.crashed:
        print(
            f"faults: dropped={report.dropped_messages} "
            f"swallowed={report.swallowed_messages} "
            f"crashed={_display_sorted(report.crashed)}"
        )
    if report.churn_events or report.delayed_messages:
        print(
            f"adversary: churn_events={report.churn_events} "
            f"churn_lost={report.churn_lost_messages} "
            f"delayed={report.delayed_messages}"
        )
    for v in sorted(report.suspicion, key=repr):
        tallies = report.suspicion[v]
        print(
            f"byzantine {v}: behavior={tallies['behavior']} "
            f"deviations={tallies['deviations']} "
            f"detections={tallies['detections']}"
        )
    if report.failed:
        print(f"failed under attack: {_display_sorted(report.failed)}")
    if report.timed_out:
        print(f"timed out: honest nodes did not halt within {args.max_rounds} rounds")
    chosen = _display_sorted(report.chosen)
    print(f"halted {report.halted}/{graph.number_of_nodes()} nodes")
    print(f"chosen ({len(chosen)} vertices): {chosen}")
    if args.trace == "full" and report.round_stats:
        for stats in report.round_stats:
            print(
                f"  round {stats.round_index}: {stats.messages} messages, "
                f"{stats.payload_units} payload units"
            )
    return 0


def _cmd_compare(args) -> int:
    if args.problem == "mvc" and args.solver == "bnb":
        print(
            "error: no pure-Python MVC solver is shipped; "
            "--problem mvc requires --solver milp",
            file=sys.stderr,
        )
        return 2
    graph, meta = _instance(args)
    # The per-instance OPT cache inside solve_many shares one exact
    # solve across every algorithm — no hand-rolled reuse needed.
    config = run_config_from_options(
        solver=args.solver, opt_cache=not args.no_opt_cache
    )
    reports = solve_many(
        [(meta, graph)],
        algorithm_names(args.problem),
        config,
        workers=args.workers,
    )
    if args.json:
        print(json.dumps([run_report_to_dict(r) for r in reports], indent=1))
        return 0
    rows = [
        [r.algorithm, r.size, r.ratio, r.rounds, r.valid]
        for r in reports
    ]
    optimum = reports[0].optimum_size if reports else 0
    print(f"family={args.family} n={graph.number_of_nodes()} opt={optimum}")
    print(format_table(["algorithm", "size", "ratio", "rounds", "valid"], rows))
    return 0


def _cmd_lint(args) -> int:
    # Imported here so `repro run`/`simulate` never pay for the linter.
    from repro.lint import all_rules, lint_paths

    if args.list_rules:
        rows = [[rule_id, summary] for rule_id, summary in all_rules().items()]
        print(format_table(["rule", "checks"], rows))
        return 0
    select = None
    if args.select is not None:
        select = [part.strip() for part in args.select.split(",") if part.strip()]
        unknown = [rule_id for rule_id in select if rule_id not in all_rules()]
        if unknown:
            print(
                f"error: unknown rule id(s) {', '.join(unknown)}; "
                f"known: {', '.join(all_rules())}",
                file=sys.stderr,
            )
            return 2
    missing = [path for path in args.paths if not os.path.exists(path)]
    if missing:
        print(f"error: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2
    findings = lint_paths(args.paths, select=select)
    if args.json:
        from repro.io import counted_payload

        print(
            json.dumps(
                counted_payload("findings", [f.to_dict() for f in findings]),
                indent=1,
            )
        )
        return 2 if findings else 0
    for finding in findings:
        print(finding.render())
    if findings:
        print(
            f"{len(findings)} finding(s); suppress documented exceptions "
            f"inline with `# repro: ignore[RPRxxx] reason`"
        )
        return 2
    print(f"clean: {', '.join(args.paths)}")
    return 0


def _cmd_serve(args) -> int:
    # Imported here so every other subcommand stays a plain batch tool.
    from repro.serve import ReproHTTPServer, ReproService

    service = ReproService(
        workers=args.workers,
        queue_depth=args.queue_depth,
        job_timeout=args.job_timeout,
        result_capacity=args.result_capacity,
        result_dir=args.result_dir,
        journal_dir=args.journal_dir,
    )
    server = ReproHTTPServer((args.host, args.port), service)
    service.start()
    host, port = server.server_address[:2]
    print(
        f"repro serve listening on http://{host}:{port} "
        f"(workers={args.workers}, queue-depth={args.queue_depth})",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        service.stop()
    return 0


def _split_csv(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _sweep_result_payload(result) -> dict:
    return {
        "run_dir": str(result.run_dir),
        "kind": result.kind,
        "complete": result.complete,
        "shards": result.total_shards,
        "executed": result.executed,
        "completed": result.completed,
        "quarantined": result.quarantined,
        "retries": result.retries,
        "attempts": result.attempts,
        "errors": result.errors,
        "reports": str(result.reports_path) if result.reports_path else None,
    }


def _print_sweep_result(result, as_json: bool) -> int:
    if as_json:
        print(json.dumps(_sweep_result_payload(result), indent=1))
    else:
        print(
            f"sweep {result.run_dir}: "
            f"{len(result.completed)}/{result.total_shards} shards complete "
            f"({len(result.executed)} executed now, {result.retries} retried)"
        )
        for shard_id in result.quarantined:
            messages = result.errors.get(shard_id, [])
            tail = f": {messages[-1]}" if messages else ""
            print(f"  quarantined {shard_id}{tail}")
        if result.reports_path:
            print(f"  merged reports: {result.reports_path}")
        elif not result.complete:
            print("  incomplete; finish with `repro sweep resume --dir "
                  f"{result.run_dir}`")
    return 0 if result.complete else 1


def _cmd_sweep(args) -> int:
    # Imported here so the batch subcommands never pay for the sweep stack.
    from repro.sweep import (
        CheckpointCorruptError,
        ManifestError,
        SimulatedProcessDeath,
        resume_sweep,
        run_sweep,
        sweep_status,
    )

    try:
        if args.sweep_command == "status":
            status = sweep_status(args.run_dir)
            if args.json:
                print(json.dumps(status, indent=1))
            else:
                print(
                    f"sweep {status['run_dir']} [{status['kind']}]: "
                    f"{len(status['completed'])}/{status['shards']} shards "
                    f"complete, {len(status['pending'])} pending, "
                    f"{len(status['quarantined'])} quarantined, "
                    f"merged={status['merged']}"
                )
                for shard_id, record in status["quarantined"].items():
                    errors = record.get("errors") or ["(no record)"]
                    print(f"  quarantined {shard_id}: {errors[-1]}")
            return 0 if not status["pending"] and not status["quarantined"] else 1

        options = {
            "workers": args.workers,
            "max_attempts": args.max_attempts,
            "shard_timeout": args.shard_timeout,
        }
        if args.sweep_command == "resume":
            return _print_sweep_result(resume_sweep(args.run_dir, **options), args.json)

        instances = []
        for family_name in _split_csv(args.families):
            family = get_family(family_name)
            for size in _split_csv(args.sizes):
                for seed in _split_csv(args.seeds):
                    meta = {
                        "family": family_name,
                        "size": int(size),
                        "seed": int(seed),
                    }
                    instances.append(
                        (meta, family.make(meta["size"], meta["seed"]))
                    )
        algorithms = (
            _split_csv(args.algorithms) if args.algorithms else algorithm_names("mds")
        )
        unknown = [name for name in algorithms if name not in algorithm_names()]
        if unknown:
            print(f"error: unknown algorithm(s): {', '.join(unknown)}", file=sys.stderr)
            return 2
        result = run_sweep(
            instances,
            run_dir=args.run_dir,
            algorithms=algorithms,
            config=run_config_from_options(solver=args.solver),
            shard_size=args.shard_size,
            seed=args.sweep_seed,
            **options,
        )
        return _print_sweep_result(result, args.json)
    except (ManifestError, ValueError, KeyError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except SimulatedProcessDeath as error:
        print(f"error: {error}", file=sys.stderr)
        return 3
    except CheckpointCorruptError as error:
        print(f"error: {error}", file=sys.stderr)
        return 4


def _cmd_algorithms(args) -> int:
    specs = list_algorithms(args.problem)
    if args.json:
        print(json.dumps([spec.describe() for spec in specs], indent=1))
        return 0
    rows = [
        [
            spec.name,
            spec.problem,
            "+".join(spec.modes),
            "yes" if spec.supports_engine else "-",
            spec.guarantee,
            spec.round_complexity,
            spec.assumes,
        ]
        for spec in specs
    ]
    print(
        format_table(
            [
                "algorithm", "problem", "modes", "engine",
                "paper ratio", "rounds", "assumes",
            ],
            rows,
        )
    )
    return 0


def _cmd_families() -> int:
    rows = [
        [family.name, family.table_row, family.minor_free_t or "-"]
        for family in FAMILIES.values()
    ]
    print(format_table(["family", "table-1 row", "K_2,t-free for t >="], rows))
    return 0


def _cmd_report(args) -> int:
    from repro.experiments.report import full_report

    print(
        full_report(
            args.scale,
            workers=args.workers,
            solver=args.solver,
            opt_cache=not args.no_opt_cache,
        )
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "algorithms":
        return _cmd_algorithms(args)
    if args.command == "families":
        return _cmd_families()
    if args.command == "report":
        return _cmd_report(args)
    return 2


def __getattr__(name: str):
    # Deprecation shim: the hand-maintained ALGORITHMS dict is gone; old
    # imports get a registry-derived equivalent (same call shape).
    if name == "ALGORITHMS":
        warnings.warn(
            "repro.cli.ALGORITHMS is deprecated; use repro.api.list_algorithms()"
            " / repro.api.solve() instead",
            DeprecationWarning,
            stacklevel=2,
        )
        def _runner(spec):
            def call(graph, simulate):
                mode = "simulate" if simulate and spec.supports_simulation else "fast"
                return spec.run(graph, RunConfig(mode=mode))
            return call
        return {spec.name: _runner(spec) for spec in list_algorithms("mds")}
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


if __name__ == "__main__":
    sys.exit(main())
