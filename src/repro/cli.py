"""Command-line experiment runner over the unified Experiment API.

Usage::

    python -m repro list                  # enumerate experiments
    python -m repro run e6 e8             # run, print paper tables
    python -m repro run e3 --json         # machine-readable result
    python -m repro run all --out out/    # write one JSON per id
    python -m repro run e14 --replicas 8 --workers 4   # pooled CIs
    python -m repro run e14 --replicas 64 --replica-timeout 120 \
        --retries 3 --resume sweep.jsonl   # survivable sweep
    python -m repro run e14 --replicas 8 --live   # live sweep view
    python -m repro run r1 --probe 0.5 \
        --slo 'probe_queue_len:mean:5 <= 10' --slo-strict
    python -m repro trace e14             # record a kernel event trace
    python -m repro report e6             # run-report digest
    python -m repro report r1 --probe --html dash.html
    python -m repro report out/f1.json --html f1.html
    python -m repro check --strict        # static model + sim lint
    python -m repro check corpus/s0007.json   # verify scenario files
    python -m repro scenario export e3 --out scenarios/
    python -m repro scenario generate --count 100 --seed 7 --out corpus/
    python -m repro scenario sweep corpus/   # differential merge gate
    python -m repro run e4 --scenario corpus/s0007.json
    python -m repro run e16 --profile     # hotspots + flamegraph file

Every experiment goes through :func:`repro.experiments.run`, the same
code path the ``benchmarks/`` suite asserts on, so the CLI output *is*
the reproduced paper table.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from pathlib import Path

from repro import experiments
from repro.obs.report import sanitize_json
from repro.utils import Table

__all__ = ["main"]

#: Rows in the hotspot and process tables of ``run --profile``.
PROFILE_TOP = 15


def _resolve_ids(requested: list[str]) -> list[str] | None:
    """Normalize requested ids (case-insensitive, ``all``); ``None``
    plus a stderr message when any id is unknown.

    ``scenario:<path>`` ids pass through verbatim (paths are
    case-sensitive); the file must exist.
    """
    from repro.experiments import SCENARIO_ID_PREFIX

    known = experiments.ids()
    if [r.lower() for r in requested] == ["all"]:
        return known
    resolved = []
    unknown = []
    for entry in requested:
        if entry.startswith(SCENARIO_ID_PREFIX):
            path = Path(entry[len(SCENARIO_ID_PREFIX):])
            if not path.is_file():
                print(f"no such scenario file: {path}",
                      file=sys.stderr)
                return None
            resolved.append(entry)
        elif entry.lower() in known:
            resolved.append(entry.lower())
        else:
            unknown.append(entry.lower())
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)} "
              f"(try 'repro list')", file=sys.stderr)
        return None
    return resolved


def _cmd_list() -> int:
    table = Table(["id", "experiment"], title="available experiments")
    for exp_id in experiments.ids():
        table.add_row([exp_id, experiments.get(exp_id).claim])
    table.show()
    return 0


def _cmd_run(args) -> int:
    ids = _resolve_ids(args.experiments)
    if ids is None:
        return 2
    if args.scenario is not None:
        if not Path(args.scenario).is_file():
            print(f"run: no such scenario file: {args.scenario}",
                  file=sys.stderr)
            return 2
        if args.replicas > 1:
            print("run: --scenario does not combine with --replicas; "
                  "replicate the scenario as its own experiment id "
                  f"instead: repro run scenario:{args.scenario} "
                  f"--replicas {args.replicas}", file=sys.stderr)
            return 2
    if args.replicas > 1 and args.trace:
        print("run: --trace is incompatible with --replicas > 1 "
              "(replicas run in worker processes; trace one replica "
              "with 'repro trace <id> --seed <replica seed>')",
              file=sys.stderr)
        return 2
    if args.replicas > 1 and args.profile:
        print("run: --profile is incompatible with --replicas > 1 "
              "(replicas run in worker processes the profiler cannot "
              "reach; profile one replica with 'repro run <id> --seed "
              "<replica seed> --profile')", file=sys.stderr)
        return 2
    if args.profile and args.trace:
        print("run: --profile attributes time through its own tracer "
              "and does not combine with --trace", file=sys.stderr)
        return 2
    if args.live and args.replicas <= 1:
        print("run: --live shows worker progress and applies only to "
              "replicated sweeps; add --replicas N", file=sys.stderr)
        return 2
    try:
        from repro.obs.slo import as_slo_specs

        slo_specs = as_slo_specs(args.slo)
    except ValueError as error:
        print(f"run: {error}", file=sys.stderr)
        return 2
    supervised = (args.replica_timeout is not None
                  or args.retries is not None
                  or args.checkpoint or args.resume
                  or args.allow_partial)
    if supervised and args.replicas <= 1:
        print("run: --replica-timeout/--retries/--checkpoint/--resume/"
              "--allow-partial apply only to replicated sweeps; add "
              "--replicas N", file=sys.stderr)
        return 2
    if supervised and len(ids) > 1 and (args.checkpoint or args.resume):
        print("run: --checkpoint/--resume journal one sweep; give a "
              "single experiment id", file=sys.stderr)
        return 2
    out_dir = Path(args.out) if args.out else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    payload: dict[str, dict] = {}
    breached: list[str] = []
    for exp_id in ids:
        profiler = None
        if args.profile:
            from repro.obs.perf import Profiler

            profiler = Profiler(mode=args.profile)
        if args.replicas > 1:
            from repro.parallel import ReplicaFailedError, run_replicated

            try:
                result = run_replicated(
                    exp_id, replicas=args.replicas,
                    workers=args.workers, seed=args.seed,
                    replica_timeout=args.replica_timeout,
                    retries=(2 if args.retries is None
                             else args.retries),
                    partial=args.allow_partial,
                    checkpoint=args.checkpoint,
                    resume=args.resume,
                    probe=args.probe,
                    slo=slo_specs,
                    live=args.live)
            except ReplicaFailedError as error:
                print(f"run: {exp_id}: {error}", file=sys.stderr)
                if args.checkpoint or args.resume:
                    journal = args.checkpoint or args.resume
                    print(f"run: completed replicas are journaled in "
                          f"{journal}; rerun with --resume {journal} "
                          f"to continue, or --allow-partial to merge "
                          f"the survivors", file=sys.stderr)
                return 1
        else:
            import gc
            from time import perf_counter

            from repro.des import kernel_counters

            # Collect leftovers from earlier experiments in this
            # process before the timed run, so that freeing them is
            # not charged to this run.
            gc.collect()
            before = kernel_counters().snapshot()
            start = perf_counter()
            with profiler or nullcontext():
                result = experiments.run(
                    exp_id, seed=args.seed,
                    trace=(args.trace if profiler is None
                           else profiler.tracer),
                    scenario=args.scenario, probe=args.probe,
                    slo=slo_specs)
            wall = perf_counter() - start
            after = kernel_counters().snapshot()
            if profiler is not None:
                # The attribution tracer stores no events; detach it
                # so the payload is that of an unprofiled run.
                result.tracer = None
                result.report.trace = None
            # This run's kernel activity: counter deltas plus the
            # wall-clock execution rate (a timing field, like
            # report.wall_seconds — not part of the deterministic
            # payload, which is why it lives beside the result
            # rather than inside it).
            executed = after["events_executed"] - before["events_executed"]
            kernel_delta = {
                "events_scheduled": (after["events_scheduled"]
                                     - before["events_scheduled"]),
                "events_executed": executed,
                "environments": (after["environments"]
                                 - before["environments"]),
                "peak_heap_depth": after["peak_heap_depth"],
                "events_per_sec": (executed / wall if wall > 0
                                   else None),
            }
        if (result.report is not None and result.report.slo is not None
                and not result.report.slo.get("ok", True)):
            breached.append(exp_id)
        if out_dir is not None and result.tracer is not None:
            trace_path = out_dir / f"{exp_id}.trace.jsonl"
            result.tracer.to_jsonl(trace_path)
            if result.report is not None:
                result.report.trace_path = str(trace_path)
        if args.json or out_dir is not None:
            payload[exp_id] = result.to_dict()
            if args.replicas <= 1:
                payload[exp_id]["kernel"] = kernel_delta
        if out_dir is not None:
            (out_dir / f"{exp_id}.json").write_text(
                result.to_json() + "\n", encoding="utf-8")
        if not args.json:
            print(f"\n--- {exp_id}: {result.claim} ---")
            result.show()
            if result.report is not None:
                print()
                for line in result.report.summary_lines():
                    print(line)
        if profiler is not None:
            _show_profile(exp_id, profiler.report, out_dir,
                          sys.stderr if args.json else sys.stdout)
    if args.json:
        document = payload[ids[0]] if len(ids) == 1 else payload
        print(json.dumps(sanitize_json(document), indent=2,
                         sort_keys=True))
    if breached and args.slo_strict:
        print(f"run: SLO breached in {', '.join(breached)}",
              file=sys.stderr)
        return 3
    return 0


def _show_profile(exp_id: str, report, out_dir: Path | None,
                  stream) -> None:
    """Print one run's profile tables and write its collapsed stacks
    into ``out_dir`` (the current directory when ``None``)."""
    tables = [report.hotspot_table(PROFILE_TOP)]
    if report.wall_by_owner:
        tables.append(report.owner_table(PROFILE_TOP))
    for table in tables:
        print(file=stream)
        print(table.render(), file=stream)
    collapsed = (out_dir or Path(".")) / f"{exp_id}.collapsed.txt"
    n_lines = report.write_collapsed(collapsed)
    print(f"{exp_id}: wrote {n_lines} collapsed stacks to {collapsed}",
          file=stream)


def _cmd_trace(args) -> int:
    ids = _resolve_ids([args.experiment])
    if ids is None:
        return 2
    exp_id = ids[0]
    result = experiments.run(exp_id, seed=args.seed, trace=True)
    out = Path(args.out) if args.out else Path(f"{exp_id}.trace.jsonl")
    n_events = result.tracer.to_jsonl(out)
    summary = result.report.trace if result.report else {}
    print(f"{exp_id}: wrote {n_events} events to {out}")
    if summary and summary.get("by_kind"):
        by_kind = ", ".join(f"{kind}={n}" for kind, n
                            in sorted(summary["by_kind"].items()))
        print(f"  kinds: {by_kind}")
    return 0


def _cmd_report(args) -> int:
    # Inputs are experiment ids (run now) or existing JSON files (a
    # RunReport or an ExperimentResult payload from `run --json`)
    # rendered as-is.
    file_inputs = [e for e in args.experiments
                   if e.endswith(".json") and Path(e).is_file()]
    id_inputs = [e for e in args.experiments if e not in file_inputs]
    ids = _resolve_ids(id_inputs) if id_inputs else []
    if ids is None:
        return 2
    if args.html and len(ids) + len(file_inputs) != 1:
        print("report: --html renders one dashboard; give exactly "
              "one experiment id or JSON file", file=sys.stderr)
        return 2
    documents: list[tuple[str, dict]] = []
    for name in file_inputs:
        try:
            documents.append(
                (name, json.loads(Path(name).read_text(
                    encoding="utf-8"))))
        except ValueError as error:
            print(f"report: {name}: {error}", file=sys.stderr)
            return 2
    for exp_id in ids:
        result = experiments.run(exp_id, seed=args.seed,
                                 probe=args.probe, slo=args.slo)
        documents.append((exp_id, result.to_dict()))
    for name, document in documents:
        if args.html:
            from repro.obs.dashboard import render_html

            try:
                page = render_html(document)
            except ValueError as error:
                print(f"report: {name}: {error}", file=sys.stderr)
                return 2
            out = Path(args.html)
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(page, encoding="utf-8")
            print(f"wrote {out}")
        elif args.json:
            print(json.dumps(sanitize_json(document), indent=2,
                             sort_keys=True))
        else:
            report_dict = document.get("report", document)
            if "experiment" in report_dict:
                from repro.obs.report import RunReport

                for line in RunReport.from_dict(
                        report_dict).summary_lines():
                    print(line)
            else:
                print(f"{name}: not a run report")
    return 0


def _cmd_check(args) -> int:
    from repro import check as repro_check
    from repro.check import (
        Severity,
        diagnostics_to_dict,
        diagnostics_to_json,
        format_diagnostic,
        make_diagnostic,
    )

    import repro.scenario as scn

    paths = [Path(p) for p in args.paths] if args.paths else []
    missing = [p for p in paths if not p.exists()]
    if missing:
        print("no such path: "
              + ", ".join(str(p) for p in missing),
              file=sys.stderr)
        return 2
    scenario_paths = [p for p in paths if scn.is_scenario_file(p)]
    source_paths = [p for p in paths if not scn.is_scenario_file(p)]
    diagnostics = []
    for path in scenario_paths:
        try:
            scenario = scn.load(path)
        except scn.SchemaError as error:
            diagnostics.append(make_diagnostic(
                "RC140", error.reason, f"{path}#{error.path}"))
        except ValueError as error:
            diagnostics.append(make_diagnostic(
                "RC140", f"not parseable as JSON: {error}",
                f"{path}#$"))
        else:
            diagnostics.extend(scn.verify(scenario, label=str(path)))
    # Without paths the whole repository is checked (or only its
    # models, under --models); paths narrow the source pass to those
    # files and run the model verifier only under --models.
    if not paths:
        diagnostics.extend(repro_check.check_repository(
            paths=[] if args.models else None))
    elif args.models or source_paths:
        diagnostics.extend(repro_check.check_repository(
            models=args.models, paths=source_paths))

    threshold = Severity.WARNING if args.strict else Severity.ERROR
    failing = [d for d in diagnostics if d.severity >= threshold]
    if args.out:
        out_path = Path(args.out)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(diagnostics_to_json(diagnostics) + "\n",
                            encoding="utf-8")
    if args.json:
        print(diagnostics_to_json(diagnostics))
    else:
        for diag in sorted(
                diagnostics,
                key=lambda d: (d.subject, d.line or 0, d.rule)):
            print(format_diagnostic(diag))
        counts = diagnostics_to_dict(diagnostics)["counts"]
        print(f"checked: {counts['error']} error(s), "
              f"{counts['warning']} warning(s), "
              f"{counts['info']} info")
    return 1 if failing else 0


def _cmd_scenario_export(args) -> int:
    import repro.scenario as scn

    ids = _resolve_ids(args.experiments)
    if ids is None:
        return 2
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    status = 0
    for exp_id in ids:
        scenarios = experiments.scenarios_of(exp_id)
        if not scenarios:
            print(f"scenario export: {exp_id} declares no scenarios "
                  "(register it with scenario=...)", file=sys.stderr)
            status = 1
            continue
        for index, scenario in enumerate(scenarios):
            stem = scenario.name or str(index)
            path = out_dir / f"{exp_id}-{stem}.json"
            scn.save(scenario, path)
            print(f"wrote {path}")
    return status


def _cmd_scenario_import(args) -> int:
    import repro.scenario as scn

    status = 0
    out_dir = Path(args.out) if args.out else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    for name in args.files:
        path = Path(name)
        try:
            scenario = scn.load(path)
        except scn.SchemaError as error:
            print(f"scenario import: {path}#{error.path}: "
                  f"{error.reason}", file=sys.stderr)
            status = 1
            continue
        except (OSError, ValueError) as error:
            print(f"scenario import: {path}: {error}",
                  file=sys.stderr)
            status = 1
            continue
        target = out_dir / path.name if out_dir is not None else path
        scn.save(scenario, target)
        sections = [section for section in
                    ("application", "task_graph", "platform",
                     "mapping", "qos")
                    if getattr(scenario, section) is not None]
        print(f"{path}: ok ({', '.join(sections)}) -> {target}")
    return status


def _cmd_scenario_generate(args) -> int:
    from repro.scenario import generate_corpus

    report = generate_corpus(
        args.out, count=args.count, seed=args.seed,
        app_fraction=args.app_fraction, mutate=args.mutate)
    print(report.summary())
    if args.min_clean is not None \
            and report.clean_fraction < args.min_clean:
        print(f"scenario generate: clean fraction "
              f"{report.clean_fraction:.0%} below required "
              f"{args.min_clean:.0%}", file=sys.stderr)
        return 1
    return 0


def _cmd_scenario_sweep(args) -> int:
    import repro.scenario as scn

    paths = []
    for name in args.paths:
        path = Path(name)
        if path.is_dir():
            paths.extend(sorted(path.glob("*.json")))
        elif path.is_file():
            paths.append(path)
        else:
            print(f"scenario sweep: no such path: {path}",
                  file=sys.stderr)
            return 2
    paths = [p for p in paths if scn.is_scenario_file(p)]
    if not paths:
        print("scenario sweep: no scenario files to sweep",
              file=sys.stderr)
        return 2
    worker_counts = tuple(int(w) for w in args.workers.split(","))
    report = scn.sweep(paths, replicas=args.replicas,
                       seed=args.seed, worker_counts=worker_counts)
    for entry in report.entries:
        if entry.ok:
            print(f"  ok {entry.path}")
        else:
            detail = entry.error or "payloads differ across workers"
            print(f"FAIL {entry.path}: {detail}")
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_scenario(args) -> int:
    handlers = {
        "export": _cmd_scenario_export,
        "import": _cmd_scenario_import,
        "generate": _cmd_scenario_generate,
        "sweep": _cmd_scenario_sweep,
    }
    handler = handlers.get(args.scenario_command)
    if handler is None:
        print("scenario: choose one of export/import/generate/sweep",
              file=sys.stderr)
        return 2
    return handler(args)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction experiments for 'Distributed "
                    "Multimedia System Design: A Holistic Perspective' "
                    "(DATE 2004).",
    )
    subparsers = parser.add_subparsers(dest="command")
    subparsers.add_parser("list", help="list available experiments")

    run_parser = subparsers.add_parser("run", help="run experiments")
    run_parser.add_argument(
        "experiments", nargs="+",
        help="experiment ids (e.g. e3 e8) or 'all'",
    )
    run_parser.add_argument("--json", action="store_true",
                            help="print the ExperimentResult as JSON")
    run_parser.add_argument("--seed", type=int, default=None,
                            help="base seed (default 0)")
    run_parser.add_argument("--trace", action="store_true",
                            help="record a kernel event trace")
    run_parser.add_argument("--out", default=None, metavar="DIR",
                            help="write <id>.json (and traces) here")
    run_parser.add_argument(
        "--scenario", default=None, metavar="FILE",
        help="substitute this scenario file for the experiment's "
             "registered scenarios (single runs only; replicate a "
             "scenario via the scenario:<path> experiment id)")
    run_parser.add_argument(
        "--replicas", type=int, default=1, metavar="N",
        help="run N independent replicas (derived seeds) and pool "
             "them with across-replica confidence intervals")
    run_parser.add_argument(
        "--workers", type=int, default=None, metavar="K",
        help="worker processes for --replicas (default: cpu count); "
             "results are identical for any K")
    run_parser.add_argument(
        "--replica-timeout", type=float, default=None, metavar="SEC",
        help="wall-clock budget per replica attempt; a hung replica "
             "is terminated and retried (default: wait forever)")
    run_parser.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="extra attempts for a crashed/hung/erroring replica "
             "(default 2; the retry reruns the same derived seed, so "
             "the merged payload never changes)")
    run_parser.add_argument(
        "--checkpoint", default=None, metavar="FILE",
        help="append each completed replica to this JSONL journal")
    run_parser.add_argument(
        "--resume", default=None, metavar="FILE",
        help="skip replicas already completed in this journal "
             "(from an interrupted sweep) and keep appending to it")
    run_parser.add_argument(
        "--allow-partial", action="store_true",
        help="merge surviving replicas when some exhaust every "
             "attempt, with failed_replicas accounting in the report "
             "(default: fail the sweep)")
    run_parser.add_argument(
        "--probe", type=float, nargs="?", const=1.0, default=None,
        metavar="SEC",
        help="sample KPI time series every SEC simulated seconds "
             "(default interval 1.0); series land in report.stats "
             "and render with 'repro report --html'")
    run_parser.add_argument(
        "--slo", action="append", default=None, metavar="SPEC",
        help="service-level objective over a time series, e.g. "
             "'probe_queue_len:mean:5 <= 10'; repeatable; verdicts "
             "and breach events land in report.slo")
    run_parser.add_argument(
        "--slo-strict", action="store_true",
        help="exit 3 when any SLO finished breached")
    run_parser.add_argument(
        "--live", action="store_true",
        help="render live per-replica progress (sim-time, events/sec) "
             "to stderr while a replicated sweep runs; display only — "
             "the merged payload is unchanged")
    run_parser.add_argument(
        "--profile", nargs="?", const="sample", default=None,
        choices=("sample", "cprofile"),
        help="profile each run: print the hotspot and simulated-"
             "process tables and write <id>.collapsed.txt flamegraph "
             "input to --out DIR (default: current directory); "
             "'sample' (default) is cheap with exact stacks, "
             "'cprofile' gives exact call counts at 3-5x the time")

    trace_parser = subparsers.add_parser(
        "trace", help="run one experiment with tracing, export JSONL")
    trace_parser.add_argument("experiment", help="experiment id")
    trace_parser.add_argument("--seed", type=int, default=None)
    trace_parser.add_argument("--out", default=None, metavar="FILE",
                              help="trace path "
                                   "(default <id>.trace.jsonl)")

    check_parser = subparsers.add_parser(
        "check",
        help="static model verification + source lint/flow analysis")
    check_parser.add_argument(
        "paths", nargs="*",
        help="source files/directories or scenario files to check "
             "(default: the model verifier plus src/ benchmarks/ "
             "examples/)")
    check_parser.add_argument(
        "--models", action="store_true",
        help="run the Layer-1 model verifier (alone, unless paths "
             "are given too)")
    check_parser.add_argument(
        "--json", action="store_true",
        help="print diagnostics as a stable JSON document")
    check_parser.add_argument(
        "--strict", action="store_true",
        help="fail (exit 1) on warnings too, not just errors")
    check_parser.add_argument(
        "--out", default=None, metavar="FILE",
        help="also write the JSON diagnostics document here")

    scenario_parser = subparsers.add_parser(
        "scenario",
        help="declarative scenario files: export, import, generate, "
             "sweep")
    scenario_sub = scenario_parser.add_subparsers(
        dest="scenario_command")
    export_parser = scenario_sub.add_parser(
        "export",
        help="write an experiment's registered scenarios as "
             "repro.scenario/v1 JSON files")
    export_parser.add_argument("experiments", nargs="+",
                               help="experiment ids or 'all'")
    export_parser.add_argument("--out", default="scenarios",
                               metavar="DIR",
                               help="output directory "
                                    "(default scenarios/)")
    import_parser = scenario_sub.add_parser(
        "import",
        help="validate scenario files and rewrite them in canonical "
             "byte-stable form")
    import_parser.add_argument("files", nargs="+",
                               help="scenario JSON files")
    import_parser.add_argument(
        "--out", default=None, metavar="DIR",
        help="write canonical copies here instead of in place")
    generate_parser = scenario_sub.add_parser(
        "generate",
        help="sample a seeded corpus of verifier-clean scenarios")
    generate_parser.add_argument("--count", type=int, default=100,
                                 metavar="N",
                                 help="samples to draw (default 100)")
    generate_parser.add_argument("--seed", type=int, default=0,
                                 help="master seed (default 0)")
    generate_parser.add_argument("--out", default="corpus",
                                 metavar="DIR",
                                 help="corpus directory "
                                      "(default corpus/)")
    generate_parser.add_argument(
        "--mutate", type=float, default=0.0, metavar="P",
        help="probability of injecting a deliberate defect per "
             "sample; defects are minimized into counterexamples/ "
             "(default 0)")
    generate_parser.add_argument(
        "--app-fraction", type=float, default=0.7, metavar="F",
        help="fraction of samples that are application scenarios "
             "rather than task-graph scenarios (default 0.7)")
    generate_parser.add_argument(
        "--min-clean", type=float, default=None, metavar="FRAC",
        help="exit 1 when the clean fraction falls below FRAC "
             "(e.g. 0.95)")
    sweep_parser = scenario_sub.add_parser(
        "sweep",
        help="differentially replicate scenario files; fail unless "
             "merged payloads are byte-identical across worker "
             "counts")
    sweep_parser.add_argument(
        "paths", nargs="+",
        help="scenario files or corpus directories (top-level "
             "*.json)")
    sweep_parser.add_argument("--replicas", type=int, default=2,
                              metavar="N",
                              help="replicas per run (default 2)")
    sweep_parser.add_argument("--seed", type=int, default=0,
                              help="base seed (default 0)")
    sweep_parser.add_argument(
        "--workers", default="1,4", metavar="CSV",
        help="comma-separated worker counts to compare "
             "(default 1,4)")

    report_parser = subparsers.add_parser(
        "report",
        help="print run reports, or render an HTML dashboard")
    report_parser.add_argument(
        "experiments", nargs="+",
        help="experiment ids, 'all', or existing JSON files (a "
             "RunReport or a 'run --json' payload)")
    report_parser.add_argument("--seed", type=int, default=None)
    report_parser.add_argument("--json", action="store_true",
                               help="print the RunReport as JSON")
    report_parser.add_argument(
        "--html", default=None, metavar="FILE",
        help="write a self-contained HTML dashboard (SVG sparklines, "
             "KPI tables, SLO breach timeline) to FILE")
    report_parser.add_argument(
        "--probe", type=float, nargs="?", const=1.0, default=None,
        metavar="SEC",
        help="sample KPI time series while running (as 'run --probe')")
    report_parser.add_argument(
        "--slo", action="append", default=None, metavar="SPEC",
        help="evaluate this SLO spec (as 'run --slo'); repeatable")

    args = parser.parse_args(argv)

    if args.command == "list" or args.command is None:
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "check":
        return _cmd_check(args)
    if args.command == "scenario":
        return _cmd_scenario(args)
    if args.command == "report":
        return _cmd_report(args)
    parser.error(f"unknown command {args.command!r}")
    return 2
