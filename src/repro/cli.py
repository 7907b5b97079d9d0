"""Command-line interface for the PerfXplain reproduction.

The subcommands cover the typical workflow:

``repro-perfxplain generate-log --grid small --output log.json``
    Simulate a workload grid and save the execution log.  The output
    suffix picks the format: ``.json`` (pretty document), ``.jsonl``
    (streaming, one record per line), and either with a trailing ``.gz``
    for transparent gzip compression.

``repro-perfxplain ingest --input job.jhist --output log.jsonl``
    Parse a *real* log — Hadoop JobHistory (``.jhist``) or a Spark event
    log, sniffed automatically — into canonical job/task records and save
    them as a native execution log.  ``--strict`` turns skipped lines,
    unknown events and truncated entities into hard errors.

``repro-perfxplain detect --log log.jsonl``
    Run the deterministic rule-based detectors (data skew, stragglers,
    misconfiguration, cluster underuse) over a log — native or real —
    each answering its own PXQL query (or one given with ``--query``)
    with threshold evidence attached to the explanation metrics.

``repro-perfxplain explain --log log.json --query query.pxql``
    Parse a PXQL query (from a file or stdin) and print the explanation,
    as text or (with ``--format json``) as a machine-readable report.

``repro-perfxplain evaluate --log log.json --query-name WhySlowerDespiteSameNumInstances``
    Run the cross-validated precision-vs-width comparison of every
    registered technique for one of the paper's queries.

``repro-perfxplain diff --before monday.jsonl --after tuesday.jsonl``
    Explain a regression between two runs: merge the logs under a
    cross-log view, auto-generate the job-level comparison, learn an
    explanation for the highest-contrast cross-run pair, run every
    deterministic detector on both sides, and print the "what changed
    and why" report (``--format json`` for the machine-readable form).
    Inputs are format-sniffed like ``ingest``, so native logs, Hadoop
    ``.jhist`` and Spark event logs all work; with ``--url`` the names
    address logs served by a running ``serve`` instance instead
    (``POST /v1/diff``).

``repro-perfxplain serve --log prod=prod.jsonl.gz --log staging=st.json --port 8000``
    Run the long-lived query service: every ``--log name=path`` registers
    an execution log in the catalog (lazily loaded on first query), and
    PXQL queries are answered as JSON over HTTP (``POST /v1/query``,
    ``POST /v1/batch``, ``POST /v1/evaluate``, ``POST /v1/diff``,
    ``POST /v1/logs/{name}/append``; ``GET /v1/logs`` for catalog and
    cache statistics).  See :class:`repro.service.ServiceClient` for the
    matching client.

``repro-perfxplain append --url http://127.0.0.1:8000 --log prod --input live.jsonl``
    Tail a growing ``.jsonl`` record file into a served log: records
    already present are batched into ``POST /v1/logs/{name}/append``
    calls, and with ``--follow`` the command keeps watching the file and
    ships new lines as they appear — live, O(delta) growth of the
    server's log, no restart.

``explain`` and ``evaluate`` are thin shells over the same service layer
``serve`` exposes: they build the versioned request objects of
:mod:`repro.service.protocol` and execute them in-process, so the
programmatic, CLI and HTTP entry points share one code path.

The ``--technique`` argument accepts any name in the explainer registry;
``--plugin`` imports a module (dotted name or ``.py`` path) before
dispatch, so custom techniques registered with ``@register_explainer``
work end-to-end from the command line::

    repro-perfxplain explain --log log.json --plugin my_explainers \\
        --technique my-technique --query query.pxql
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import sys
import time
from pathlib import Path

from repro.core.queries import PAPER_QUERIES
from repro.core.registry import create_explainer
from repro.core.report import Report
from repro.core.reporting import summary_table
from repro.detectors import DETECTOR_TECHNIQUES
from repro.exceptions import ReproError
from repro.ingest import HADOOP_JHIST, SPARK_EVENTLOG, ingest_path, load_execution_log
from repro.logs.parser import parse_jsonl_line
from repro.logs.records import JobRecord
from repro.logs.writer import LOG_SUFFIXES
from repro.core.explainer import PerfXplainConfig
from repro.service import (
    DEFAULT_MAX_WORKERS,
    AppendResponse,
    DiffRequest,
    DiffResponse,
    ErrorCode,
    ErrorResponse,
    EvaluateRequest,
    LogCatalog,
    PerfXplainHTTPServer,
    PerfXplainService,
    QueryRequest,
    ServiceClient,
)
from repro.workloads.grid import build_experiment_log, paper_grid, small_grid, tiny_grid
from repro.workloads.scenarios import (
    build_catalog_log,
    build_scenario_log,
    get_scenario,
    scenario_catalog,
)

_GRIDS = {"tiny": tiny_grid, "small": small_grid, "paper": paper_grid}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-perfxplain",
        description="PerfXplain reproduction: explain MapReduce performance differences.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser("generate-log", help="simulate a workload grid")
    generate.add_argument("--grid", choices=sorted(_GRIDS), default="small",
                          help="which parameter grid to run (default: small)")
    generate.add_argument("--seed", type=int, default=7, help="base random seed")
    generate.add_argument("--repetitions", type=int, default=1,
                          help="how many times to run each grid point")
    generate.add_argument("--no-tasks", action="store_true",
                          help="keep only job records (smaller output)")
    generate.add_argument("--output", type=Path, required=True,
                          help="output path (.json, .jsonl, or either + .gz)")
    generate.add_argument("--workers", type=int, default=1,
                          help="worker processes for the sweep (default: 1)")

    scenario = subparsers.add_parser(
        "generate-scenario",
        help="simulate a scenario-catalog pathology into an execution log",
    )
    scenario.add_argument("--scenario", default="all",
                          choices=sorted(scenario_catalog()) + ["all"],
                          help="catalog scenario to simulate (default: all)")
    scenario.add_argument("--seed", type=int, default=0, help="base random seed")
    scenario.add_argument("--output", type=Path, required=True,
                          help="output path (.json, .jsonl, or either + .gz)")

    ingest = subparsers.add_parser(
        "ingest",
        help="convert a real Hadoop/Spark log into a native execution log",
        description="Parse a Hadoop JobHistory (.jhist) or Spark event-log "
                    "file into canonical job/task records and save them as a "
                    "native execution log.  The input format is sniffed from "
                    "the file head unless --input-format pins it.  Ingestion "
                    "statistics (lines, events, skipped lines, unknown "
                    "events, truncated entities) are printed to stderr.",
    )
    ingest.add_argument("--input", type=Path, required=True,
                        help="real log file (.jhist or Spark event log; "
                             ".gz accepted)")
    ingest.add_argument("--input-format", dest="input_format", default="auto",
                        choices=["auto", HADOOP_JHIST, SPARK_EVENTLOG],
                        help="source format (default: sniff from the file)")
    ingest.add_argument("--output", type=Path, required=True,
                        help="output path (.json, .jsonl, or either + .gz)")
    ingest.add_argument("--strict", action="store_true",
                        help="fail on malformed lines, unknown events or "
                             "truncated entities instead of skipping them")

    detect = subparsers.add_parser(
        "detect",
        help="run deterministic rule-based detectors over a log",
        description="Run rule-based detectors (data skew, stragglers, "
                    "misconfiguration, cluster underuse) over an execution "
                    "log — native or real Hadoop/Spark, sniffed like "
                    "ingest.  Each detector answers a PXQL query (its own "
                    "default, or --query) through the same service layer "
                    "as explain; a detector whose rules do not fire "
                    "reports 'no evidence' and does not fail the run.",
    )
    detect.add_argument("--log", type=Path, required=True,
                        help="execution log (native or real Hadoop/Spark)")
    detect.add_argument("--detector", action="append", default=None,
                        dest="detectors", choices=sorted(DETECTOR_TECHNIQUES),
                        help="detector technique to run; repeatable "
                             "(default: all detectors)")
    detect.add_argument("--query", type=Path, default=None,
                        help="file containing a PXQL query to pose to every "
                             "detector (default: each detector's own query)")
    detect.add_argument("--width", type=int, default=3, help="explanation width")
    detect.add_argument("--format", choices=["text", "json"], default="text",
                        help="output format (default: text)")

    explain = subparsers.add_parser("explain", help="answer one or more PXQL queries")
    explain.add_argument("--log", type=Path, required=True, help="execution log JSON")
    explain.add_argument("--query", type=Path, action="append",
                         help="file containing a PXQL query; repeatable "
                              "(default: one query from stdin)")
    explain.add_argument("--width", type=int, default=3, help="explanation width")
    explain.add_argument("--technique", default="perfxplain",
                         help="registered technique name (built-ins: "
                              "perfxplain, ruleofthumb, simbutdiff)")
    explain.add_argument("--auto-despite", action="store_true",
                         help="let PerfXplain extend the despite clause first")
    explain.add_argument("--format", choices=["text", "json"], default="text",
                         help="output format (default: text)")
    explain.add_argument("--plugin", action="append", default=[],
                         help="module (dotted name or .py path) to import "
                              "before dispatch; may register explainers")

    evaluate = subparsers.add_parser("evaluate", help="compare techniques on a paper query")
    evaluate.add_argument("--log", type=Path, required=True, help="execution log JSON")
    evaluate.add_argument("--query-name", choices=sorted(PAPER_QUERIES),
                          default="WhySlowerDespiteSameNumInstances")
    evaluate.add_argument("--widths", type=int, nargs="+", default=[0, 1, 2, 3])
    evaluate.add_argument("--repetitions", type=int, default=3)
    evaluate.add_argument("--seed", type=int, default=0)
    evaluate.add_argument("--technique", action="append", default=None, dest="techniques",
                          help="technique to evaluate; repeatable "
                               "(default: every registered technique)")
    evaluate.add_argument("--format", choices=["text", "json"], default="text",
                          help="output format (default: text)")
    evaluate.add_argument("--plugin", action="append", default=[],
                          help="module (dotted name or .py path) to import "
                               "before dispatch; may register explainers")

    diff = subparsers.add_parser(
        "diff",
        help="explain a performance regression between two runs",
        description="Compare a before and an after execution log: the "
                    "logs are merged under a cross-log view, a job-level "
                    "PXQL comparison is generated automatically, the "
                    "learned explainer runs on the highest-contrast "
                    "cross-run pair, every deterministic detector runs "
                    "on both sides, and config/metric deltas are "
                    "reported.  Inputs are format-sniffed (native, "
                    "Hadoop .jhist, Spark event logs); with --url they "
                    "name logs served by a running service instead.",
    )
    diff.add_argument("--before", required=True,
                      help="baseline execution log: a file path, or a "
                           "served log name with --url")
    diff.add_argument("--after", required=True,
                      help="suspect execution log: a file path, or a "
                           "served log name with --url")
    diff.add_argument("--url", default=None,
                      help="base URL of a running service; --before/--after "
                           "then name logs in its catalog (POST /v1/diff)")
    diff.add_argument("--width", type=int, default=None,
                      help="explanation width (default: the configured width)")
    diff.add_argument("--technique", default="perfxplain",
                      help="learned technique for the cross-run pair "
                           "(default: perfxplain)")
    diff.add_argument("--workers", type=int, default=1,
                      help="processes the cross-run pair filtering shards "
                           "across; the report is bit-identical for every "
                           "setting (default: 1)")
    diff.add_argument("--seed", type=int, default=0,
                      help="seed for the learned explainer (default: 0)")
    diff.add_argument("--format", choices=["text", "json"], default="text",
                      help="output format (default: text)")
    diff.add_argument("--plugin", action="append", default=[],
                      help="module (dotted name or .py path) to import "
                           "before dispatch; may register explainers")

    serve = subparsers.add_parser(
        "serve",
        help="run the long-lived query service over HTTP",
        description="Serve a catalog of execution logs as a JSON-over-HTTP "
                    "query service.  Logs are loaded lazily on first query "
                    "and each gets a shared session, so repeated traffic "
                    "reuses record blocks, training matrices and whole "
                    "explanations.  Endpoints: POST /v1/query, /v1/batch, "
                    "/v1/evaluate, /v1/diff; GET /v1/logs (catalog + cache "
                    "stats), /v1/metrics (latency percentiles), /v1/health.",
    )
    serve.add_argument("--log", action="append", required=True, metavar="NAME=PATH",
                       help="register an execution log under NAME (repeatable; "
                            "a bare PATH uses the file stem as the name); "
                            "accepts .json, .jsonl and gzipped variants")
    serve.add_argument("--host", default="127.0.0.1",
                       help="interface to bind (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8000,
                       help="TCP port; 0 picks a free one (default: 8000)")
    serve.add_argument("--workers", type=int, default=DEFAULT_MAX_WORKERS,
                       help="query-executor threads (default: derived from the "
                            f"CPU count, here {DEFAULT_MAX_WORKERS})")
    serve.add_argument("--seed", type=int, default=0,
                       help="seed for every per-log session (default: 0)")
    serve.add_argument("--verbose", action="store_true",
                       help="log one line per handled HTTP request")
    serve.add_argument("--plugin", action="append", default=[],
                       help="module (dotted name or .py path) to import "
                            "before serving; may register explainers")

    append = subparsers.add_parser(
        "append",
        help="tail a growing .jsonl record file into a served log",
        description="Ship job/task records from a .jsonl file into a "
                    "running service via POST /v1/logs/{name}/append.  "
                    "Records already in the file are sent in batches; "
                    "--follow keeps watching the file and appends new "
                    "complete lines as they are written.  Duplicate ids "
                    "reject a batch atomically (HTTP 409), so re-running "
                    "against a log that already holds the records fails "
                    "loudly instead of double-counting.",
    )
    append.add_argument("--url", required=True,
                        help="base URL of the running service "
                             "(e.g. http://127.0.0.1:8000)")
    append.add_argument("--log", required=True,
                        help="catalog name of the served log to grow")
    append.add_argument("--input", type=Path, required=True,
                        help="record-per-line .jsonl file to tail "
                             "(the optional meta header line is skipped)")
    append.add_argument("--batch-size", type=int, default=1000,
                        help="records per append request (default: 1000)")
    append.add_argument("--follow", action="store_true",
                        help="keep watching the file for new lines "
                             "(stop with Ctrl-C)")
    append.add_argument("--poll", type=float, default=1.0,
                        help="seconds between file checks with --follow "
                             "(default: 1.0)")
    return parser


def _load_plugins(specs: list[str]) -> None:
    """Import each plugin module so its ``@register_explainer`` calls run."""
    for spec in dict.fromkeys(specs):
        path = Path(spec)
        if path.suffix == ".py":
            if not path.exists():
                raise ReproError(f"plugin file {spec!r} does not exist")
            module_spec = importlib.util.spec_from_file_location(path.stem, path)
            if module_spec is None or module_spec.loader is None:
                raise ReproError(f"cannot load plugin from {spec!r}")
            module = importlib.util.module_from_spec(module_spec)
            added = path.stem not in sys.modules
            if added:
                sys.modules[path.stem] = module
            try:
                module_spec.loader.exec_module(module)
            except ReproError:
                if added:
                    sys.modules.pop(path.stem, None)
                raise
            except Exception as error:
                if added:
                    sys.modules.pop(path.stem, None)
                raise ReproError(f"plugin {spec!r} failed to load: {error}") from error
        else:
            try:
                importlib.import_module(spec)
            except ReproError:
                raise
            except Exception as error:
                raise ReproError(
                    f"cannot import plugin module {spec!r}: {error}"
                ) from error


def _cmd_generate_log(args: argparse.Namespace) -> int:
    grid = _GRIDS[args.grid]()
    print(f"Simulating {len(grid)} configurations "
          f"({args.repetitions} repetition(s), seed {args.seed})...", file=sys.stderr)
    log = build_experiment_log(
        grid, seed=args.seed, repetitions=args.repetitions,
        include_tasks=not args.no_tasks, workers=args.workers,
    )
    log.save(args.output)
    print(f"Wrote {log.num_jobs} jobs and {log.num_tasks} tasks to {args.output}",
          file=sys.stderr)
    return 0


def _cmd_generate_scenario(args: argparse.Namespace) -> int:
    if args.scenario == "all":
        names = sorted(scenario_catalog())
        print(f"Simulating all {len(names)} catalog scenarios...", file=sys.stderr)
        log = build_catalog_log(seed=args.seed)
    else:
        scenario = get_scenario(args.scenario)
        print(f"Simulating scenario {scenario.name!r} ({scenario.knobs})...",
              file=sys.stderr)
        log = build_scenario_log(scenario, seed=args.seed)
    log.save(args.output)
    print(f"Wrote {log.num_jobs} jobs and {log.num_tasks} tasks to {args.output}",
          file=sys.stderr)
    return 0


def _single_log_service(path: Path) -> PerfXplainService:
    """An in-process service fronting one log under the name ``default``.

    ``explain``, ``evaluate`` and ``detect`` execute through this, so the
    CLI answers queries via exactly the code path the HTTP endpoint uses.
    Loading is eager here — and format-sniffing, so real Hadoop JobHistory
    and Spark event-log files work wherever native logs do — because a
    missing or malformed log file should fail before any query work starts.
    """
    log, _ = load_execution_log(path)
    catalog = LogCatalog()
    catalog.register("default", log)
    return PerfXplainService(catalog)


def _cmd_ingest(args: argparse.Namespace) -> int:
    result = ingest_path(args.input, format=args.input_format, strict=args.strict)
    stats = result.stats
    print(f"Ingested {args.input} [{result.source_format}]: "
          f"{stats.jobs} job(s), {stats.tasks} task(s) "
          f"from {stats.lines} line(s) / {stats.events} event(s)",
          file=sys.stderr)
    if not stats.clean:
        print(f"  skipped lines: {stats.skipped_lines}, "
              f"unknown events: {stats.unknown_events}, "
              f"truncated entities: {stats.truncated_entities}, "
              f"missing counters: {stats.missing_counters}",
              file=sys.stderr)
    result.log.save(args.output)
    print(f"Wrote {result.log.num_jobs} jobs and {result.log.num_tasks} tasks "
          f"to {args.output}", file=sys.stderr)
    return 0


def _cmd_detect(args: argparse.Namespace) -> int:
    detectors = tuple(args.detectors) if args.detectors else DETECTOR_TECHNIQUES
    query_text = (
        args.query.read_text(encoding="utf-8") if args.query is not None else None
    )
    report: list[dict] = []
    with _single_log_service(args.log) as service:
        for name in detectors:
            text = query_text or create_explainer(name).default_query
            request = QueryRequest(
                log="default", query=text, width=args.width, technique=name,
            )
            item = service.execute(request)
            if isinstance(item, ErrorResponse):
                if item.code == ErrorCode.EXPLANATION_FAILED:
                    # A detector whose rules do not fire is a result, not
                    # a failure: report it and keep going.
                    report.append({"detector": name, "fired": False,
                                   "reason": item.message})
                    continue
                raise ReproError(item.message)
            entry = item.entry
            assert entry.explanation is not None
            report.append({
                "detector": name,
                "fired": True,
                "first_id": entry.first_id,
                "second_id": entry.second_id,
                "explanation": entry.explanation,
            })

    if args.format == "json":
        serializable = [
            {**item, "explanation": item["explanation"].to_dict()}
            if item["fired"] else item
            for item in report
        ]
        print(json.dumps(serializable, indent=2, sort_keys=True))
        return 0
    for item in report:
        print(f"== {item['detector']} ==")
        if not item["fired"]:
            print(f"no evidence: {item['reason']}")
            continue
        if item["first_id"] and item["second_id"]:
            print(f"Pair of interest: {item['first_id']} vs {item['second_id']}",
                  file=sys.stderr)
        explanation = item["explanation"]
        print(explanation.format())
        metrics = explanation.metrics
        if metrics is not None and metrics.evidence:
            for key, value in metrics.evidence:
                print(f"  {key} = {value:g}")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    _load_plugins(args.plugin)
    if args.query:
        texts = [path.read_text(encoding="utf-8") for path in args.query]
    else:
        texts = [sys.stdin.read()]
    requests = [
        QueryRequest(
            log="default", query=text, width=args.width,
            technique=args.technique, auto_despite=args.auto_despite,
        )
        for text in texts
    ]
    report = Report()
    with _single_log_service(args.log) as service:
        # Sequential on purpose: every request targets the same log (whose
        # traffic the service serialises anyway), and executing one at a
        # time preserves the pre-service behaviour of aborting on the
        # first failing query without paying for the rest.
        for request in requests:
            item = service.execute(request)
            if isinstance(item, ErrorResponse):
                raise ReproError(item.message)
            report.add(item.entry)

    if args.format == "json":
        print(report.to_json(indent=2))
    else:
        for entry in report:
            if entry.first_id and entry.second_id:
                print(f"Pair of interest: {entry.first_id} vs {entry.second_id}",
                      file=sys.stderr)
            assert entry.explanation is not None
            print(entry.explanation.format())
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    _load_plugins(args.plugin)
    request = EvaluateRequest(
        log="default",
        query=str(PAPER_QUERIES[args.query_name]()),
        widths=tuple(args.widths),
        repetitions=args.repetitions,
        seed=args.seed,
        techniques=tuple(args.techniques) if args.techniques else None,
    )
    with _single_log_service(args.log) as service:
        response = service.execute(request)
    if isinstance(response, ErrorResponse):
        raise ReproError(response.message)
    print(f"Pair of interest: {response.first_id} vs {response.second_id}",
          file=sys.stderr)
    if args.format == "json":
        print(json.dumps(response.to_dict(), indent=2, sort_keys=True))
    else:
        print("Precision on the held-out log:")
        print(summary_table(response.results, "precision"))
        print("\nGenerality on the held-out log:")
        print(summary_table(response.results, "generality"))
    return 0


def _parse_log_specs(specs: list[str]) -> list[tuple[str, Path]]:
    """``NAME=PATH`` (or bare ``PATH``) serve arguments -> (name, path)."""
    entries: list[tuple[str, Path]] = []
    for spec in specs:
        name, separator, path_text = spec.partition("=")
        if separator:
            name = name.strip()
            if not name or not path_text:
                raise ReproError(
                    f"invalid --log {spec!r}: expected NAME=PATH with both parts"
                )
            entries.append((name, Path(path_text)))
        else:
            path = Path(spec)
            name = path.name
            for suffix in LOG_SUFFIXES:
                if name.lower().endswith(suffix):
                    name = name[: -len(suffix)]
                    break
            if not name:
                raise ReproError(f"cannot derive a log name from {spec!r}")
            entries.append((name, path))
    return entries


def _cmd_append(args: argparse.Namespace) -> int:
    if args.batch_size < 1:
        raise ReproError("--batch-size must be >= 1")
    if not args.input.exists():
        raise ReproError(f"input file {args.input} does not exist")
    client = ServiceClient(args.url)
    jobs: list = []
    tasks: list = []
    sent_jobs = sent_tasks = 0
    line_number = 0

    def flush() -> None:
        nonlocal sent_jobs, sent_tasks
        if not jobs and not tasks:
            return
        response = client.append(args.log, jobs=tuple(jobs), tasks=tuple(tasks))
        if isinstance(response, ErrorResponse):
            raise ReproError(f"append rejected ({response.code}): {response.message}")
        assert isinstance(response, AppendResponse)
        sent_jobs += len(jobs)
        sent_tasks += len(tasks)
        print(f"appended {len(jobs)} job(s), {len(tasks)} task(s); "
              f"log {args.log!r} now holds {response.num_jobs} jobs, "
              f"{response.num_tasks} tasks", file=sys.stderr)
        jobs.clear()
        tasks.clear()

    def take(line: str) -> None:
        nonlocal line_number
        line_number += 1
        record = parse_jsonl_line(line, line_number)
        if record is None:
            return
        (jobs if isinstance(record, JobRecord) else tasks).append(record)
        if len(jobs) + len(tasks) >= args.batch_size:
            flush()

    try:
        with open(args.input, "r", encoding="utf-8") as handle:
            # Manual buffering so --follow never parses a half-written
            # line: only text up to the last newline is consumed; the
            # remainder waits for the writer to finish it.
            pending = ""
            while True:
                chunk = handle.read()
                if chunk:
                    *complete, pending = (pending + chunk).split("\n")
                    for line in complete:
                        take(line)
                    continue
                if not args.follow:
                    break
                flush()
                time.sleep(args.poll)
            if pending.strip():
                # No trailing newline and no writer to wait for: the
                # final line is complete by definition.
                take(pending)
            flush()
    except KeyboardInterrupt:
        flush()
        print("stopped", file=sys.stderr)
    print(f"done: {sent_jobs} job(s) and {sent_tasks} task(s) appended "
          f"from {args.input}", file=sys.stderr)
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    _load_plugins(args.plugin)
    if args.url:
        client = ServiceClient(args.url)
        response = client.diff(
            args.before, args.after, width=args.width, technique=args.technique
        )
    else:
        # Local mode mirrors the served path exactly: load both logs,
        # register them in a throwaway catalog, and execute the same
        # DiffRequest the HTTP endpoint would — one code path, and the
        # report is bit-identical to a served diff of the same logs.
        before_log, _ = load_execution_log(Path(args.before))
        after_log, _ = load_execution_log(Path(args.after))
        catalog = LogCatalog(
            config=PerfXplainConfig(pair_workers=args.workers), seed=args.seed
        )
        catalog.register("before", before_log)
        catalog.register("after", after_log)
        with PerfXplainService(catalog) as service:
            response = service.execute(
                DiffRequest(
                    before="before",
                    after="after",
                    width=args.width,
                    technique=args.technique,
                )
            )
    if isinstance(response, ErrorResponse):
        raise ReproError(response.message)
    assert isinstance(response, DiffResponse)
    if args.format == "json":
        print(response.report.to_json(indent=2))
    else:
        print(response.report.format())
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    _load_plugins(args.plugin)
    catalog = LogCatalog(seed=args.seed)
    for name, path in _parse_log_specs(args.log):
        catalog.register_path(name, path)
    service = PerfXplainService(catalog, max_workers=args.workers)
    server = PerfXplainHTTPServer(
        service, host=args.host, port=args.port, verbose=args.verbose
    )
    names = ", ".join(catalog.names())
    print(f"Serving {len(catalog)} log(s) [{names}] on {server.url}", file=sys.stderr)
    print("Endpoints: POST /v1/query /v1/batch /v1/evaluate /v1/diff "
          "/v1/logs/{name}/append; GET /v1/logs /v1/metrics /v1/health",
          file=sys.stderr)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        server.stop()
        service.close()
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "generate-log": _cmd_generate_log,
        "generate-scenario": _cmd_generate_scenario,
        "ingest": _cmd_ingest,
        "detect": _cmd_detect,
        "explain": _cmd_explain,
        "evaluate": _cmd_evaluate,
        "diff": _cmd_diff,
        "serve": _cmd_serve,
        "append": _cmd_append,
    }
    try:
        return handlers[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
