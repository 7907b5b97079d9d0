"""Run one benchmark workload against the PerfXplain HTTP service.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold-questions --seed 1 --seconds 10 --trace 0

The run makes the workload's inputs from the seed (cached on disk), starts
the service in its own process (set-up is timed three times and the
median reported), drives it over HTTP with closed-loop clients for
``--seconds``, checks every answer against the oracle outside the timed
window, prints a table of metrics and, as the last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` runs the workload untraced and then
traced, and reports the per-layer metrics.  Each run's full record goes to
``.perfbench/results/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import platform
import queue
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

#: Set-ups per untraced run; the median is reported as ``setup_s``.
SETUPS = 3
#: Seconds a server may take to become healthy, a request to answer.
SETUP_TIMEOUT = 120.0
REQUEST_TIMEOUT = 120.0

#: ``rss_after``: the server's peak memory is read once the first client
#: has this many answers -- a point every run reaches -- so that it
#: measures a fixed amount of work, not how far a faster or slower machine
#: got before the deadline (each cold question caches a matrix, each
#: append grows the log).
WORKLOADS: dict[str, dict[str, Any]] = {
    "cold-questions": {"logs": ("paper", "before", "after"), "pair_workers": 1,
                       "rss_after": 4},
    "warm-mix": {"logs": ("paper",), "pair_workers": 1, "rss_after": 100},
    "live-growth": {"logs": ("paper",), "pair_workers": 1, "rss_after": 6},
    "spill-shard": {
        "logs": ("paper",),
        "pair_workers": 2,
        "rss_after": 4,
        # ~10.2k tasks in 2048-row chunks: five chunks per encoded column,
        # far more chunks than may stay resident.
        "chunks": {"chunk_rows": 2048, "max_resident_chunks": 24},
    },
}

#: End-to-end metrics: (name, unit).  Only those that apply to every
#: workload go to BENCHMARK.json; the rest are printed and recorded.
E2E_UNITS = {
    "setup_s": "s", "requests_per_s": "1/s", "question_p50_ms": "ms",
    "question_tail_ms": "ms", "diff_p50_ms": "ms", "append_p50_ms": "ms",
    "append_tail_ms": "ms", "peak_rss_mb": "MB", "failed_share": "share",
}
E2E_REPORTED = ("setup_s", "requests_per_s", "question_p50_ms", "peak_rss_mb")


# ---------------------------------------------------------------------- #
# the server process
# ---------------------------------------------------------------------- #


class Server:
    """One service process, started and timed until ``/v1/health`` answers."""

    def __init__(self, config: dict[str, Any], tag: str) -> None:
        WORK.mkdir(exist_ok=True)
        self.config_path = WORK / f"server-{os.getpid()}-{tag}.json"
        # A spill directory of its own, deleted when the server stops: the
        # program leaves some chunk spill files behind at exit.
        self.spill = WORK / "spill" / f"{os.getpid()}-{tag}"
        if "chunks" in config:
            self.spill.mkdir(parents=True, exist_ok=True)
            config = {**config, "chunks": {**config["chunks"], "spill_directory": str(self.spill)}}
        self.config_path.write_text(json.dumps(config))
        self._lines: queue.Queue = queue.Queue()
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "server.py"), str(self.config_path)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        threading.Thread(target=self._read, daemon=True).start()
        try:
            self.ready = self._expect("READY")
            self.port = self.ready["port"]
            status, _ = request(self.port, "GET", "/v1/health")
            if status != 200:
                raise RuntimeError(f"health check answered {status}")
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - start

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _expect(self, tag: str, timeout: float = SETUP_TIMEOUT) -> dict[str, Any]:
        deadline = time.monotonic() + timeout
        while True:
            line = self._lines.get(timeout=max(0.0, deadline - time.monotonic()))
            if line is None:
                raise RuntimeError(f"server exited with {self.proc.wait()} before {tag}")
            if line.startswith(tag + " "):
                return json.loads(line[len(tag) + 1:])

    def command(self, command: str, reply: str) -> dict[str, Any]:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self._expect(reply)

    def peak_rss_kb(self) -> int | None:
        """The server's peak resident memory so far (Linux), in KiB."""
        try:
            status = Path(f"/proc/{self.proc.pid}/status").read_text()
        except OSError:
            return None
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
        return None

    def stop(self) -> dict[str, Any]:
        """Stop the server; returns its ``DONE`` report."""
        try:
            return self.command("stop", "DONE")
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.config_path.unlink(missing_ok=True)
        shutil.rmtree(self.spill, ignore_errors=True)


def request(port: int, method: str, path: str, body: bytes | None = None):
    """One request on a fresh connection; returns ``(status, body bytes)``."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT)
    try:
        connection.request(method, path, body=body, headers={
            "Content-Type": "application/json", "Connection": "close",
        })
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def server_config(workload: str, inputs: dict[str, Any], spans: Path | None) -> dict[str, Any]:
    spec = WORKLOADS[workload]
    config = {
        "logs": {name: inputs["logs"][name] for name in spec["logs"]},
        "pair_workers": spec["pair_workers"],
        "warm": [step["body"] for step in inputs["warm"]],
        "spans": str(spans) if spans else None,
    }
    if "chunks" in spec:
        config["chunks"] = spec["chunks"]
    return config


# ---------------------------------------------------------------------- #
# the timed window
# ---------------------------------------------------------------------- #


def drive(port: int, steps: list[dict[str, Any]], seconds: float,
          probe: tuple[int, Callable[[], Any]] | None = None) -> dict[str, Any]:
    """A closed-loop client that sends ``steps`` until ``seconds`` have passed.

    A request is only sent before the deadline; those in flight complete
    and count.  A step marked ``both`` is also sent, at the same moment, by
    a second client that sends nothing else.  ``probe`` is ``(n, read)``:
    ``read()`` is called once the first client has ``n`` answers, and its
    value returned as ``probed``.
    """
    records: list[dict[str, Any]] = []
    probed: list[Any] = []
    handoff: queue.Queue = queue.Queue()
    picked = threading.Semaphore(0)
    start = time.perf_counter()
    deadline = start + seconds

    def send(client: int, position: int, step: dict[str, Any]) -> None:
        sent = time.perf_counter()
        try:
            status, body = request(port, "POST", step["path"], step["payload"])
            error = None
        except (OSError, http.client.HTTPException) as exc:
            status, body, error = None, b"", f"{type(exc).__name__}: {exc}"
        records.append({
            "client": client, "position": position, "step": step, "sent": sent,
            "done": time.perf_counter(), "status": status, "body": body, "error": error,
        })

    def first_client() -> None:
        try:
            for position, step in enumerate(steps):
                if time.perf_counter() >= deadline:
                    return
                if step.get("both"):
                    handoff.put((position, step))
                    picked.acquire(timeout=1.0)
                send(0, position, step)
                if probe is not None and position + 1 == probe[0]:
                    probed.append(probe[1]())
        finally:
            handoff.put(None)

    def second_client() -> None:
        while (item := handoff.get()) is not None:
            picked.release()
            send(1, *item)

    threads = [threading.Thread(target=first_client)]
    if any(step.get("both") for step in steps):
        threads.append(threading.Thread(target=second_client))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    end = max([r["done"] for r in records], default=deadline)
    return {"records": records, "start": start, "deadline": deadline, "end": end,
            "probed": probed[0] if probed else None}


# ---------------------------------------------------------------------- #
# metrics
# ---------------------------------------------------------------------- #


def tail(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with ten samples
    beyond it; ``None`` below 20 samples."""
    if len(values) < 20:
        return None
    ordered = sorted(values)
    rank = len(ordered) - 10
    return 100.0 * rank / len(ordered), ordered[rank - 1]


def requests_per_s(window: dict[str, Any], completed: list[dict[str, Any]]) -> float:
    """Requests done per second of the timed window.

    A request counts by the share of its time that fell inside the window,
    so the one in flight at the deadline counts in part: the figure moves
    smoothly with the machine's speed instead of jumping by a whole, maybe
    long, request when one more just makes it before the deadline.
    """
    start = window["start"]
    end = min(window["deadline"], window["end"])
    done = 0.0
    for record in completed:
        spent = record["done"] - record["sent"]
        inside = min(record["done"], end) - max(record["sent"], start)
        done += inside / spent if spent > 0 else 1.0
    return done / (end - start)


def end_to_end(window: dict[str, Any], setups: list[float], rss_kb: float,
               rss_after: int, failed: int) -> dict[str, dict[str, Any]]:
    records = window["records"]
    completed = [r for r in records if r["status"] is not None]
    latency: dict[str, list[float]] = {"query": [], "diff": [], "append": []}
    for record in completed:
        latency[record["step"]["kind"]].append((record["done"] - record["sent"]) * 1000.0)
    metrics: dict[str, dict[str, Any]] = {
        "setup_s": {"value": statistics.median(setups), "samples": len(setups)},
        "requests_per_s": {"value": requests_per_s(window, completed),
                           "samples": len(completed)},
        "peak_rss_mb": {"value": rss_kb / 1024.0, "samples": 1,
                        "after_requests": rss_after},
        "failed_share": {"value": failed / max(1, len(records)), "samples": len(records)},
    }
    for kind, name in (("query", "question"), ("diff", "diff"), ("append", "append")):
        values = latency[kind]
        if values:
            metrics[f"{name}_p50_ms"] = {"value": statistics.median(values),
                                         "samples": len(values)}
        tail_value = tail(values) if kind != "diff" else None
        if tail_value is not None:
            metrics[f"{name}_tail_ms"] = {"value": tail_value[1], "samples": len(values),
                                          "percentile": round(tail_value[0], 2)}
    for name, metric in metrics.items():
        metric["unit"] = E2E_UNITS[name]
    return metrics


def _counter_totals(snapshot: dict[str, Any]) -> dict[str, float]:
    """Service counters a traced run differences over its window."""
    totals = {"executed": snapshot["executed"], "deduplicated": snapshot["deduplicated"],
              "forks": snapshot["shard_pool"]["forks"],
              "reuses": snapshot["shard_pool"]["reuses"]}
    for log in snapshot["logs"].values():
        for cache, prefix in (("explanations", "explanation"), ("matrices", "matrix"),
                              ("pairs", "pair")):
            stats = (log["cache_stats"] or {}).get(cache)
            if stats:
                totals[f"{prefix}_hits"] = totals.get(f"{prefix}_hits", 0) + stats["hits"]
                totals[f"{prefix}_lookups"] = (
                    totals.get(f"{prefix}_lookups", 0) + stats["hits"] + stats["misses"]
                )
        concurrency = log["concurrency"] or {}
        totals["waits"] = totals.get("waits", 0) + concurrency.get("waits", 0)
        invalidations = log["invalidations"] or {}
        totals["invalidations"] = totals.get("invalidations", 0) + sum(invalidations.values())
        totals["block_extends"] = (
            totals.get("block_extends", 0) + (log["versions"] or {}).get("block_extends", 0)
        )
    return totals


def _ratio(numerator: float, base: float) -> float:
    return numerator / base if base else 0.0


def per_layer(window: dict[str, Any], untraced: dict[str, Any], trace: dict[str, Any],
              before: dict[str, Any], after: dict[str, Any],
              ingest_s: float) -> dict[str, dict[str, Any]]:
    from tracing import LAYERS, ROOT_SPAN, covered, summarise

    completed = [r for r in window["records"] if r["status"] is not None]
    n = max(1, len(completed))
    # Spans of the window only: the counter scrape after it is left out.
    spans = [tuple(s) for s in trace["spans"] if s[4] <= window["end"]]
    layers, names = summarise(spans, set(trace["waiting"]))

    def own(name: str) -> float:
        return names.get(name, {}).get("self", 0.0)

    def total(name: str) -> float:
        return names.get(name, {}).get("total", 0.0)

    counts = trace["counts"]
    delta = {k: v - before.get(k, 0) for k, v in after.items()}

    def ms(seconds: float) -> dict[str, Any]:
        return {"value": seconds * 1000.0 / n, "unit": "ms"}

    def per_request(count: float) -> dict[str, Any]:
        return {"value": count / n, "unit": "count"}

    def value(number: float, unit: str) -> dict[str, Any]:
        return {"value": number, "unit": unit}

    # Tracing overhead: the same steps' latency, traced against untraced.
    def latencies(w: dict[str, Any]) -> dict[tuple, float]:
        return {(r["client"], r["position"]): r["done"] - r["sent"]
                for r in w["records"] if r["status"] is not None}

    plain, traced = latencies(untraced), latencies(window)
    common = sorted(set(plain) & set(traced))
    plain_total = sum(plain[k] for k in common)
    traced_total = sum(traced[k] for k in common)
    # Time some request was in flight at the client but no server span
    # covered (connection set-up, the network, the client itself).
    roots = [(s[4], s[5]) for s in spans if s[3] == ROOT_SPAN]
    in_flight: list[list[float]] = []
    for low, high in sorted((r["sent"], r["done"]) for r in completed):
        if in_flight and low <= in_flight[-1][1]:
            in_flight[-1][1] = max(in_flight[-1][1], high)
        else:
            in_flight.append([low, high])
    unattributed = sum(high - low - covered(roots, low, high) for low, high in in_flight)

    metrics = {
        "ingest.load_s": value(ingest_s, "s"),
        "service.http.transport_ms": ms(layers["service.http"]["self"]),
        "service.protocol.codec_ms": ms(layers["service.protocol"]["self"]),
        "service.protocol.response_bytes": value(
            sum(len(r["body"]) for r in completed) / n, "bytes"),
        "service.executor.queue_wait_ms": ms(trace["queue_wait_s"]),
        "service.executor.dedup_ratio": value(
            _ratio(delta["deduplicated"], delta["executed"] + delta["deduplicated"]), "ratio"),
        "service.executor.submitted": value(delta["executed"] + delta["deduplicated"], "count"),
        "service.error_responses": value(
            sum(1 for r in completed if r["status"] != 200), "count"),
        "core.locks.read_wait_ms": ms(total("core.locks.read")),
        "core.locks.write_wait_ms": ms(total("core.locks.write")),
        "core.api.singleflight_waits": value(delta.get("waits", 0), "count"),
        "core.api.invalidations": value(delta.get("invalidations", 0), "count"),
        "core.pxql.parse_ms": ms(own("core.pxql.parse")),
        "core.queries.find_pair_ms": ms(own("core.queries.find_pair")),
        "core.queries.pairs_scanned": per_request(counts.get("pairs_scanned", 0)),
        "core.pairkernel.filter_ms": ms(layers["core.pairkernel"]["self"]),
        "core.pairkernel.candidates": per_request(counts.get("candidates", 0)),
        "core.pairkernel.related_ratio": value(
            _ratio(counts.get("related", 0), counts.get("candidates", 0)), "ratio"),
        "core.pairkernel.capped_share": value(
            _ratio(counts.get("capped", 0), counts.get("filter_calls", 0)), "ratio"),
        "core.pairkernel.filter_calls": value(counts.get("filter_calls", 0), "count"),
        "core.examples.derive_ms": ms(own("core.examples.derive")),
        "core.sampling.sample_ms": ms(own("core.sampling.sample")),
        "core.sampling.kept_ratio": value(
            _ratio(counts.get("sample_kept", 0), counts.get("sample_in", 0)), "ratio"),
        "core.sampling.related_pairs": value(counts.get("sample_in", 0), "count"),
        "ml.matrix.encode_ms": ms(own("ml.matrix.encode")),
        "ml.matrix.cells": per_request(counts.get("cells", 0)),
        "core.explainer.explain_ms": ms(own("core.explainer.explain")),
        "core.explainer.width": value(
            _ratio(counts.get("width_sum", 0), counts.get("explanations", 0)), "atoms"),
        "core.baselines.explain_ms": ms(own("core.baselines.explain")),
        "detectors.explain_ms": ms(own("detectors.explain")),
        "diff.view_ms": ms(own("diff.view")),
        "diff.report_ms": ms(own("diff.report")),
        "logs.store.extend_ms": ms(own("logs.store.extend")),
        "logs.store.block_build_ms": ms(own("logs.store.block")),
        "logs.store.block_extends": value(delta.get("block_extends", 0), "count"),
        "core.pairshard.run_ms": ms(own("core.pairshard.run")),
        "core.pairshard.forks": value(delta["forks"], "count"),
        "core.pairshard.reuses": value(delta["reuses"], "count"),
        "trace.overhead_share": value(_ratio(traced_total, plain_total) - 1.0, "ratio"),
        "trace.untraced_ms": value(1000.0 * plain_total / max(1, len(common)), "ms"),
        "trace.unattributed_ms": ms(unattributed),
    }
    for cache in ("explanation", "matrix", "pair"):
        metrics[f"core.api.{cache}_hit_ratio"] = value(
            _ratio(delta.get(f"{cache}_hits", 0), delta.get(f"{cache}_lookups", 0)), "ratio")
        metrics[f"core.api.{cache}_lookups"] = value(delta.get(f"{cache}_lookups", 0), "count")
    for kind in ("loads", "spills", "evictions"):
        metrics[f"logs.chunkstore.{kind}"] = value(trace["chunkstore"].get(kind, 0), "count")
    for layer in LAYERS:
        for part in ("self", "busy", "wait"):
            metrics[f"{layer}.{part}_ms"] = ms(layers[layer][part])
    return metrics


# ---------------------------------------------------------------------- #
# checking answers
# ---------------------------------------------------------------------- #


def check(windows: list[dict[str, Any]], inputs: dict[str, Any],
          append_counts: dict[int, tuple[int, int]]) -> list[dict[str, Any]]:
    """Every failed request of the windows, with why it failed."""
    import inputs as inputs_module
    import oracle

    failures: list[dict[str, Any]] = []
    answered = []
    for window in windows:
        for record in window["records"]:
            step = record["step"]
            if record["status"] is None:
                failures.append({"step": record["position"], "why": record["error"]})
            elif record["status"] != 200:
                failures.append({"step": record["position"],
                                 "why": f"HTTP {record['status']}: {record['body'][:300]!r}"})
            elif step["kind"] == "append":
                got = json.loads(record["body"])
                want = append_counts[step["state"]]
                if (got["num_jobs"], got["num_tasks"]) != want:
                    failures.append({"step": record["position"],
                                     "why": f"append counts {got['num_jobs']}, "
                                            f"{got['num_tasks']} != {want}"})
            else:
                answered.append(record)
    batches = [s["jobs"] for s in inputs["steps"] if s["kind"] == "append"]
    needed = {"growth"} if batches else set()
    for record in answered:
        body = record["step"]["body"]
        needed.update([body["before"], body["after"]] if "before" in body else [body["log"]])
    logs = {name: inputs["logs"][name] for name in needed}
    expected = oracle.expected_answers(logs, batches, [r["step"] for r in answered],
                                       inputs_module.cache_dir() / "oracle")
    for record in answered:
        want = expected[oracle.request_key(record["step"])]
        got = oracle.comparable(json.loads(record["body"]))
        if got != want:
            failures.append({"step": record["position"], "client": record["client"],
                             "why": "answer differs from the oracle",
                             "request": record["step"]["body"]})
    return failures


# ---------------------------------------------------------------------- #
# the run
# ---------------------------------------------------------------------- #


def prepare(workload: str, inputs: dict[str, Any]) -> dict[int, tuple[int, int]]:
    """Serialise every step's body; returns the expected log size per batch."""
    append_counts: dict[int, tuple[int, int]] = {}
    steps = inputs["steps"]
    appends = [s for s in steps if s["kind"] == "append"]
    if appends:
        from repro.logs.store import ExecutionLog
        from repro.service.protocol import AppendRequest

        paper = ExecutionLog.load(ROOT / inputs["logs"]["paper"])
        growth = ExecutionLog.load(ROOT / inputs["logs"]["growth"])
        jobs = {job.job_id: job for job in growth.jobs}
        tasks: dict[str, list] = {}
        for task in growth.tasks:
            tasks.setdefault(task.job_id, []).append(task)
        num_jobs, num_tasks = len(paper.jobs), len(paper.tasks)
        for step in appends:
            batch_tasks = [t for job in step["jobs"] for t in tasks.get(job, [])]
            step["body"] = json.loads(AppendRequest(
                log="paper", jobs=tuple(jobs[j] for j in step["jobs"]),
                tasks=tuple(batch_tasks),
            ).to_json())
            num_jobs += len(step["jobs"])
            num_tasks += len(batch_tasks)
            append_counts[step["state"]] = (num_jobs, num_tasks)
    for step in steps + inputs.get("prewarm", []):
        step["payload"] = json.dumps(step["body"]).encode()
    return append_counts


def git_sha() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run(args: argparse.Namespace) -> dict[str, Any]:
    import inputs as inputs_module

    phases: dict[str, float] = {}
    mark = time.perf_counter()

    def phase(name: str) -> None:
        nonlocal mark
        now = time.perf_counter()
        phases[name] = phases.get(name, 0.0) + now - mark
        mark = now

    inputs = inputs_module.workload_inputs(args.workload, args.seed)
    append_counts = prepare(args.workload, inputs)
    steps = inputs["steps"]
    phase("inputs")

    def start(tag: str, spans: Path | None = None) -> Server:
        return Server(server_config(args.workload, inputs, spans), tag)

    def prewarm(server: Server) -> None:
        """Warm the signatures a workload reuses (untimed, after set-up)."""
        for step in inputs.get("prewarm", []):
            status, body = request(server.port, "POST", step["path"], step["payload"])
            if status != 200:
                server.kill()
                raise RuntimeError(f"prewarm request failed: {status} {body[:200]!r}")

    record: dict[str, Any] = {}
    if not args.trace:
        setups = []
        for attempt in range(SETUPS):
            server = start(f"setup{attempt}")
            setups.append(server.setup_s)
            if attempt < SETUPS - 1:
                server.stop()
        prewarm(server)
        phase("setup")
        rss_after = WORKLOADS[args.workload]["rss_after"]
        try:
            window = drive(server.port, steps, args.seconds,
                           probe=(rss_after, server.peak_rss_kb))
        finally:
            done = server.stop()
        phase("window")
        failures = check([window], inputs, append_counts)
        phase("oracle")
        windows = [window]
        rss_kb = window["probed"]
        if rss_kb is None:  # too few answers, or no /proc: the whole run's peak
            rss_kb, rss_after = done["peak_rss_kb"], len(window["records"])
        metrics = end_to_end(window, setups, rss_kb, rss_after, len(failures))
        reported = E2E_REPORTED
        attempted = len(window["records"])
    else:
        server = start("untraced")
        prewarm(server)
        try:
            untraced = drive(server.port, steps, args.seconds)
        finally:
            server.stop()
        spans_path = WORK / f"spans-{os.getpid()}.json"
        server = start("traced", spans_path)
        prewarm(server)
        try:
            before = _counter_totals(json.loads(request(server.port, "GET", "/v1/metrics")[1]))
            server.command("reset", "OK")
            window = drive(server.port, steps, args.seconds)
            after = _counter_totals(json.loads(request(server.port, "GET", "/v1/metrics")[1]))
        finally:
            server.stop()
        trace = json.loads(spans_path.read_text())
        spans_path.unlink()
        phase("window")
        failures = check([untraced, window], inputs, append_counts)
        phase("oracle")
        windows = [untraced, window]
        metrics = per_layer(window, untraced, trace, before, after,
                            server.ready["ingest_load_s"])
        reported = tuple(metrics)
        attempted = len(untraced["records"]) + len(window["records"])
    record.update(
        workload=args.workload, why=inputs["why"], seed=args.seed, seconds=args.seconds,
        trace=args.trace, nproc=os.cpu_count(), python=platform.python_version(),
        git_sha=git_sha(), attempted=attempted, failed=len(failures),
        failures=failures, metrics=metrics, phases_s=phases,
        requests=[
            [r["client"], r["position"], r["step"]["kind"], r["status"],
             round((r["done"] - r["sent"]) * 1000.0, 3)]
            for w in windows for r in w["records"]
        ],
    )
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name]["value"], "unit": metrics[name]["unit"]}
                    for name in reported},
    }
    return {"record": record, "result": result}


def print_table(record: dict[str, Any]) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"seconds {record['seconds']}  trace {record['trace']}  nproc {record['nproc']}  "
          f"python {record['python']}  git {record['git_sha']}")
    print(f"why: {record['why']}")
    for name, metric in record["metrics"].items():
        extra = f"  p{metric['percentile']}" if "percentile" in metric else ""
        if "after_requests" in metric:
            extra = f"  after {metric['after_requests']} requests"
        samples = f"  n={metric['samples']}" if "samples" in metric else ""
        print(f"  {name:42s} {metric['value']:14.4f} {metric['unit']:6s}{samples}{extra}")
    if record["trace"] == 0:
        omitted = [name for name in E2E_UNITS if name not in record["metrics"]]
        if omitted:
            print(f"  omitted (no samples, or under 20 for a tail): {', '.join(omitted)}")
    for failure in record["failures"]:
        print(f"  FAILED {failure}", file=sys.stderr)


# ---------------------------------------------------------------------- #
# processes
# ---------------------------------------------------------------------- #


def adopt_orphans() -> None:
    """Become the child subreaper (Linux), so that a process a server
    leaves behind -- a shard-pool worker of a killed server -- is
    re-parented here and :func:`reap_children` can stop it."""
    try:
        import ctypes

        ctypes.CDLL(None).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def reap_children() -> None:
    """Kill every child process still running and wait until it has ended."""
    me = os.getpid()
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            parent = int(stat.read_text().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        if parent != me:
            continue
        pid = int(stat.parent.name)
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


def _terminated(signum: int, frame: Any) -> None:
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", type=Path, default=WORK / "results",
                        help="directory for the run record (default .perfbench/results)")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: the program's sources are missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Every way out -- an error, or being terminated -- stops the servers
    # (``finally`` blocks) and then whatever they left behind.
    signal.signal(signal.SIGTERM, _terminated)
    adopt_orphans()
    try:
        outcome = run(args)
    finally:
        reap_children()
    record = outcome["record"]
    args.results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (args.results / name).write_text(json.dumps(record, indent=1))
    print_table(record)
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
