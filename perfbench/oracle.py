"""The answer oracle: what a fresh single-threaded session would answer.

Run after the timed window.  Every distinct request that completed is
answered again outside the server: questions by a fresh
:class:`~repro.core.api.PerfXplainSession` over the same log (for
``live-growth``, a newly built log holding exactly the batches appended
before that question), diffs by a fresh
:class:`~repro.diff.engine.DiffEngine`.  Both use the service's default
explanation config and seed 0, in plain single-process mode; the
chunked and sharded paths promise byte-identical answers, so
``spill-shard`` is checked against the plain path too.  The work is split
over two worker processes.  Answers are kept on disk beside the inputs,
which are keyed by a digest of the program's sources, so a request asked
again by a later run of the same program is not answered twice.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent


def request_key(step: dict[str, Any]) -> str:
    """Identity of a request for the oracle (the log state included)."""
    return json.dumps(
        {"kind": step["kind"], "body": step["body"], "state": step["state"]},
        sort_keys=True,
    )


def comparable(document: dict[str, Any]) -> dict[str, Any]:
    """A response document without the fields allowed to differ."""
    document = json.loads(json.dumps(document))
    entry = document.get("entry")
    if isinstance(entry, dict):
        entry.pop("elapsed_ms", None)
    return {key: document[key] for key in ("entry", "report") if key in document}


def _answer_group(logs: dict[str, str], batches: list[list[str]],
                  group: list[dict[str, Any]]) -> dict[str, Any]:
    from repro.core.api import PerfXplainSession
    from repro.core.report import ReportEntry
    from repro.diff.engine import DiffEngine
    from repro.exceptions import ReproError
    from repro.logs.store import ExecutionLog

    loaded = {name: ExecutionLog.load(ROOT / path) for name, path in logs.items()}

    def log_at(state: int) -> ExecutionLog:
        """The served log after ``state`` batches, in append order."""
        if not state:
            return loaded["paper"]
        growth = loaded["growth"]
        jobs = {job.job_id: job for job in growth.jobs}
        tasks: dict[str, list] = {}
        for task in growth.tasks:
            tasks.setdefault(task.job_id, []).append(task)
        appended = [job for batch in batches[:state] for job in batch]
        log = ExecutionLog()
        log.extend(
            jobs=loaded["paper"].jobs + [jobs[j] for j in appended],
            tasks=loaded["paper"].tasks + [t for j in appended for t in tasks.get(j, [])],
        )
        return log

    answers: dict[str, Any] = {}
    sessions: dict[tuple, PerfXplainSession] = {}
    for step in group:
        body = step["body"]
        try:
            if step["kind"] == "diff":
                report = DiffEngine(
                    loaded[body["before"]], loaded[body["after"]], seed=0,
                    technique=body["technique"], width=body["width"],
                ).report()
                answers[request_key(step)] = comparable({"report": report.to_dict()})
                continue
            # One fresh session per (log state, clause signature): requests
            # sharing a signature share its matrix, as they would in any
            # single session.
            key = (body["log"], step["state"], step.get("signature", body["query"]))
            if key not in sessions:
                log = loaded[body["log"]] if body["log"] != "paper" else log_at(step["state"])
                sessions[key] = PerfXplainSession(log, seed=0)
            session = sessions[key]
            resolved = session.resolve(body["query"])
            explanation = session.explain(
                resolved, width=body["width"], technique=body["technique"]
            )
            entry = ReportEntry.for_query(resolved, explanation)
            answers[request_key(step)] = comparable({"entry": entry.to_dict()})
        except ReproError as error:
            answers[request_key(step)] = {"error": f"{type(error).__name__}: {error}"}
    return answers


def expected_answers(logs: dict[str, str], batches: list[list[str]],
                     steps: list[dict[str, Any]], cache: Path,
                     workers: int = 2) -> dict[str, Any]:
    """Oracle answers for every distinct step, keyed by :func:`request_key`.

    ``cache`` holds the answers of earlier runs, one file per request.
    """
    def path_of(key: str) -> Path:
        return cache / f"{hashlib.sha256(key.encode()).hexdigest()[:32]}.json"

    answers: dict[str, Any] = {}
    distinct: dict[str, dict[str, Any]] = {}
    for step in steps:
        key = request_key(step)
        if key in answers or key in distinct:
            continue
        if path_of(key).exists():
            answers[key] = json.loads(path_of(key).read_text())
        else:
            distinct[key] = step
    computed = _answer(logs, batches, list(distinct.values()), workers)
    cache.mkdir(parents=True, exist_ok=True)
    for key, answer in computed.items():
        tmp = path_of(key).with_suffix(".tmp")
        tmp.write_text(json.dumps(answer))
        tmp.replace(path_of(key))
    answers.update(computed)
    return answers


def _answer(logs: dict[str, str], batches: list[list[str]],
            steps: list[dict[str, Any]], workers: int) -> dict[str, Any]:
    """Answer ``steps`` (all distinct) over at most ``workers`` processes."""
    # Keep each clause signature on one worker so its matrix is built once.
    groups: list[list[dict[str, Any]]] = [[] for _ in range(workers)]
    owner: dict[Any, int] = {}
    for step in steps:
        signature = step.get("signature")
        if signature is None:
            index = min(range(workers), key=lambda i: len(groups[i]))
        else:
            index = owner.setdefault(signature, len(owner) % workers)
        groups[index].append(step)
    groups = [group for group in groups if group]
    if len(groups) < 2:
        return _answer_group(logs, batches, groups[0]) if groups else {}
    # Forked, not spawned: a spawning pool starts a resource-tracker
    # process that outlives the pool and is never waited for.
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=len(groups), mp_context=context) as pool:
        futures = [pool.submit(_answer_group, logs, batches, g) for g in groups]
        answers: dict[str, Any] = {}
        for future in futures:
            answers.update(future.result())
    return answers
