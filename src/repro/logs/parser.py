"""Parsers for the log formats emitted by :mod:`repro.logs.writer`.

Two formats are read here:

* the Hadoop job-history-style text format
  (:func:`parse_job_history`) — deliberately forgiving about unknown
  record types and attributes (real job-history files carry many more
  event lines than we emit), but strict about malformed attribute syntax
  and missing mandatory fields;
* the JSONL execution-log format (:func:`read_records_jsonl`) — one JSON
  record per line, transparently gzip-decompressed for ``.jsonl.gz``
  paths.

Both raise :class:`~repro.exceptions.LogFormatError` with the offending
line number on malformed input.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from repro.exceptions import LogFormatError
from repro.logs.records import (
    FeatureValue,
    JobRecord,
    TaskRecord,
    record_from_dict,
)
from repro.logs.writer import JSONL_FORMAT, JSONL_VERSION, open_log_text

_ATTRIBUTE_RE = re.compile(r'([A-Z_]+)="((?:[^"\\]|\\.)*)"')
_LINE_RE = re.compile(r"^([A-Za-z]+)\s+(.*?)\s*\.?\s*$")


def _unescape(value: str) -> str:
    return value.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")


def _decode_value(type_tag: str, text: str) -> FeatureValue:
    if type_tag == "null":
        return None
    if type_tag == "bool":
        return text == "true"
    if type_tag == "int":
        return int(text)
    if type_tag == "float":
        return float(text)
    if type_tag == "str":
        return text
    raise LogFormatError(f"unknown feature type tag: {type_tag!r}")


def _parse_line(line: str, line_number: int) -> tuple[str, dict[str, str]] | None:
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    match = _LINE_RE.match(stripped)
    if not match:
        raise LogFormatError(f"line {line_number}: malformed record: {line!r}")
    record_type, body = match.group(1), match.group(2)
    attributes = {key: _unescape(value) for key, value in _ATTRIBUTE_RE.findall(body)}
    return record_type, attributes


def parse_job_history_text(text: str) -> tuple[JobRecord, list[TaskRecord]]:
    """Parse one job-history document into a job record and its tasks."""
    job_attributes: dict[str, str] | None = None
    job_features: dict[str, FeatureValue] = {}
    task_order: list[str] = []
    task_attributes: dict[str, dict[str, str]] = {}
    task_features: dict[str, dict[str, FeatureValue]] = {}
    config: dict[str, str] = {}

    for line_number, line in enumerate(text.splitlines(), start=1):
        parsed = _parse_line(line, line_number)
        if parsed is None:
            continue
        record_type, attributes = parsed
        if record_type == "Meta":
            continue
        if record_type == "Job":
            if job_attributes is not None:
                raise LogFormatError(
                    f"line {line_number}: multiple Job lines in one history file"
                )
            job_attributes = attributes
        elif record_type == "JobConf":
            key = attributes.get("KEY")
            if key:
                config[key] = attributes.get("VALUE", "")
        elif record_type == "Task":
            task_id = attributes.get("TASKID")
            if not task_id:
                raise LogFormatError(f"line {line_number}: Task line without TASKID")
            if task_id in task_attributes:
                raise LogFormatError(f"line {line_number}: duplicate task {task_id}")
            task_order.append(task_id)
            task_attributes[task_id] = attributes
            task_features[task_id] = {}
        elif record_type == "Feature":
            scope = attributes.get("SCOPE")
            owner = attributes.get("OWNER")
            name = attributes.get("NAME")
            if not name or not owner:
                raise LogFormatError(f"line {line_number}: Feature line missing NAME/OWNER")
            value = _decode_value(attributes.get("TYPE", "str"), attributes.get("VALUE", ""))
            if scope == "job":
                job_features[name] = value
            elif scope == "task":
                if owner not in task_features:
                    raise LogFormatError(
                        f"line {line_number}: Feature for unknown task {owner}"
                    )
                task_features[owner][name] = value
            else:
                raise LogFormatError(f"line {line_number}: unknown feature scope {scope!r}")
        # Unknown record types are ignored on purpose.

    if job_attributes is None:
        raise LogFormatError("history file does not contain a Job line")
    job_id = job_attributes.get("JOBID")
    if not job_id:
        raise LogFormatError("Job line is missing JOBID")
    try:
        duration = float(job_attributes.get("DURATION", "nan"))
    except ValueError as exc:
        raise LogFormatError("Job line has a non-numeric DURATION") from exc
    if duration != duration:  # NaN check
        raise LogFormatError("Job line is missing DURATION")

    job = JobRecord(job_id=job_id, features=job_features, duration=duration)
    tasks: list[TaskRecord] = []
    for task_id in task_order:
        attributes = task_attributes[task_id]
        try:
            task_duration = float(attributes.get("DURATION", "nan"))
        except ValueError as exc:
            raise LogFormatError(f"task {task_id} has a non-numeric DURATION") from exc
        if task_duration != task_duration:
            raise LogFormatError(f"task {task_id} is missing DURATION")
        tasks.append(
            TaskRecord(
                task_id=task_id,
                job_id=attributes.get("JOBID", job_id),
                features=task_features[task_id],
                duration=task_duration,
            )
        )
    return job, tasks


def parse_job_history(path: str | Path) -> tuple[JobRecord, list[TaskRecord]]:
    """Parse a job-history file from disk."""
    return parse_job_history_text(Path(path).read_text(encoding="utf-8"))


def _jsonl_record(payload: object, where: str) -> JobRecord | TaskRecord | None:
    """One parsed JSON record -> a record, or ``None`` for the meta header.

    The validation both native formats share: ``where`` locates the record
    in error messages (``"line 7"`` in a JSONL file, ``"jobs[3]"`` in a
    JSON document).
    """
    if not isinstance(payload, dict):
        raise LogFormatError(
            f"{where}: expected a JSON object, got {type(payload).__name__}"
        )
    if payload.get("kind") == "meta":
        log_format = payload.get("format", JSONL_FORMAT)
        if log_format != JSONL_FORMAT:
            raise LogFormatError(f"{where}: unknown JSONL log format {log_format!r}")
        version = payload.get("version", JSONL_VERSION)
        if version != JSONL_VERSION:
            raise LogFormatError(
                f"{where}: unsupported JSONL log version {version!r}"
            )
        return None
    try:
        return record_from_dict(payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise LogFormatError(f"{where}: invalid record: {exc}") from exc


def parse_jsonl_line(line: str, line_number: int = 0) -> JobRecord | TaskRecord | None:
    """Parse one line of a JSONL execution log into a record.

    Returns ``None`` for blank lines and the optional ``meta`` header, so
    a tailer can feed every line of a growing file through unchanged.

    :raises LogFormatError: for invalid JSON or a malformed record;
        ``line_number`` (when given) is named in the message.
    """
    stripped = line.strip()
    if not stripped:
        return None
    try:
        payload = json.loads(stripped)
    except json.JSONDecodeError as exc:
        raise LogFormatError(f"line {line_number}: invalid JSON: {exc}") from exc
    return _jsonl_record(payload, f"line {line_number}")


def read_records_jsonl(path: str | Path) -> tuple[list[JobRecord], list[TaskRecord]]:
    """Read a JSONL execution log (plain or ``.gz``) into record lists.

    The inverse of :func:`repro.logs.writer.write_records_jsonl`.  Blank
    lines are skipped and the ``meta`` header is optional, so plain
    record-per-line files parse too.
    """
    jobs: list[JobRecord] = []
    tasks: list[TaskRecord] = []
    try:
        with open_log_text(path, "r") as handle:
            for line_number, line in enumerate(handle, start=1):
                stripped = line.strip()
                if not stripped:
                    continue
                try:
                    payload = json.loads(stripped)
                except json.JSONDecodeError as exc:
                    raise LogFormatError(
                        f"line {line_number}: invalid JSON: {exc}"
                    ) from exc
                record = _jsonl_record(payload, f"line {line_number}")
                if isinstance(record, JobRecord):
                    jobs.append(record)
                elif isinstance(record, TaskRecord):
                    tasks.append(record)
    except FileNotFoundError:
        raise
    except (OSError, EOFError) as exc:
        # gzip.BadGzipFile (truncated or mislabeled .gz files) is an OSError.
        raise LogFormatError(f"cannot read JSONL log {path}: {exc}") from exc
    return jobs, tasks
