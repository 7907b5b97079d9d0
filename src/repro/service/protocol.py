"""The versioned request/response wire protocol of the PerfXplain service.

Every message that crosses the service boundary — programmatic calls into
:class:`repro.service.PerfXplainService`, CLI subcommands, and the HTTP
endpoint — is one of the dataclasses in this module.  Each one serialises
to a JSON-compatible dict (``to_dict``/``from_dict``/``to_json``/
``from_json`` round-trip exactly), carries a ``type`` tag for dispatch,
and declares the ``protocol_version`` it speaks.  The version is validated
on *every* request (:func:`check_protocol_version`), so a client built
against a future protocol fails loudly with a stable
:data:`ErrorCode.UNSUPPORTED_PROTOCOL` instead of being half-understood.

Failures are first-class wire objects too: an :class:`ErrorResponse` pairs
a human-readable message with a stable machine-readable code from
:class:`ErrorCode`, and :func:`error_code_for` maps the library's exception
hierarchy onto those codes in one place.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Mapping, Union

from repro.core.report import ReportEntry
from repro.diff.report import DiffReport
from repro.exceptions import (
    CatalogError,
    DuplicateRecordError,
    EvaluationError,
    ExplanationError,
    LogFormatError,
    ProtocolError,
    PXQLSyntaxError,
    PXQLValidationError,
    ReproError,
    ServiceError,
    UnknownFeatureError,
)
from repro.logs.records import (
    ExecutionRecord,
    JobRecord,
    TaskRecord,
    record_from_dict,
    record_to_dict,
)

#: The protocol version this build speaks.  Version 2 added the append
#: request/response pair and the ``duplicate_record`` error code; version 3
#: added the cross-log diff pair and the ``diff_failed`` error code.
PROTOCOL_VERSION = 3

#: Versions the service accepts.  Older clients never send the message
#: types added later, so every older request is also a valid newer one.
SUPPORTED_PROTOCOL_VERSIONS = (1, 2, 3)


class ErrorCode:
    """Stable machine-readable error codes carried by :class:`ErrorResponse`.

    These strings are part of the wire protocol: clients may dispatch on
    them, so existing values never change meaning (new codes may be added
    under a protocol-version bump).
    """

    INVALID_REQUEST = "invalid_request"
    UNSUPPORTED_PROTOCOL = "unsupported_protocol"
    UNKNOWN_LOG = "unknown_log"
    LOG_LOAD_FAILED = "log_load_failed"
    DUPLICATE_RECORD = "duplicate_record"
    INVALID_QUERY = "invalid_query"
    UNKNOWN_TECHNIQUE = "unknown_technique"
    EXPLANATION_FAILED = "explanation_failed"
    EVALUATION_FAILED = "evaluation_failed"
    DIFF_FAILED = "diff_failed"
    INTERNAL_ERROR = "internal_error"

    #: Every code the current protocol version may emit.
    KNOWN = frozenset(
        {
            INVALID_REQUEST,
            UNSUPPORTED_PROTOCOL,
            UNKNOWN_LOG,
            LOG_LOAD_FAILED,
            DUPLICATE_RECORD,
            INVALID_QUERY,
            UNKNOWN_TECHNIQUE,
            EXPLANATION_FAILED,
            EVALUATION_FAILED,
            DIFF_FAILED,
            INTERNAL_ERROR,
        }
    )


def check_protocol_version(version: object) -> int:
    """Validate a protocol-version field; returns it as an ``int``.

    :raises ProtocolError: (code ``unsupported_protocol``) for missing,
        non-integer or unsupported versions.
    """
    if isinstance(version, bool) or not isinstance(version, int):
        raise ProtocolError(
            f"protocol_version must be an integer, got {version!r}",
            code=ErrorCode.UNSUPPORTED_PROTOCOL,
        )
    if version not in SUPPORTED_PROTOCOL_VERSIONS:
        supported = ", ".join(str(v) for v in SUPPORTED_PROTOCOL_VERSIONS)
        raise ProtocolError(
            f"unsupported protocol version {version} (supported: {supported})",
            code=ErrorCode.UNSUPPORTED_PROTOCOL,
        )
    return version


def error_code_for(error: Exception) -> str:
    """The stable wire code describing a library exception."""
    if isinstance(error, ServiceError):
        return error.code
    if isinstance(error, (PXQLSyntaxError, PXQLValidationError, UnknownFeatureError)):
        return ErrorCode.INVALID_QUERY
    if isinstance(error, ExplanationError):
        # The registry reports unknown technique names as ExplanationErrors;
        # distinguish them so clients can tell a bad name from a failed run.
        if "unknown technique" in str(error):
            return ErrorCode.UNKNOWN_TECHNIQUE
        return ErrorCode.EXPLANATION_FAILED
    if isinstance(error, EvaluationError):
        return ErrorCode.EVALUATION_FAILED
    if isinstance(error, DuplicateRecordError):
        # Before the LogFormatError branch: a duplicate id on append is a
        # conflict with the log's current contents, not a malformed log.
        return ErrorCode.DUPLICATE_RECORD
    if isinstance(error, LogFormatError):
        return ErrorCode.LOG_LOAD_FAILED
    if isinstance(error, ReproError):
        return ErrorCode.INVALID_REQUEST
    return ErrorCode.INTERNAL_ERROR


def _require_mapping(data: object, what: str) -> Mapping[str, Any]:
    if not isinstance(data, Mapping):
        raise ProtocolError(f"{what} must be a JSON object, got {type(data).__name__}")
    return data


def _check_type_tag(data: Mapping[str, Any], expected: str) -> None:
    tag = data.get("type", expected)
    if tag != expected:
        raise ProtocolError(f"expected a {expected!r} message, got type {tag!r}")


def _version_of(data: Mapping[str, Any], default: int | None) -> int:
    if "protocol_version" in data:
        return check_protocol_version(data["protocol_version"])
    if default is None:
        raise ProtocolError(
            "request is missing the protocol_version field",
            code=ErrorCode.UNSUPPORTED_PROTOCOL,
        )
    return default


def _require_str(data: Mapping[str, Any], key: str, what: str) -> str:
    value = data.get(key)
    if not isinstance(value, str) or not value.strip():
        raise ProtocolError(f"{what} requires a non-empty string {key!r} field")
    return value


# --------------------------------------------------------------------- #
# requests
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class QueryRequest:
    """Ask the service to explain one PXQL query against a named log.

    :param log: catalog name of the execution log to query.
    :param query: the PXQL query text.
    :param width: explanation width (``None`` = the session default).
    :param technique: registered technique name.
    :param auto_despite: let the technique extend the despite clause first.
    :param protocol_version: protocol this request speaks.
    """

    log: str
    query: str
    width: int | None = None
    technique: str = "perfxplain"
    auto_despite: bool = False
    protocol_version: int = PROTOCOL_VERSION

    def canonical_key(self) -> tuple:
        """A hashable identity for in-flight request deduplication.

        Whitespace-insensitive in the query text and case-insensitive in
        the technique name, because those differences cannot change the
        answer.
        """
        return (
            "query",
            self.log,
            " ".join(self.query.split()),
            self.width,
            self.technique.lower(),
            self.auto_despite,
        )

    def to_dict(self) -> dict[str, Any]:
        """A JSON-compatible form that round-trips via :meth:`from_dict`."""
        return {
            "type": "query",
            "protocol_version": self.protocol_version,
            "log": self.log,
            "query": self.query,
            "width": self.width,
            "technique": self.technique,
            "auto_despite": self.auto_despite,
        }

    @classmethod
    def from_dict(
        cls, data: Mapping[str, Any], default_version: int | None = None
    ) -> "QueryRequest":
        """Parse and validate a wire-form query request.

        :param default_version: version inherited from an enclosing batch;
            top-level requests must carry their own ``protocol_version``.
        :raises ProtocolError: on any malformed field.
        """
        data = _require_mapping(data, "a query request")
        _check_type_tag(data, "query")
        version = _version_of(data, default_version)
        width = data.get("width")
        if width is not None and (
            isinstance(width, bool) or not isinstance(width, int)
        ):
            raise ProtocolError("width must be an integer or null")
        technique = data.get("technique", "perfxplain")
        if not isinstance(technique, str) or not technique:
            raise ProtocolError("technique must be a non-empty string")
        auto_despite = data.get("auto_despite", False)
        if not isinstance(auto_despite, bool):
            raise ProtocolError("auto_despite must be a boolean")
        return cls(
            log=_require_str(data, "log", "a query request"),
            query=_require_str(data, "query", "a query request"),
            width=width,
            technique=technique,
            auto_despite=auto_despite,
            protocol_version=version,
        )

    def to_json(self) -> str:
        """The :meth:`to_dict` form rendered as JSON."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "QueryRequest":
        """Rebuild a request from its :meth:`to_json` form."""
        return cls.from_dict(_loads(text, "a query request"))


@dataclass(frozen=True)
class BatchRequest:
    """A bundle of query requests answered concurrently by the service."""

    requests: tuple[QueryRequest, ...]
    protocol_version: int = PROTOCOL_VERSION

    def to_dict(self) -> dict[str, Any]:
        """A JSON-compatible form that round-trips via :meth:`from_dict`."""
        return {
            "type": "batch",
            "protocol_version": self.protocol_version,
            "requests": [request.to_dict() for request in self.requests],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "BatchRequest":
        """Parse and validate a wire-form batch request.

        Sub-requests may omit ``protocol_version``; they inherit the
        batch's.
        """
        data = _require_mapping(data, "a batch request")
        _check_type_tag(data, "batch")
        version = _version_of(data, None)
        raw_requests = data.get("requests")
        if not isinstance(raw_requests, (list, tuple)):
            raise ProtocolError("a batch request requires a 'requests' array")
        return cls(
            requests=tuple(
                QueryRequest.from_dict(item, default_version=version)
                for item in raw_requests
            ),
            protocol_version=version,
        )

    def to_json(self) -> str:
        """The :meth:`to_dict` form rendered as JSON."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "BatchRequest":
        """Rebuild a request from its :meth:`to_json` form."""
        return cls.from_dict(_loads(text, "a batch request"))


@dataclass(frozen=True)
class EvaluateRequest:
    """Run the cross-validated precision-vs-width comparison on a log.

    :param log: catalog name of the execution log to evaluate on.
    :param query: the PXQL query text (pair identifiers may be ``?``).
    :param widths: explanation widths to sweep.
    :param repetitions: cross-validation repetitions.
    :param seed: base random seed for splits and pair selection.
    :param techniques: technique names to compare (``None`` = every
        registered technique).
    """

    log: str
    query: str
    widths: tuple[int, ...] = (0, 1, 2, 3)
    repetitions: int = 3
    seed: int = 0
    techniques: tuple[str, ...] | None = None
    protocol_version: int = PROTOCOL_VERSION

    def to_dict(self) -> dict[str, Any]:
        """A JSON-compatible form that round-trips via :meth:`from_dict`."""
        return {
            "type": "evaluate",
            "protocol_version": self.protocol_version,
            "log": self.log,
            "query": self.query,
            "widths": list(self.widths),
            "repetitions": self.repetitions,
            "seed": self.seed,
            "techniques": list(self.techniques) if self.techniques else None,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "EvaluateRequest":
        """Parse and validate a wire-form evaluate request."""
        data = _require_mapping(data, "an evaluate request")
        _check_type_tag(data, "evaluate")
        version = _version_of(data, None)
        widths = data.get("widths", [0, 1, 2, 3])
        if not isinstance(widths, (list, tuple)) or not all(
            isinstance(w, int) and not isinstance(w, bool) for w in widths
        ):
            raise ProtocolError("widths must be an array of integers")
        repetitions = data.get("repetitions", 3)
        seed = data.get("seed", 0)
        for name, value in (("repetitions", repetitions), ("seed", seed)):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ProtocolError(f"{name} must be an integer")
        techniques = data.get("techniques")
        if techniques is not None:
            if not isinstance(techniques, (list, tuple)) or not all(
                isinstance(t, str) and t for t in techniques
            ):
                raise ProtocolError("techniques must be an array of names or null")
            techniques = tuple(techniques)
        return cls(
            log=_require_str(data, "log", "an evaluate request"),
            query=_require_str(data, "query", "an evaluate request"),
            widths=tuple(widths),
            repetitions=repetitions,
            seed=seed,
            techniques=techniques,
            protocol_version=version,
        )

    def to_json(self) -> str:
        """The :meth:`to_dict` form rendered as JSON."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "EvaluateRequest":
        """Rebuild a request from its :meth:`to_json` form."""
        return cls.from_dict(_loads(text, "an evaluate request"))


def _parse_records(
    data: Mapping[str, Any], key: str, expected_kind: str
) -> tuple[ExecutionRecord, ...]:
    """Parse one record array of a wire-form append request.

    Entries may omit the redundant ``kind`` tag (the array they sit in
    already says it); an explicit tag must match the array.
    """
    raw = data.get(key, [])
    if not isinstance(raw, (list, tuple)):
        raise ProtocolError(f"an append request's {key!r} must be an array")
    records = []
    for index, item in enumerate(raw):
        item = _require_mapping(item, f"{key}[{index}]")
        kind = item.get("kind", expected_kind)
        if kind != expected_kind:
            raise ProtocolError(
                f"{key}[{index}] carries kind {kind!r}, expected {expected_kind!r}"
            )
        try:
            records.append(record_from_dict({**item, "kind": expected_kind}))
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"{key}[{index}] is not a valid record: {exc}") from exc
    return tuple(records)


@dataclass(frozen=True)
class AppendRequest:
    """Append new job/task records to a served log (protocol 2+).

    Appends are *not* idempotent — retrying a successful append fails
    with :data:`ErrorCode.DUPLICATE_RECORD` — so unlike queries they are
    never deduplicated in flight.

    :param log: catalog name of the execution log to grow.
    :param jobs: job records to append, in log order.
    :param tasks: task records to append, in log order.
    """

    log: str
    jobs: tuple[JobRecord, ...] = ()
    tasks: tuple[TaskRecord, ...] = ()
    protocol_version: int = PROTOCOL_VERSION

    def to_dict(self) -> dict[str, Any]:
        """A JSON-compatible form that round-trips via :meth:`from_dict`."""
        return {
            "type": "append",
            "protocol_version": self.protocol_version,
            "log": self.log,
            "jobs": [record_to_dict(job) for job in self.jobs],
            "tasks": [record_to_dict(task) for task in self.tasks],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "AppendRequest":
        """Parse and validate a wire-form append request."""
        data = _require_mapping(data, "an append request")
        _check_type_tag(data, "append")
        version = _version_of(data, None)
        if version < 2:
            raise ProtocolError(
                "append requests require protocol version 2 or newer",
                code=ErrorCode.UNSUPPORTED_PROTOCOL,
            )
        return cls(
            log=_require_str(data, "log", "an append request"),
            jobs=_parse_records(data, "jobs", "job"),
            tasks=_parse_records(data, "tasks", "task"),
            protocol_version=version,
        )

    def to_json(self) -> str:
        """The :meth:`to_dict` form rendered as JSON."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "AppendRequest":
        """Rebuild a request from its :meth:`to_json` form."""
        return cls.from_dict(_loads(text, "an append request"))


# --------------------------------------------------------------------- #
# responses
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class QueryResponse:
    """A successfully answered query: the log it ran on and the result."""

    log: str
    entry: ReportEntry
    protocol_version: int = PROTOCOL_VERSION

    @property
    def ok(self) -> bool:
        """Whether the entry carries an explanation."""
        return self.entry.ok

    def to_dict(self) -> dict[str, Any]:
        """A JSON-compatible form that round-trips via :meth:`from_dict`."""
        return {
            "type": "query_result",
            "protocol_version": self.protocol_version,
            "log": self.log,
            "entry": self.entry.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "QueryResponse":
        """Rebuild a response from its :meth:`to_dict` form."""
        data = _require_mapping(data, "a query response")
        _check_type_tag(data, "query_result")
        entry = data.get("entry")
        if not isinstance(entry, Mapping):
            raise ProtocolError("a query response requires an 'entry' object")
        return cls(
            log=_require_str(data, "log", "a query response"),
            entry=ReportEntry.from_dict(entry),
            protocol_version=_version_of(data, None),
        )

    def to_json(self) -> str:
        """The :meth:`to_dict` form rendered as JSON."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "QueryResponse":
        """Rebuild a response from its :meth:`to_json` form."""
        return cls.from_dict(_loads(text, "a query response"))


@dataclass(frozen=True)
class ErrorResponse:
    """A failed request: a stable code plus a human-readable message."""

    code: str
    message: str
    protocol_version: int = PROTOCOL_VERSION

    @property
    def ok(self) -> bool:
        """Always ``False`` (mirrors :attr:`QueryResponse.ok`)."""
        return False

    @classmethod
    def for_error(cls, error: Exception) -> "ErrorResponse":
        """Wrap a library exception using :func:`error_code_for`."""
        return cls(code=error_code_for(error), message=str(error))

    def to_dict(self) -> dict[str, Any]:
        """A JSON-compatible form that round-trips via :meth:`from_dict`."""
        return {
            "type": "error",
            "protocol_version": self.protocol_version,
            "code": self.code,
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ErrorResponse":
        """Rebuild a response from its :meth:`to_dict` form."""
        data = _require_mapping(data, "an error response")
        _check_type_tag(data, "error")
        return cls(
            code=_require_str(data, "code", "an error response"),
            message=str(data.get("message", "")),
            protocol_version=_version_of(data, None),
        )

    def to_json(self) -> str:
        """The :meth:`to_dict` form rendered as JSON."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ErrorResponse":
        """Rebuild a response from its :meth:`to_json` form."""
        return cls.from_dict(_loads(text, "an error response"))


@dataclass(frozen=True)
class BatchResponse:
    """Per-request responses of a batch, in request order."""

    responses: tuple[Union[QueryResponse, ErrorResponse], ...]
    protocol_version: int = PROTOCOL_VERSION

    @property
    def ok(self) -> bool:
        """Whether every response carries an explanation."""
        return all(response.ok for response in self.responses)

    @property
    def failures(self) -> "tuple[ErrorResponse, ...]":
        """The error responses, in request order."""
        return tuple(r for r in self.responses if isinstance(r, ErrorResponse))

    def to_dict(self) -> dict[str, Any]:
        """A JSON-compatible form that round-trips via :meth:`from_dict`."""
        return {
            "type": "batch_result",
            "protocol_version": self.protocol_version,
            "responses": [response.to_dict() for response in self.responses],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "BatchResponse":
        """Rebuild a response from its :meth:`to_dict` form."""
        data = _require_mapping(data, "a batch response")
        _check_type_tag(data, "batch_result")
        version = _version_of(data, None)
        raw = data.get("responses")
        if not isinstance(raw, (list, tuple)):
            raise ProtocolError("a batch response requires a 'responses' array")
        return cls(
            responses=tuple(parse_response(item) for item in raw),
            protocol_version=version,
        )

    def to_json(self) -> str:
        """The :meth:`to_dict` form rendered as JSON."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "BatchResponse":
        """Rebuild a response from its :meth:`to_json` form."""
        return cls.from_dict(_loads(text, "a batch response"))


@dataclass(frozen=True)
class EvaluateResponse:
    """The outcome of an evaluate request.

    :param log: catalog name the evaluation ran on.
    :param query: the resolved (pair-bound) query in PXQL text form.
    :param first_id: first execution of the resolved pair of interest.
    :param second_id: second execution of the resolved pair of interest.
    :param results: ``technique -> width -> metric`` summary (the
        :func:`repro.core.reporting.sweep_to_dict` form).
    """

    log: str
    query: str
    first_id: str
    second_id: str
    results: dict[str, Any] = field(default_factory=dict)
    protocol_version: int = PROTOCOL_VERSION

    @property
    def ok(self) -> bool:
        """Always ``True`` (failures arrive as :class:`ErrorResponse`)."""
        return True

    def to_dict(self) -> dict[str, Any]:
        """A JSON-compatible form that round-trips via :meth:`from_dict`."""
        return {
            "type": "evaluate_result",
            "protocol_version": self.protocol_version,
            "log": self.log,
            "query": self.query,
            "pair": [self.first_id, self.second_id],
            "results": self.results,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "EvaluateResponse":
        """Rebuild a response from its :meth:`to_dict` form."""
        data = _require_mapping(data, "an evaluate response")
        _check_type_tag(data, "evaluate_result")
        pair = data.get("pair")
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ProtocolError("an evaluate response requires a 2-element 'pair'")
        results = data.get("results")
        if not isinstance(results, Mapping):
            raise ProtocolError("an evaluate response requires a 'results' object")
        return cls(
            log=_require_str(data, "log", "an evaluate response"),
            query=_require_str(data, "query", "an evaluate response"),
            first_id=str(pair[0]),
            second_id=str(pair[1]),
            results=dict(results),
            protocol_version=_version_of(data, None),
        )

    def to_json(self) -> str:
        """The :meth:`to_dict` form rendered as JSON."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "EvaluateResponse":
        """Rebuild a response from its :meth:`to_json` form."""
        return cls.from_dict(_loads(text, "an evaluate response"))


@dataclass(frozen=True)
class AppendResponse:
    """The outcome of a successful append: the log's new size and versions.

    :param log: catalog name the append ran on.
    :param appended_jobs: job records added by this request.
    :param appended_tasks: task records added by this request.
    :param num_jobs: total jobs in the log after the append.
    :param num_tasks: total tasks in the log after the append.
    :param versions: the log's post-append counters
        (:meth:`~repro.logs.store.ExecutionLog.append_stats`).
    """

    log: str
    appended_jobs: int
    appended_tasks: int
    num_jobs: int
    num_tasks: int
    versions: dict[str, int] = field(default_factory=dict)
    protocol_version: int = PROTOCOL_VERSION

    @property
    def ok(self) -> bool:
        """Always ``True`` (failures arrive as :class:`ErrorResponse`)."""
        return True

    def to_dict(self) -> dict[str, Any]:
        """A JSON-compatible form that round-trips via :meth:`from_dict`."""
        return {
            "type": "append_result",
            "protocol_version": self.protocol_version,
            "log": self.log,
            "appended_jobs": self.appended_jobs,
            "appended_tasks": self.appended_tasks,
            "num_jobs": self.num_jobs,
            "num_tasks": self.num_tasks,
            "versions": dict(self.versions),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "AppendResponse":
        """Rebuild a response from its :meth:`to_dict` form."""
        data = _require_mapping(data, "an append response")
        _check_type_tag(data, "append_result")
        counts = {}
        for name in ("appended_jobs", "appended_tasks", "num_jobs", "num_tasks"):
            value = data.get(name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ProtocolError(f"an append response requires an integer {name!r}")
            counts[name] = value
        versions = data.get("versions", {})
        if not isinstance(versions, Mapping):
            raise ProtocolError("an append response's 'versions' must be an object")
        return cls(
            log=_require_str(data, "log", "an append response"),
            versions=dict(versions),
            protocol_version=_version_of(data, None),
            **counts,
        )

    def to_json(self) -> str:
        """The :meth:`to_dict` form rendered as JSON."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "AppendResponse":
        """Rebuild a response from its :meth:`to_json` form."""
        return cls.from_dict(_loads(text, "an append response"))


@dataclass(frozen=True)
class DiffRequest:
    """Compare two served logs and explain the difference (protocol 3+).

    :param before: catalog name of the baseline log.
    :param after: catalog name of the log under suspicion.
    :param width: explanation width for the learned explainer.
    :param technique: registered learned technique name.
    """

    before: str
    after: str
    width: int | None = None
    technique: str = "perfxplain"
    protocol_version: int = PROTOCOL_VERSION

    def to_dict(self) -> dict[str, Any]:
        """A JSON-compatible form that round-trips via :meth:`from_dict`."""
        return {
            "type": "diff",
            "protocol_version": self.protocol_version,
            "before": self.before,
            "after": self.after,
            "width": self.width,
            "technique": self.technique,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DiffRequest":
        """Parse and validate a wire-form diff request."""
        data = _require_mapping(data, "a diff request")
        _check_type_tag(data, "diff")
        version = _version_of(data, None)
        if version < 3:
            raise ProtocolError(
                "diff requests require protocol version 3 or newer",
                code=ErrorCode.UNSUPPORTED_PROTOCOL,
            )
        width = data.get("width")
        if width is not None and (
            isinstance(width, bool) or not isinstance(width, int)
        ):
            raise ProtocolError("width must be an integer or null")
        technique = data.get("technique", "perfxplain")
        if not isinstance(technique, str) or not technique:
            raise ProtocolError("technique must be a non-empty string")
        return cls(
            before=_require_str(data, "before", "a diff request"),
            after=_require_str(data, "after", "a diff request"),
            width=width,
            technique=technique,
            protocol_version=version,
        )

    def to_json(self) -> str:
        """The :meth:`to_dict` form rendered as JSON."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "DiffRequest":
        """Rebuild a request from its :meth:`to_json` form."""
        return cls.from_dict(_loads(text, "a diff request"))


@dataclass(frozen=True)
class DiffResponse:
    """A successfully computed cross-log diff.

    :param before: catalog name of the baseline log.
    :param after: catalog name of the log under suspicion.
    :param report: the structured :class:`~repro.diff.report.DiffReport`.
    """

    before: str
    after: str
    report: DiffReport
    protocol_version: int = PROTOCOL_VERSION

    @property
    def ok(self) -> bool:
        """Always ``True`` (failures arrive as :class:`ErrorResponse`)."""
        return True

    def to_dict(self) -> dict[str, Any]:
        """A JSON-compatible form that round-trips via :meth:`from_dict`."""
        return {
            "type": "diff_result",
            "protocol_version": self.protocol_version,
            "before": self.before,
            "after": self.after,
            "report": self.report.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DiffResponse":
        """Rebuild a response from its :meth:`to_dict` form."""
        data = _require_mapping(data, "a diff response")
        _check_type_tag(data, "diff_result")
        report = data.get("report")
        if not isinstance(report, Mapping):
            raise ProtocolError("a diff response requires a 'report' object")
        return cls(
            before=_require_str(data, "before", "a diff response"),
            after=_require_str(data, "after", "a diff response"),
            report=DiffReport.from_dict(report),
            protocol_version=_version_of(data, None),
        )

    def to_json(self) -> str:
        """The :meth:`to_dict` form rendered as JSON."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "DiffResponse":
        """Rebuild a response from its :meth:`to_json` form."""
        return cls.from_dict(_loads(text, "a diff response"))


#: Any parsed request.
ServiceRequest = Union[
    QueryRequest, BatchRequest, EvaluateRequest, AppendRequest, DiffRequest
]

#: Any parsed response.
ServiceResponse = Union[
    QueryResponse,
    BatchResponse,
    EvaluateResponse,
    AppendResponse,
    DiffResponse,
    ErrorResponse,
]

_REQUEST_TYPES: dict[str, Any] = {
    "query": QueryRequest,
    "batch": BatchRequest,
    "evaluate": EvaluateRequest,
    "append": AppendRequest,
    "diff": DiffRequest,
}

_RESPONSE_TYPES: dict[str, Any] = {
    "query_result": QueryResponse,
    "batch_result": BatchResponse,
    "evaluate_result": EvaluateResponse,
    "append_result": AppendResponse,
    "diff_result": DiffResponse,
    "error": ErrorResponse,
}


def _loads(text: str, what: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"{what} is not valid JSON: {exc}") from exc


def parse_request(data: object) -> ServiceRequest:
    """Parse any wire-form request, dispatching on its ``type`` tag."""
    data = _require_mapping(data, "a service request")
    tag = data.get("type")
    if not isinstance(tag, str) or tag not in _REQUEST_TYPES:
        known = ", ".join(sorted(_REQUEST_TYPES))
        raise ProtocolError(f"unknown request type {tag!r} (known: {known})")
    return _REQUEST_TYPES[tag].from_dict(data)


def parse_request_json(text: str) -> ServiceRequest:
    """Parse a JSON request body (:func:`parse_request` on the document)."""
    return parse_request(_loads(text, "a service request"))


def parse_response(data: object) -> ServiceResponse:
    """Parse any wire-form response, dispatching on its ``type`` tag."""
    data = _require_mapping(data, "a service response")
    tag = data.get("type")
    if not isinstance(tag, str) or tag not in _RESPONSE_TYPES:
        known = ", ".join(sorted(_RESPONSE_TYPES))
        raise ProtocolError(f"unknown response type {tag!r} (known: {known})")
    return _RESPONSE_TYPES[tag].from_dict(data)


def parse_response_json(text: str) -> ServiceResponse:
    """Parse a JSON response body (:func:`parse_response` on the document)."""
    return parse_response(_loads(text, "a service response"))
