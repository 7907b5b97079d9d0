"""Tests for the versioned request/response wire protocol."""

import pytest

from repro.core.pxql.ast import Comparison, Operator, Predicate
from repro.core.explanation import Explanation
from repro.core.report import ReportEntry
from repro.exceptions import (
    EvaluationError,
    ExplanationError,
    LogFormatError,
    ProtocolError,
    PXQLSyntaxError,
    ReproError,
)
from repro.service.protocol import (
    PROTOCOL_VERSION,
    BatchRequest,
    BatchResponse,
    ErrorCode,
    ErrorResponse,
    EvaluateRequest,
    EvaluateResponse,
    QueryRequest,
    QueryResponse,
    check_protocol_version,
    error_code_for,
    parse_request,
    parse_request_json,
    parse_response,
    parse_response_json,
)

QUERY = "FOR JOBS ?, ?\nOBSERVED duration_compare = GT\nEXPECTED duration_compare = SIM"


def _entry():
    because = Predicate.of(Comparison("blocksize_compare", Operator.EQ, "GT"))
    explanation = Explanation(because=because, technique="PerfXplain")
    return ReportEntry(
        query=QUERY, first_id="a", second_id="b", explanation=explanation,
        technique="PerfXplain", width=1, elapsed_ms=3.25,
    )


class TestVersionValidation:
    def test_current_version_accepted(self):
        assert check_protocol_version(PROTOCOL_VERSION) == PROTOCOL_VERSION

    @pytest.mark.parametrize("bad", [0, 99, -1, "1", 1.0, True, None])
    def test_bad_versions_rejected(self, bad):
        with pytest.raises(ProtocolError) as excinfo:
            check_protocol_version(bad)
        assert excinfo.value.code == ErrorCode.UNSUPPORTED_PROTOCOL

    def test_missing_version_on_wire_rejected(self):
        with pytest.raises(ProtocolError) as excinfo:
            QueryRequest.from_dict({"type": "query", "log": "l", "query": QUERY})
        assert excinfo.value.code == ErrorCode.UNSUPPORTED_PROTOCOL

    def test_batch_subrequests_inherit_version(self):
        batch = BatchRequest.from_dict({
            "type": "batch",
            "protocol_version": PROTOCOL_VERSION,
            "requests": [{"type": "query", "log": "l", "query": QUERY}],
        })
        assert batch.requests[0].protocol_version == PROTOCOL_VERSION


class TestRequestRoundTrips:
    def test_query_request(self):
        request = QueryRequest(
            log="prod", query=QUERY, width=3, technique="simbutdiff",
            auto_despite=True,
        )
        assert QueryRequest.from_json(request.to_json()) == request
        assert parse_request(request.to_dict()) == request

    def test_batch_request(self):
        batch = BatchRequest(requests=(
            QueryRequest(log="a", query=QUERY),
            QueryRequest(log="b", query=QUERY, width=1),
        ))
        assert BatchRequest.from_json(batch.to_json()) == batch
        assert parse_request_json(batch.to_json()) == batch

    def test_evaluate_request(self):
        request = EvaluateRequest(
            log="prod", query=QUERY, widths=(0, 2), repetitions=5, seed=11,
            techniques=("perfxplain", "ruleofthumb"),
        )
        assert EvaluateRequest.from_json(request.to_json()) == request
        assert parse_request(request.to_dict()) == request

    @pytest.mark.parametrize("mutation, message", [
        ({"log": ""}, "log"),
        ({"log": None}, "log"),
        ({"query": "   "}, "query"),
        ({"width": "three"}, "width"),
        ({"width": True}, "width"),
        ({"technique": ""}, "technique"),
        ({"auto_despite": "yes"}, "auto_despite"),
    ])
    def test_malformed_query_fields_rejected(self, mutation, message):
        data = QueryRequest(log="l", query=QUERY).to_dict()
        data.update(mutation)
        with pytest.raises(ProtocolError, match=message):
            QueryRequest.from_dict(data)

    def test_type_tag_mismatch_rejected(self):
        data = QueryRequest(log="l", query=QUERY).to_dict()
        data["type"] = "batch"
        with pytest.raises(ProtocolError):
            QueryRequest.from_dict(data)

    def test_unknown_request_type_rejected(self):
        with pytest.raises(ProtocolError, match="unknown request type"):
            parse_request({"type": "mystery", "protocol_version": PROTOCOL_VERSION})

    @pytest.mark.parametrize("tag", [[1], {}, {"a": 1}, None, 7])
    def test_non_string_request_type_rejected(self, tag):
        with pytest.raises(ProtocolError, match="unknown request type"):
            parse_request({"type": tag, "protocol_version": PROTOCOL_VERSION})

    @pytest.mark.parametrize("tag", [[1], {}, {"a": 1}, None, 7])
    def test_non_string_response_type_rejected(self, tag):
        with pytest.raises(ProtocolError, match="unknown response type"):
            parse_response({"type": tag, "protocol_version": PROTOCOL_VERSION})

    def test_non_object_rejected(self):
        with pytest.raises(ProtocolError):
            parse_request([1, 2, 3])
        with pytest.raises(ProtocolError):
            parse_request_json("not json at all {")


class TestResponseRoundTrips:
    def test_query_response(self):
        response = QueryResponse(log="prod", entry=_entry())
        rebuilt = parse_response_json(response.to_json())
        assert isinstance(rebuilt, QueryResponse)
        assert rebuilt.to_dict() == response.to_dict()
        assert rebuilt.ok

    def test_error_response(self):
        response = ErrorResponse(code=ErrorCode.UNKNOWN_LOG, message="no such log")
        rebuilt = parse_response_json(response.to_json())
        assert isinstance(rebuilt, ErrorResponse)
        assert rebuilt == response
        assert not rebuilt.ok

    def test_batch_response_mixes_results_and_errors(self):
        batch = BatchResponse(responses=(
            QueryResponse(log="prod", entry=_entry()),
            ErrorResponse(code=ErrorCode.INVALID_QUERY, message="parse error"),
        ))
        rebuilt = parse_response_json(batch.to_json())
        assert isinstance(rebuilt, BatchResponse)
        assert rebuilt.to_dict() == batch.to_dict()
        assert not rebuilt.ok
        assert len(rebuilt.failures) == 1

    def test_evaluate_response(self):
        response = EvaluateResponse(
            log="prod", query=QUERY, first_id="a", second_id="b",
            results={"PerfXplain": {"2": {"precision_mean": 0.9}}},
        )
        rebuilt = parse_response_json(response.to_json())
        assert isinstance(rebuilt, EvaluateResponse)
        assert rebuilt.to_dict() == response.to_dict()


class TestErrorCodes:
    def test_known_codes_are_stable_strings(self):
        assert ErrorCode.UNKNOWN_LOG == "unknown_log"
        assert ErrorCode.UNSUPPORTED_PROTOCOL == "unsupported_protocol"
        assert ErrorCode.KNOWN >= {
            "invalid_request", "invalid_query", "unknown_technique",
            "explanation_failed", "internal_error",
        }

    @pytest.mark.parametrize("error, code", [
        (PXQLSyntaxError("bad"), ErrorCode.INVALID_QUERY),
        (ExplanationError("no related pairs"), ErrorCode.EXPLANATION_FAILED),
        (ExplanationError("unknown technique 'x'"), ErrorCode.UNKNOWN_TECHNIQUE),
        (EvaluationError("bad widths"), ErrorCode.EVALUATION_FAILED),
        (LogFormatError("bad json"), ErrorCode.LOG_LOAD_FAILED),
        (ReproError("generic"), ErrorCode.INVALID_REQUEST),
        (RuntimeError("boom"), ErrorCode.INTERNAL_ERROR),
        (ProtocolError("v", code=ErrorCode.UNSUPPORTED_PROTOCOL),
         ErrorCode.UNSUPPORTED_PROTOCOL),
    ])
    def test_error_code_mapping(self, error, code):
        assert error_code_for(error) == code
        assert code in ErrorCode.KNOWN

    def test_for_error_builds_response(self):
        response = ErrorResponse.for_error(PXQLSyntaxError("expected EXPECTED"))
        assert response.code == ErrorCode.INVALID_QUERY
        assert "EXPECTED" in response.message


class TestDedupKey:
    def test_whitespace_and_case_insensitive(self):
        a = QueryRequest(log="l", query="FOR JOBS ?, ?\n  OBSERVED x = GT",
                         technique="PerfXplain")
        b = QueryRequest(log="l", query="FOR JOBS ?, ?   OBSERVED x = GT",
                         technique="perfxplain")
        assert a.canonical_key() == b.canonical_key()

    def test_width_and_log_distinguish(self):
        base = QueryRequest(log="l", query=QUERY)
        assert base.canonical_key() != QueryRequest(log="l", query=QUERY, width=2).canonical_key()
        assert base.canonical_key() != QueryRequest(log="m", query=QUERY).canonical_key()
