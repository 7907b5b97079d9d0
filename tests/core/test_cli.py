"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.core.registry import unregister_explainer
from repro.core.report import Report
from repro.logs.store import ExecutionLog

_QUERY_TEXT = """
    FOR JOBS ?, ?
    DESPITE pig_script_isSame = T
    OBSERVED duration_compare = GT
    EXPECTED duration_compare = SIM
"""


@pytest.fixture(scope="module")
def log_path(tmp_path_factory):
    """A tiny execution log generated through the CLI itself."""
    path = tmp_path_factory.mktemp("cli") / "log.json"
    exit_code = main(["generate-log", "--grid", "tiny", "--seed", "11",
                      "--output", str(path)])
    assert exit_code == 0
    return path


class TestGenerateLog:
    def test_log_file_is_valid(self, log_path):
        log = ExecutionLog.load(log_path)
        assert log.num_jobs == 16
        assert log.num_tasks > 0

    def test_no_tasks_flag(self, tmp_path):
        path = tmp_path / "jobs_only.json"
        assert main(["generate-log", "--grid", "tiny", "--no-tasks",
                     "--output", str(path)]) == 0
        assert ExecutionLog.load(path).num_tasks == 0


class TestGenerateScenario:
    def test_scenario_log_is_stamped(self, tmp_path):
        path = tmp_path / "scenario.json"
        assert main(["generate-scenario", "--scenario", "data-skew",
                     "--seed", "5", "--output", str(path)]) == 0
        log = ExecutionLog.load(path)
        assert log.num_jobs > 0
        assert all(job.features["scenario"] == "data-skew" for job in log.jobs)
        assert all("engine_seed" in job.features for job in log.jobs)


class TestExplain:
    def test_explain_from_query_file(self, log_path, tmp_path, capsys):
        query_path = tmp_path / "query.pxql"
        query_path.write_text("""
            FOR JOBS ?, ?
            DESPITE pig_script_isSame = T
            OBSERVED duration_compare = GT
            EXPECTED duration_compare = SIM
        """, encoding="utf-8")
        assert main(["explain", "--log", str(log_path), "--query", str(query_path),
                     "--width", "2"]) == 0
        output = capsys.readouterr().out
        assert "BECAUSE" in output

    def test_explain_with_baseline_technique(self, log_path, tmp_path, capsys):
        query_path = tmp_path / "query.pxql"
        query_path.write_text("""
            FOR JOBS ?, ?
            DESPITE pig_script_isSame = T
            OBSERVED duration_compare = GT
            EXPECTED duration_compare = SIM
        """, encoding="utf-8")
        assert main(["explain", "--log", str(log_path), "--query", str(query_path),
                     "--technique", "simbutdiff"]) == 0
        assert "BECAUSE" in capsys.readouterr().out

    def test_impossible_query_reports_error(self, log_path, tmp_path, capsys):
        query_path = tmp_path / "query.pxql"
        query_path.write_text("""
            FOR JOBS 'job_does_not_exist', 'job_also_missing'
            OBSERVED duration_compare = GT
            EXPECTED duration_compare = SIM
        """, encoding="utf-8")
        assert main(["explain", "--log", str(log_path),
                     "--query", str(query_path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_json_log_reports_error(self, tmp_path, capsys):
        log_path = tmp_path / "broken.json"
        log_path.write_text('{"jobs": [5], "tasks": []}', encoding="utf-8")
        query_path = tmp_path / "query.pxql"
        query_path.write_text(
            "FOR JOBS ?, ?\nOBSERVED duration_compare = GT\n"
            "EXPECTED duration_compare = SIM\n",
            encoding="utf-8",
        )
        assert main(["explain", "--log", str(log_path),
                     "--query", str(query_path)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err


class TestExplainJson:
    def test_json_output_parses_into_report(self, log_path, tmp_path, capsys):
        query_path = tmp_path / "query.pxql"
        query_path.write_text(_QUERY_TEXT, encoding="utf-8")
        assert main(["explain", "--log", str(log_path), "--query", str(query_path),
                     "--width", "2", "--format", "json"]) == 0
        report = Report.from_json(capsys.readouterr().out)
        assert len(report) == 1
        entry = report[0]
        assert entry.ok
        assert entry.first_id and entry.second_id
        assert entry.explanation.width >= 1
        assert entry.explanation.metrics is not None

    def test_multiple_query_files_make_multiple_entries(self, log_path, tmp_path, capsys):
        paths = []
        for index in range(2):
            path = tmp_path / f"query{index}.pxql"
            path.write_text(_QUERY_TEXT, encoding="utf-8")
            paths.append(str(path))
        assert main(["explain", "--log", str(log_path),
                     "--query", paths[0], "--query", paths[1],
                     "--width", "2", "--format", "json"]) == 0
        report = Report.from_json(capsys.readouterr().out)
        assert len(report) == 2


class TestPlugins:
    def test_custom_technique_via_plugin(self, log_path, tmp_path, capsys):
        plugin_path = tmp_path / "my_explainers.py"
        plugin_path.write_text(
            "from repro.core.explanation import Explanation\n"
            "from repro.core.pxql.ast import Comparison, Operator, Predicate\n"
            "from repro.core.registry import register_explainer\n"
            "\n"
            "@register_explainer('pin-blocksize')\n"
            "class PinBlocksize:\n"
            "    name = 'PinBlocksize'\n"
            "    def explain(self, log, query, schema=None, width=None):\n"
            "        atom = Comparison('blocksize_isSame', Operator.EQ, 'F')\n"
            "        return Explanation(because=Predicate.of(atom),\n"
            "                           technique=self.name)\n",
            encoding="utf-8",
        )
        query_path = tmp_path / "query.pxql"
        query_path.write_text(_QUERY_TEXT, encoding="utf-8")
        try:
            assert main(["explain", "--log", str(log_path),
                         "--query", str(query_path),
                         "--plugin", str(plugin_path),
                         "--technique", "pin-blocksize",
                         "--format", "json"]) == 0
            report = Report.from_json(capsys.readouterr().out)
            assert report[0].explanation.technique == "PinBlocksize"
        finally:
            unregister_explainer("pin-blocksize")

    def test_broken_plugin_reports_clean_error(self, log_path, tmp_path, capsys):
        plugin_path = tmp_path / "broken_plugin.py"
        plugin_path.write_text("raise RuntimeError('boom at import')\n", encoding="utf-8")
        query_path = tmp_path / "query.pxql"
        query_path.write_text(_QUERY_TEXT, encoding="utf-8")
        assert main(["explain", "--log", str(log_path), "--query", str(query_path),
                     "--plugin", str(plugin_path)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert "boom at import" in err

    def test_missing_plugin_reports_clean_error(self, log_path, tmp_path, capsys):
        query_path = tmp_path / "query.pxql"
        query_path.write_text(_QUERY_TEXT, encoding="utf-8")
        assert main(["explain", "--log", str(log_path), "--query", str(query_path),
                     "--plugin", str(tmp_path / "nope.py")]) == 1
        assert "does not exist" in capsys.readouterr().err

    def test_unknown_technique_reports_registered_names(self, log_path, tmp_path, capsys):
        query_path = tmp_path / "query.pxql"
        query_path.write_text(_QUERY_TEXT, encoding="utf-8")
        assert main(["explain", "--log", str(log_path), "--query", str(query_path),
                     "--technique", "nope"]) == 1
        err = capsys.readouterr().err
        assert "unknown technique" in err
        assert "perfxplain" in err


class TestEvaluate:
    def test_evaluate_prints_tables(self, log_path, capsys):
        assert main(["evaluate", "--log", str(log_path),
                     "--query-name", "WhySlowerDespiteSameNumInstances",
                     "--widths", "0", "2", "--repetitions", "2"]) == 0
        output = capsys.readouterr().out
        assert "Precision on the held-out log" in output
        assert "PerfXplain" in output

    def test_evaluate_json_output(self, log_path, capsys):
        assert main(["evaluate", "--log", str(log_path),
                     "--query-name", "WhySlowerDespiteSameNumInstances",
                     "--widths", "0", "2", "--repetitions", "2",
                     "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["pair"][0] and data["pair"][1]
        assert "PerfXplain" in data["results"]
        assert "precision_mean" in data["results"]["PerfXplain"]["2"]

    def test_evaluate_single_technique(self, log_path, capsys):
        assert main(["evaluate", "--log", str(log_path),
                     "--query-name", "WhySlowerDespiteSameNumInstances",
                     "--widths", "2", "--repetitions", "2",
                     "--technique", "ruleofthumb", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert list(data["results"]) == ["RuleOfThumb"]
