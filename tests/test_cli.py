"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.__main__ import main


class TestList:
    def test_lists_all_benchmarks(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "200.sixtrack" in output
        assert output.count("recurrence-bound") == 10


class TestEvaluate:
    def test_evaluate_one(self, capsys):
        assert main(["evaluate", "sixtrack", "--scale", "0.02"]) == 0
        output = capsys.readouterr().out
        assert "ED^2 vs optimum homogeneous" in output
        assert "slow/fast ratio" in output

    def test_two_buses(self, capsys):
        assert main(["evaluate", "swim", "--buses", "2", "--scale", "0.02"]) == 0
        assert "2 bus(es)" in capsys.readouterr().out

    def test_unknown_benchmark(self):
        with pytest.raises(KeyError):
            main(["evaluate", "quake", "--scale", "0.02"])

    def test_json_output(self, capsys):
        assert main(
            ["evaluate", "swim", "--scale", "0.02", "--output", "json"]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["benchmark"] == "171.swim"
        assert set(data) >= {
            "profile",
            "units",
            "baseline_selection",
            "heterogeneous_selection",
            "heterogeneous_measured",
        }
        # canonical dict form: round-trips through the serializer
        from repro.pipeline import BenchmarkEvaluation

        assert BenchmarkEvaluation.from_dict(data).to_dict() == data

    def test_stages_prints_plan_without_running(self, capsys):
        assert main(["evaluate", "swim", "--stages"]) == 0
        output = capsys.readouterr().out
        assert "Experiment plan" in output
        assert "profile" in output and "measure" in output

    def test_explain_prints_plan_then_runs(self, capsys):
        assert main(
            ["evaluate", "swim", "--scale", "0.02", "--explain"]
        ) == 0
        captured = capsys.readouterr()
        assert "Experiment plan" in captured.err
        assert "ED^2 vs optimum homogeneous" in captured.out

    def test_unknown_machine_fails_fast(self):
        from repro.errors import PipelineError

        with pytest.raises(PipelineError, match="unknown machine"):
            main(["evaluate", "swim", "--scale", "0.02", "--machine", "warp9"])


class TestSuiteFlags:
    def test_suite_stages_plan(self, capsys):
        assert main(["suite", "--stages", "--buses", "2"]) == 0
        output = capsys.readouterr().out
        assert "Experiment plan" in output
        assert "buses=2" in output


class TestCampaignFlags:
    def test_campaign_stages_plan(self, capsys):
        assert main(["campaign", "--stages", "--machine", "paper"]) == 0
        output = capsys.readouterr().out
        assert "Experiment plan" in output
        assert "machine='paper'" in output


class TestTable2:
    def test_prints_measured_shares(self, capsys):
        assert main(["table2", "--scale", "0.01"]) == 0
        output = capsys.readouterr().out
        assert "Table 2 (measured)" in output
        assert "171.swim" in output


class TestTrace:
    def test_trace_evaluate_prints_span_tree(self, capsys):
        from repro.telemetry import disable_tracing

        try:
            assert main(
                ["trace", "evaluate", "swim", "--scale", "0.02"]
            ) == 0
        finally:
            disable_tracing()
        captured = capsys.readouterr()
        assert "evaluate" in captured.out
        assert "schedule" in captured.out
        assert "attributed to named spans:" in captured.out
        assert "171.swim:" in captured.err  # the ed2 line -> stderr

    def test_trace_shows_refinement_counters(self, capsys):
        # Cold caches: a cached schedule would skip the refinement.
        from repro.pipeline.cache import clear_loop_cache, clear_stage_cache
        from repro.telemetry import disable_tracing

        clear_stage_cache()
        clear_loop_cache()
        try:
            assert main(
                ["trace", "evaluate", "swim", "--scale", "0.02"]
            ) == 0
        finally:
            disable_tracing()
        out = capsys.readouterr().out
        line = next(line for line in out.splitlines() if "schedule_loop" in line)
        for counter in (
            "refine_candidates=",
            "refine_pruned_bound=",
            "refine_moves=",
            "refine_steps_resumed=",
            "refine_steps_total=",
        ):
            assert counter in line

    def test_trace_json_output_is_a_span_tree(self, capsys):
        from repro.telemetry import disable_tracing

        try:
            assert main(
                [
                    "trace", "evaluate", "swim",
                    "--scale", "0.02", "--output", "json",
                ]
            ) == 0
        finally:
            disable_tracing()
        tree = json.loads(capsys.readouterr().out)
        assert tree["name"] == "evaluate"
        assert {child["name"] for child in tree["children"]} >= {
            "profile", "schedule",
        }

    def test_trace_evaluate_requires_benchmark(self, capsys):
        assert main(["trace", "evaluate"]) == 2
        assert "benchmark" in capsys.readouterr().err


class TestVerbosityFlags:
    def test_verbose_flag_accepted_before_command(self, capsys):
        assert main(["-v", "list"]) == 0
        assert "200.sixtrack" in capsys.readouterr().out

    def test_quiet_flag_accepted(self, capsys):
        assert main(["-q", "list"]) == 0
        assert "200.sixtrack" in capsys.readouterr().out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_bad_bus_count(self):
        with pytest.raises(SystemExit):
            main(["evaluate", "swim", "--buses", "3"])
