"""``python -m repro litmus`` surface: dispatch, exit codes, --explain."""

from repro.cli import main
from repro.litmus.runner import build_parser, litmus_main


def test_cli_dispatches_litmus(capsys):
    assert main(["litmus", "--list"]) == 0
    out = capsys.readouterr().out
    for name in ("sb", "mp", "lb", "iriw", "corr", "coww",
                 "svc_treuse", "svc_xreact"):
        assert name in out


def test_parser_prog_matches_documented_command():
    assert build_parser().prog == "python -m repro litmus"


def test_single_shape_single_tier_passes(capsys):
    assert litmus_main(["corr", "--tier", "base"]) == 0
    out = capsys.readouterr().out
    assert "RESULT: PASS" in out
    assert "forbidden outcomes proven unreachable" in out


def test_explain_prints_witness_schedules(capsys):
    assert litmus_main(["coww", "--tier", "base", "--explain"]) == 0
    out = capsys.readouterr().out
    assert "witness:" in out
    assert "unreachable:" in out
    assert "commit(t" in out


def test_unknown_shape_is_usage_error(capsys):
    assert litmus_main(["dekker"]) == 2
    assert "unknown litmus shape" in capsys.readouterr().out


def test_unknown_tier_is_usage_error(capsys):
    assert litmus_main(["corr", "--tier", "sc"]) == 2
    assert "unknown tier" in capsys.readouterr().out


def test_all_with_named_shapes_is_usage_error(capsys):
    assert litmus_main(["--all", "corr"]) == 2
    capsys.readouterr()


def test_truncation_is_run_failure(capsys):
    assert litmus_main(["iriw", "--tier", "final", "--max-nodes", "10"]) == 1
    out = capsys.readouterr().out
    assert "RESULT: FAIL" in out
    assert "truncated" in out


def test_non_positive_node_budget_is_usage_error(capsys):
    assert litmus_main(["corr", "--tier", "base", "--max-nodes", "-5"]) == 2
    out = capsys.readouterr().out
    assert "config error: max_nodes must be at least 1" in out
    assert "RESULT" not in out
