"""``python -m repro modelcheck`` surface: usage errors exit 2."""

from repro.modelcheck.runner import modelcheck_main


def test_non_positive_node_budget_is_usage_error(capsys, tmp_path):
    argv = ["--pus", "2", "--ops", "1", "--lines", "1", "--max-nodes", "0",
            "--captures-dir", str(tmp_path)]
    assert modelcheck_main(argv) == 2
    out = capsys.readouterr().out
    assert "config error: max_nodes must be at least 1" in out
    assert "RESULT" not in out


def test_unknown_design_is_usage_error(capsys, tmp_path):
    argv = ["--pus", "2", "--ops", "1", "--lines", "1", "--designs", "sc",
            "--captures-dir", str(tmp_path)]
    assert modelcheck_main(argv) == 2
    assert "config error: unknown design" in capsys.readouterr().out
