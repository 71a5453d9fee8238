"""The benchmark's own checks, at tiny scale.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layers  # noqa: E402
import points  # noqa: E402
import run  # noqa: E402

SCALE = "0.01"


def bench(*args, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600, check=False,
    )
    return done


def result_of(done):
    lines = done.stdout.strip().splitlines()
    digest = next(line.split()[2] for line in lines if line.startswith("digest "))
    return json.loads(lines[-1]), digest, lines


@pytest.fixture(scope="module")
def manifest():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def paper_figs_runs():
    args = ("--workload", "paper-figs", "--seconds", "0.1", "--scale", SCALE)
    return {
        "plain": bench(*args, "--seed", "3", "--trace", "0"),
        "traced": bench(*args, "--seed", "3", "--trace", "1"),
        "again": bench(*args, "--seed", "3", "--trace", "0"),
        "other": bench(*args, "--seed", "4", "--trace", "0"),
    }


def test_every_metric_printed_with_its_unit(paper_figs_runs, manifest):
    for mode, section in (("plain", "end_to_end"), ("traced", "per_layer")):
        done = paper_figs_runs[mode]
        assert done.returncode == 0, done.stderr
        result, _, lines = result_of(done)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in manifest[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        for name, unit in expected.items():
            assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}")
                       for line in lines), name
    plain = result_of(paper_figs_runs["plain"])[0]["metrics"]
    assert all(metric["value"] > 0 for metric in plain.values())


def test_traced_digest_equals_untraced(paper_figs_runs):
    assert result_of(paper_figs_runs["plain"])[1] == result_of(paper_figs_runs["traced"])[1]


def test_seed_decides_the_digest(paper_figs_runs):
    digest = result_of(paper_figs_runs["plain"])[1]
    assert result_of(paper_figs_runs["again"])[1] == digest
    assert result_of(paper_figs_runs["other"])[1] != digest


def test_different_seed_gives_different_inputs():
    def ops(seed):
        tasks = points.generate_inputs(("gcc",), seed, float(SCALE))["gcc"]
        return [task.ops for task in tasks]

    assert ops(1) == ops(1)
    assert ops(1) != ops(2)


def test_wrong_expected_image_counts_as_failure():
    inputs = points.with_references(points.generate_inputs(("gcc",), 1, float(SCALE)))
    addr = next(iter(inputs.images["gcc"]))
    inputs.images["gcc"][addr] ^= 0xFF
    plan = [p for p in points.svc_tiers_points(("gcc",)) if p.machine == "svc_final_32k"]
    plan += [p for p in points.paper_figs_points(("gcc",)) if p.machine == "arb_32k_1c"]
    tally = run.Tally()
    tally.points(points.run_points(plan, inputs))
    assert (tally.attempted, tally.failed) == (2, 2)


def test_litmus_hooks_change_nothing():
    from repro.litmus.runner import run_litmus

    def summary(report):
        return [(c.shape, c.tier, c.observed, c.nodes, c.problems) for c in report.checks]

    shapes, tiers = ("sb", "svc_treuse"), ("ec", "final")
    plain = run_litmus(shapes, tiers, workers=1)
    tracer = layers.Tracer()
    with tracer.litmus_hooks():
        traced = run_litmus(shapes, tiers, workers=1)
    assert summary(traced) == summary(plain)
    metrics = layers.layer_metrics(tracer, [], traced.checks)
    assert metrics["litmus.units"] == 4 and metrics["litmus.conformant_ratio"] == 1.0
    assert metrics["svc.accesses"] > 0 and metrics["modelcheck.explore_s"] > 0
    assert {s["point"] for s in tracer.spans} == {f"{s}/{t}" for s in shapes for t in tiers}


def test_fails_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "svc-tiers", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
