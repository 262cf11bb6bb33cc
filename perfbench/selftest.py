"""Tests of the benchmark itself, at its smallest sizes (about a minute).

Run from the root of the repository::

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402  (needs the paths above)
import serving  # noqa: E402
import training  # noqa: E402


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_what_the_runner_prints():
    spec = _benchmark()
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == ["lm_gpt95", "vgg19_bsr98"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(workload, trace, tmp_path):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = run.metric_list(workload, bool(trace))
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
    if trace:
        assert list(tmp_path.glob(".perfbench-trace/*.json"))
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_workload_units_match_the_declared_ones():
    result = training.run(training.LM, seed=4, seconds=0.0, trace=True, tiny=True)
    declared = {**run.END_TO_END, **run.PER_LAYER, **run.SERVE_PER_LAYER}
    for name, (_, unit) in result.metrics.items():
        assert declared[name] == unit, name


def test_same_seed_gives_the_same_quality():
    first = training.run(training.LM, seed=5, seconds=0.0, trace=False, tiny=True)
    again = training.run(training.LM, seed=5, seconds=0.0, trace=False, tiny=True)
    other = training.run(training.LM, seed=6, seconds=0.0, trace=False, tiny=True)
    assert first.metrics["quality"] == again.metrics["quality"]
    assert first.metrics["quality"] != other.metrics["quality"]


def test_nan_loss_is_reported_as_a_failure(monkeypatch):
    real_loss = training.lm_cross_entropy
    calls = []

    def poisoned(logits, targets):
        calls.append(1)
        loss = real_loss(logits, targets)
        return loss * float("nan") if len(calls) == 4 else loss

    monkeypatch.setattr(training, "lm_cross_entropy", poisoned)
    result = training.run(training.LM, seed=1, seconds=0.0, trace=False, tiny=True)
    assert not result.correct
    assert result.failed >= 1
    assert any("non-finite" in problem for problem in result.problems)


def test_perturbed_serve_reply_is_reported_as_a_failure(monkeypatch):
    real_build = serving.build

    def build(seed, path, parts):
        server = real_build(seed, path, parts)
        forward = server.model.forward

        def perturbed(x):
            # Every reply to requests whose input row starts with a
            # negative value is off by one.
            out = forward(x)
            out.data[x.data[:, 0] < 0] += 1.0
            return out

        server.model.forward = perturbed
        return server

    monkeypatch.setattr(serving, "build", build)
    result = serving.run(seed=1, seconds=1.0, trace=False)
    assert not result.correct
    assert 0.3 < result.failed / result.attempted < 0.7
    assert result.metrics["quality"][0] < 0.7


def test_mask_invariant_violation_is_reported(monkeypatch):
    real_check = training._Session.invariant_problems

    def corrupt_then_check(self):
        target = self.masked.targets[0]
        target.param.data[~target.mask] = 1.0
        return real_check(self)

    monkeypatch.setattr(training._Session, "invariant_problems", corrupt_then_check)
    result = training.run(training.LM, seed=2, seconds=0.0, trace=False, tiny=True)
    assert not result.correct
    assert any("not exactly zero" in problem for problem in result.problems)


def test_exits_nonzero_without_the_library(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", run.WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
