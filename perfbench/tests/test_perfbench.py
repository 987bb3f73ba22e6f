"""The benchmark's own tests, at tiny sizes.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import builds, inputs, measure
from perfbench.measure import END_TO_END, PER_LAYER
from perfbench.run import WORKLOADS, run_workload

ROOT = Path(__file__).resolve().parents[2]
SECONDS = 1.5


@pytest.fixture(scope="module")
def outcomes(tmp_path_factory):
    """Every workload, untraced and traced, once per module."""
    results = {}
    for workload in WORKLOADS:
        for trace in (False, True):
            workdir = tmp_path_factory.mktemp(f"{workload}-{int(trace)}")
            results[workload, trace] = run_workload(
                workload, 3, SECONDS, trace, inputs.TINY, workdir=workdir)
    return results


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_with_its_unit(outcomes, workload, trace):
    names = PER_LAYER if trace else END_TO_END
    result = outcomes[workload, trace].result(names)
    assert set(result["metrics"]) == set(names)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == names[name]
        assert isinstance(metric["value"], float)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_no_operation_fails(outcomes, workload, trace):
    outcome = outcomes[workload, trace]
    assert outcome.problems == []
    result = outcome.result(END_TO_END)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0


def test_trace_covers_the_build(outcomes):
    metrics = outcomes["build", True].metrics
    assert metrics["trace.coverage"][0] >= 0.95
    for name in ("lexicon.propose_ms", "core.generate_ms",
                 "inference.extract_ms", "inference.saturate_ms"):
        assert metrics[name][0] > 0


def test_trace_reaches_every_serving_layer(outcomes):
    metrics = outcomes["serve", True].metrics
    for name in ("serving.service_read_ms", "serving.service_write_ms",
                 "query.plan_ms", "kb.scan_ms", "core.maintain_ms",
                 "reliability.journal_ms", "inference.query_ms"):
        assert metrics[name][0] > 0, name


def _drop_one_fact(facts):
    return facts[:len(facts) // 2] + facts[len(facts) // 2 + 1:]


@pytest.mark.parametrize("workload", ["build", "build_paged"])
def test_dropped_closure_fact_is_a_failure(workload, tmp_path):
    outcome = run_workload(workload, 3, 0.1, False, inputs.TINY,
                           fault=_drop_one_fact, workdir=tmp_path)
    result = outcome.result(END_TO_END)
    assert not result["correct"]
    assert result["failed"] >= 2  # the other store and the oracle both disagree


def test_stale_base_fact_after_writes_is_a_failure(monkeypatch):
    """A fact the incremental path leaves behind shows against a rebuild,
    though the oracle fed the engine's own base facts would agree."""
    write = builds.write

    def leaky_write(built, maintainer, batch):
        stats = write(built, maintainer, batch)
        built.engine.engine.add_fact(("perfbench_stale", batch["source"]))
        built.engine.engine.saturate()
        return stats

    monkeypatch.setattr(builds, "write", leaky_write)
    problems = builds.oracle_mismatches(inputs.TINY, 3, "memory")
    assert problems == ["closure differs from a rebuild after writes",
                        "closure differs from the oracle's after writes"]


def _corrupt_one_answer(answers):
    return [answers[0] + " "] + answers[1:]


def test_corrupted_server_answer_is_a_failure(tmp_path):
    outcome = run_workload("serve", 3, 0.5, False, inputs.TINY,
                           fault=_corrupt_one_answer, workdir=tmp_path)
    result = outcome.result(END_TO_END)
    assert not result["correct"] and result["failed"] == 1


def test_host_scale_cancels_a_uniform_slowdown():
    """A host at half speed doubles both the phase and its references."""
    phase_s, references = 0.3, (0.05, 0.07, 0.06)
    slow = tuple(2 * t for t in references)
    assert measure.host_scale(*references) * phase_s == pytest.approx(
        measure.host_scale(*slow) * 2 * phase_s)
    assert measure.host_scale(0.1, nominal=0.04) == pytest.approx(0.4)
    pacer = measure.Pacer()
    scale = pacer.mark()
    assert len(pacer.references) == 2
    assert scale == pytest.approx(measure.host_scale(*pacer.references))
    assert measure.scaled_value((2.0, scale), scaled=False) == 2.0


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "build", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
