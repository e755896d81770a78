"""Tests of the benchmark's own code: smoke rounds, output format, checks.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Smoke sizes: one round of each workload in a few seconds.
SMOKE = {
    "soc1-cones": {},
    "tam-sweep": {"socs": ("d695", "g1023"), "tam_widths": (16, 32)},
    "tdv-model": {"samples": 200},
}


def _round(name, tmp_path, **sizes):
    workload = workloads.WORKLOADS[name](**sizes)
    return workload, workload.run_round(tmp_path / "cache")


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_smoke_round_passes_its_checks(name, tmp_path):
    workload, out = _round(name, tmp_path, **SMOKE[name])
    rounds = run.Rounds(workload, tmp_path)
    rounds.note(out)
    rounds.note(workload.run_round(tmp_path / "cache"))  # a warm round
    correct, attempted, failed = rounds.outcome()
    assert correct and failed == 0
    assert attempted == 2 * workload.operations(out) > 0


def test_soc2_round_holds_the_paper_relations(tmp_path):
    workload, out = _round("soc2-atpg", tmp_path)
    assert workload.round_ok(out)
    assert workload.quality(out) == {"patterns": 1773}
    assert all(workload.verify_first(out))


def test_perturbed_atpg_result_fails(tmp_path):
    workload, out = _round("soc1-cones", tmp_path)
    job, result = max(out.jobs, key=lambda pair: pair[1].pattern_count)
    shorter = dataclasses.replace(
        result,
        test_set=dataclasses.replace(
            result.test_set, patterns=result.test_set.patterns[:-1]
        ),
    )
    assert workloads.check_job(job, result, None)
    assert not workloads.check_job(job, shorter, None)

    index = out.jobs.index((job, result))
    counts = dict(out.value)
    counts[job.netlist.outputs[0]] -= 1
    perturbed = workloads.RoundOutput(
        counts, out.stdout,
        out.jobs[:index] + [(job, shorter)] + out.jobs[index + 1:],
    )
    rounds = run.Rounds(workload, tmp_path)
    rounds.note(out)
    rounds.note(perturbed)
    correct, attempted, failed = rounds.outcome()
    assert not correct
    assert (attempted, failed) == (2 * len(out.jobs), 1)


def test_round_that_raises_fails_its_operations(tmp_path):
    workload = workloads.WORKLOADS["tdv-model"](samples=50)
    rounds = run.Rounds(workload, tmp_path)
    rounds.timed(tmp_path / "cache")
    workload.call = lambda runtime: 1 / 0
    rounds.timed(tmp_path / "cache")
    assert rounds.outcome() == (False, 100, 50)


def test_coverage_below_reference_fails(tmp_path):
    workload, out = _round("soc1-cones", tmp_path)
    job, result = out.jobs[0]
    assert workloads.check_job(job, result, {"coverage": 0.0, "aborted": 0})
    too_high = {"coverage": result.fault_coverage + 1e-9, "aborted": 0}
    assert not workloads.check_job(job, result, too_high)


def test_perturbed_report_fails_the_whole_round(tmp_path):
    workload, out = _round("tdv-model", tmp_path, **SMOKE["tdv-model"])
    broken = workloads.RoundOutput(
        out.value, out.stdout.replace("PASS", "FAIL", 1), out.jobs
    )
    assert workload.round_ok(out)
    assert not workload.round_ok(broken)
    rounds = run.Rounds(workload, tmp_path)
    rounds.note(out)
    rounds.note(broken)
    assert rounds.outcome()[1:] == (400, 200)


def test_unverified_schedule_fails_its_point(tmp_path):
    workload, out = _round("tam-sweep", tmp_path, **SMOKE["tam-sweep"])
    records = [dict(record) for record in out.value.records]
    records[0]["verified"] = False
    broken = workloads.RoundOutput(
        dataclasses.replace(out.value, records=records), out.stdout, out.jobs
    )
    verdicts = workload.verify_first(broken)
    assert verdicts.count(False) == 1


def test_cli_knows_every_workload():
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)


def test_self_times_subtract_direct_children_only():
    spans = [
        {"name": "round", "depth": 0, "duration": 10.0},
        {"name": "a", "depth": 1, "duration": 6.0},
        {"name": "b", "depth": 2, "duration": 4.0},
        {"name": "c", "depth": 1, "duration": 1.0},
    ]
    assert layers.self_times(spans) == [3.0, 2.0, 4.0, 1.0]


def test_wrappers_restore_the_originals():
    from repro.runtime import cache, executor

    before = (cache.result_key, executor.result_key, cache.AtpgResultCache.get)
    with layers.wrapped_calls():
        assert cache.result_key is not before[0]
    assert (cache.result_key, executor.result_key, cache.AtpgResultCache.get) == before


def _bench(*arguments, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *arguments],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, group", [("0", "end_to_end"), ("1", "per_layer")])
def test_last_line_names_every_metric_with_its_unit(trace, group):
    completed = _bench("--workload", "soc1-cones", "--seed", "5",
                       "--seconds", "1", "--trace", trace)
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    expected = {metric["name"]: metric["unit"] for metric in SPEC[group]}
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == expected
    for name in expected:
        assert f"  {name} = " in completed.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = _bench("--workload", "tdv-model", "--seed", "1",
                       "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert completed.returncode != 0
    assert "correct" not in completed.stdout
