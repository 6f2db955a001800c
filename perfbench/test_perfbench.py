"""Tests of the benchmark itself: the correctness gate must reject a
perturbed output, spans must add up, and a run without the program must
fail fast.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import gate  # noqa: E402
from tracer import Tracer, percentile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


# -- table1 ---------------------------------------------------------------
def _table1():
    reference = gate.load_reference("table1", 0)
    output = dict(copy.deepcopy(reference), generations=250)
    independent = {
        "max_cost": output["max_cost"],
        "max_damage": output["max_damage"],
        "generations": 250,
    }
    return output, independent, reference


def test_table1_reference_passes():
    assert gate.check_table1(*_table1()) == []


@pytest.mark.parametrize(
    "path, value",
    [
        (("max_cost",), 2521.0),
        (("max_damage",), 1.0),
        (("min_cost", 0), 618.0),
        (("min_damage", 1), 25395.0),
        (("greedy", 0), 1.0),
        (("front_size",), 99),
    ],
)
def test_table1_rejects_perturbed_output(path, value):
    output, independent, reference = _table1()
    target = output
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    assert gate.check_table1(output, independent, reference)


def test_table1_cross_checks_without_reference():
    output, independent, _ = _table1()
    assert gate.check_table1(output, independent, None) == []
    independent["max_damage"] += 1.0
    assert gate.check_table1(output, independent, None)
    output, independent, _ = _table1()
    output["min_cost"][1] = 0.11 * output["max_damage"]
    assert gate.check_table1(output, independent, None)


# -- analyze_large --------------------------------------------------------
def _analyze():
    reference = gate.load_reference("analyze_large", 0)
    output = dict(copy.deepcopy(reference), hardenable=1.0)
    independent = {"primitives": [["s1", 4.0, 4.0], ["m0", 7.0, 7.0]]}
    return output, independent, reference


def test_analyze_rejects_perturbed_output():
    output, independent, reference = _analyze()
    assert gate.check_analyze(output, independent, reference) == []
    output["total"] += 1.0
    assert gate.check_analyze(output, independent, reference)
    output, independent, reference = _analyze()
    output["top_digest"] = "0" * 16
    assert gate.check_analyze(output, independent, reference)


def test_analyze_rejects_fast_bitset_disagreement():
    output, independent, _ = _analyze()
    independent["primitives"][1][2] = 7.5
    assert gate.check_analyze(output, independent, None)


# -- campaign -------------------------------------------------------------
def _campaign():
    output = {
        "samples": 100,
        "observations": 8,
        "mc": [
            [0.001, 100, 5.0, 4.0, 6.0, 20.0, 0.5],
            [0.01, 100, 9.0, 8.0, 10.0, 30.0, 0.9],
        ],
        "diagnosis": {
            "summary": {"observations_evaluated": 8, "rank1_accuracy": 0.5},
            "examples": [],
        },
    }
    independent = {
        "replayed": copy.deepcopy(output["mc"]),
        "fault_sets": [[3.0, 3.0], [8.0, 8.0]],
        "signatures": [[[["unobs", "a"]], [["unobs", "a"]]]],
        "rankings": [["[(f1, 1.0)]", "[(f1, 1.0)]"]],
    }
    return output, independent, gate.campaign_reference(output)


def test_campaign_rejects_perturbed_output():
    output, independent, reference = _campaign()
    assert gate.check_campaign(output, independent, reference) == []
    output["mc"][1][2] = 9.5
    assert gate.check_campaign(output, independent, reference)
    output, independent, reference = _campaign()
    output["diagnosis"]["summary"]["rank1_accuracy"] = 0.4
    assert gate.check_campaign(output, independent, reference)


@pytest.mark.parametrize(
    "key, value",
    [
        ("replayed", [[0.001, 100, 5.0, 4.0, 6.0, 20.0, 0.5]]),
        ("fault_sets", [[3.0, 3.0], [8.0, 8.5]]),
        ("signatures", [[[["unobs", "a"]], [["unset", "a"]]]]),
        ("rankings", [["[(f1, 1.0)]", "[(f2, 1.0)]"]]),
    ],
)
def test_campaign_cross_checks(key, value):
    output, independent, _ = _campaign()
    independent[key] = value
    assert gate.check_campaign(output, independent, None)


def test_references_recorded_for_default_seed():
    for workload in gate.CHECKS:
        assert gate.load_reference(workload, 0), workload


# -- tracer ---------------------------------------------------------------
def test_self_times_add_up_to_wall():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.02))

    def outer_body():
        time.sleep(0.01)
        inner()

    outer = tracer.wrap("outer", outer_body)
    began = time.perf_counter()
    outer()
    time.sleep(0.01)
    wall = time.perf_counter() - began
    times = tracer.summary(wall)
    assert sum(times.values()) == pytest.approx(wall)
    assert times["inner"] >= 0.02
    assert 0.01 <= times["outer"] < 0.02 + 0.01
    assert times["other"] >= 0.01


def test_overlapping_spans_are_rejected():
    tracer = Tracer()
    tracer.spans = [["a", None, 0.0, 1.0], ["b", 0, 0.0, 2.0]]
    with pytest.raises(RuntimeError):
        tracer.summary(2.0)


def test_patch_function_is_undone():
    import repro.rsn.icl as icl

    original = icl.loads
    tracer = Tracer()
    tracer.patch_function("rsn.parse", original)
    assert icl.loads is not original
    tracer.unpatch()
    assert icl.loads is original


def test_percentile_counts_failures_as_slowest():
    values = list(range(1, 101)) + [float("inf")]
    assert percentile(values, 50) == 51
    assert percentile(values, 100) == float("inf")


# -- run.py ---------------------------------------------------------------
def test_run_without_program_fails_fast(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table1",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode != 0
    for line in out.stdout.splitlines():
        assert "metrics" not in json.loads(line)
