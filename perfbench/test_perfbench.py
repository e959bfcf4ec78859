"""Tests of the benchmark's own arithmetic and checks: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import random
import sys
import types

import pytest

import harness
from tracer import LAYER_METRICS, LAYERS, SpanRecorder, installed
from workloads import AnalyzeLarge, ConstructVerify, Item, Tally, blocks_problem, construct_op

harness.use_checkout()


@pytest.fixture(scope="module")
def lib():
    return harness.import_library()


def test_p90_withheld_below_one_hundred_samples():
    samples = [i / 1000.0 for i in range(1, 100)]
    rows = {name: value for name, value, _, _ in harness.op_metrics("oracle", samples)}
    assert rows["oracle_p90_ms"] is None
    assert rows["oracle_p50_ms"] == pytest.approx(50.0)
    rows = {name: value for name, value, _, _ in harness.op_metrics("oracle", samples + [0.1])}
    # nearest rank: the 90th of 100 ordered samples leaves ten beyond it
    assert rows["oracle_p90_ms"] == pytest.approx(90.0)


def test_local_speed_is_a_windowed_median():
    nominal = harness.CALIBRATION_NOMINAL_S
    speeds = harness.local_speeds([nominal] * 20 + [2 * nominal] * 20)
    assert speeds[:20] == [1.0] * 20  # input 19 sees six nominal and five slow times
    assert speeds[20:] == [2.0] * 20


def test_self_time_of_nested_spans():
    now = [0.0]

    def tick(seconds):
        now[0] += seconds

    rec = SpanRecorder(clock=lambda: now[0])
    leaf = rec.wrap("linalg.leaf", lambda: tick(2.0))

    def mid_body():
        tick(1.0)
        leaf()
        tick(3.0)
        leaf()

    mid = rec.wrap("structure.mid", mid_body)

    def top_body():
        mid()
        tick(5.0)
        leaf()

    top = rec.wrap("feasibility.top", top_body)
    top()
    tick(7.0)  # outside every span
    leaf()
    assert rec.calls == {"linalg.leaf": 4, "structure.mid": 1, "feasibility.top": 1}
    assert rec.self_s["linalg.leaf"] == pytest.approx(8.0)
    assert rec.self_s["structure.mid"] == pytest.approx(4.0)  # 8 total - 4 in leaves
    assert rec.self_s["feasibility.top"] == pytest.approx(5.0)  # 15 total - 8 mid - 2 leaf
    assert rec.total_s["feasibility.top"] == pytest.approx(15.0)
    assert rec.top_level_s == pytest.approx(17.0)  # top plus the last leaf
    assert rec.metric("linalg.leaf.self_ms") == pytest.approx(8000.0)
    assert rec.metric("linalg.gone.calls") is None


@pytest.fixture
def fake_package(monkeypatch):
    """Six layer modules where ``structure`` re-binds ``problem.conflicts``,
    as ``from .problem import conflicts`` does."""
    modules = {name: types.ModuleType(f"fakepkg.{name}") for name in LAYERS}
    exec("def conflicts(p):\n    return p * 2\n", vars(modules["problem"]))
    exec("def report(p):\n    return conflicts(p) + 1\n", vars(modules["structure"]))
    modules["structure"].conflicts = modules["problem"].conflicts
    monkeypatch.setitem(sys.modules, "fakepkg", types.ModuleType("fakepkg"))
    for name, module in modules.items():
        monkeypatch.setitem(sys.modules, module.__name__, module)
    return modules


def test_wrappers_reach_every_binding_and_are_removed(fake_package):
    problem, structure = fake_package["problem"], fake_package["structure"]
    original = problem.conflicts
    rec = SpanRecorder()
    with installed(rec, package="fakepkg"):
        assert structure.conflicts is problem.conflicts is not original
        assert structure.report(3) == 7
    assert structure.conflicts is original and problem.conflicts is original
    assert rec.calls == {"structure.report": 1, "problem.conflicts": 1}
    assert rec.top_level_s == pytest.approx(rec.total_s["structure.report"])


def test_wrong_golden_digest_is_a_failed_operation(lib):
    item = AnalyzeLarge(golden={}).generate(lib, seed=1, count=1)[0]
    tally = Tally("analyze-large", 1)
    AnalyzeLarge(golden={item.key: "0" * 64}).run_item(lib, item, 0, tally)
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "analyze-large seed=1 index=0 op=analyze" in tally.failures[0]
    assert "digest" in tally.failures[0]


def test_corrupted_code_is_a_failed_operation(lib):
    p = blocks_problem(lib, random.Random(0), 3)
    text = lib.problem.problem_to_json(p)
    _, code, code_text = construct_op(lib, text, seed=0)
    data = json.loads(code_text)
    data["vectors"][0] = [0] * code.length
    item = Item("blocks-3", text)
    tally = Tally("construct-verify", 5)
    ConstructVerify().verify_step(lib, item, 0, code_text, tally)
    assert tally.failed == 0
    ConstructVerify().verify_step(lib, item, 1, json.dumps(data), tally)
    assert (tally.attempted, tally.failed) == (2, 1)
    assert "seed=5 index=1 op=verify input=blocks-3" in tally.failures[0]


def test_benchmark_json_lists_the_traced_metrics():
    bench = harness.benchmark_json()
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(LAYER_METRICS)
