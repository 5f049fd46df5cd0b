"""The pairs driver's summarizer: it reproduces a committed BENCH file's
summary from that file's results, and applies the gain rule as written."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def assert_contains(expected, actual, path="summary"):
    """Every key of ``expected`` is in ``actual`` with an equal value."""
    if isinstance(expected, dict):
        for key, value in expected.items():
            assert key in actual, f"{path}: no {key}"
            assert_contains(value, actual[key], f"{path}.{key}")
    elif isinstance(expected, list):
        assert len(expected) == len(actual), path
        for i, (a, b) in enumerate(zip(expected, actual)):
            assert_contains(a, b, f"{path}[{i}]")
    elif isinstance(expected, float):
        assert math.isclose(expected, actual, rel_tol=1e-12), path
    else:
        assert expected == actual, path


def test_reproduces_the_summary_of_bench_20():
    bench = json.loads((ROOT / "BENCH_20.json").read_text())
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    summary = bench_pairs.summarize(bench["results"], declared)
    assert set(summary) == set(bench["summary"])
    assert_contains(bench["summary"], summary)
    # no gain was claimed there, and no metric moved past its bound
    verdicts = {entry["verdict"] for group in summary.values()
                for entry in group.values() if isinstance(entry, dict) and "verdict" in entry}
    assert verdicts == {"within bound"}


def side(runs):
    return bench_pairs.quartiles(runs)


@pytest.mark.parametrize("parent,change,wins,lower,expected", [
    # 9 of 10 won, median gap 3 against a parent IQR of 2
    ([10, 11, 12, 13, 14] * 2, [8, 9, 9, 10, 11] * 2, 9, True, "gain"),
    # the same runs with only 8 pairs won
    ([10, 11, 12, 13, 14] * 2, [8, 9, 9, 10, 11] * 2, 8, True, "within bound"),
    # higher is better: the same runs are a 25% loss, past a 0.2 bound
    ([10, 11, 12, 13, 14] * 2, [8, 9, 9, 10, 11] * 2, 0, False, "worse"),
    # a spread wider than the bound decides nothing ...
    ([5, 10, 20, 30, 40] * 2, [6, 11, 21, 31, 41] * 2, 0, True, "unresolved"),
    # ... unless every change run beats every parent run
    ([10, 11, 12, 30, 40] * 2, [5, 6, 7, 8, 9] * 2, 8, True, "within bound"),
])
def test_verdict(parent, change, wins, lower, expected):
    assert bench_pairs.verdict(side(parent), side(change), wins, 10, lower, 0.2) == expected


def synthetic_runs(parent_values, change_values):
    """One group's runs in pair order; a value of None is a run that crashed."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    runs = []
    for pair, (p, c) in enumerate(zip(parent_values, change_values), 1):
        for side, value in (("parent", p), ("change", c)):
            result = None if value is None else {
                "trace": 0, "failed": 0,
                "metrics": {m["name"]: value for m in declared}}
            runs.append({"pair": pair, "side": side, "result": result})
    return runs, declared


def test_crashed_runs_are_counted_and_forbid_a_gain():
    # every metric lower on the change in the one complete pair, but 2 of
    # the 3 change runs crashed
    runs, declared = synthetic_runs([10.0, 10.0, 10.0], [5.0, None, None])
    summary = bench_pairs.summarize({"g": runs}, declared)["g"]
    assert summary["no_result"] == {"parent": 0, "change": 2}
    assert summary["pairs"] == 1
    verdicts = {entry["verdict"] for entry in summary.values()
                if isinstance(entry, dict) and "verdict" in entry}
    assert "gain" not in verdicts
    lines = bench_pairs.report("g", summary)
    assert lines and all("no result parent 0 change 2" in line for line in lines)
    # the same pair without the crashed runs is a gain on the lower-is-better
    # metrics
    clean = bench_pairs.summarize({"g": runs[:2]}, declared)["g"]
    assert clean["no_result"] == {"parent": 0, "change": 0}
    assert clean["wall_s"]["verdict"] == "gain"


def test_a_group_whose_runs_all_crashed_stays_in_the_summary():
    runs, declared = synthetic_runs([None, None], [None, 4.0])
    runs = runs[:3]  # the change's second run never happened
    summary = bench_pairs.summarize({"g": runs}, declared)["g"]
    assert summary == {"no_result": {"parent": 2, "change": 1}}
    assert bench_pairs.report("g", summary) == [
        "g: every run crashed, no result parent 2 change 1"]
