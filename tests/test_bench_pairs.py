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
        "g: every run of a side crashed, no result parent 2 change 1"]


@pytest.mark.parametrize("trace", [0, 1])
def test_a_group_where_every_run_of_one_side_crashed_stays_in_the_summary(trace):
    # catches quartiles taken over a side with no runs, which raised
    # before the BENCH file was written
    runs, declared = synthetic_runs([10.0, 11.0], [None, None])
    for run in runs:
        if run["result"] is not None:
            run["result"]["trace"] = trace
    summary = bench_pairs.summarize({"g": runs}, declared)["g"]
    assert summary == {"no_result": {"parent": 0, "change": 2}}
    assert bench_pairs.report("g", summary) == [
        "g: every run of a side crashed, no result parent 0 change 2"]


def test_reports_the_quartiles_of_the_per_pair_ratio():
    # the parent drifts from 10 to 40 between pairs while the change stays
    # 10% below it in every pair: pooled medians hide what each pair shows
    parent = [10.0, 20.0, 30.0, 40.0, 40.0]
    change = [0.9 * p for p in parent]
    runs, declared = synthetic_runs(parent, change)
    summary = bench_pairs.summarize({"g": runs}, declared)["g"]
    ratio = summary["wall_s"]["pair_ratio"]
    assert (ratio["median"], ratio["q1"], ratio["q3"]) == pytest.approx((0.9, 0.9, 0.9))
    assert summary["wall_s"]["change_wins"] == 5
    # a reported figure only: the verdict still compares the pooled medians
    # (30 against 27) with the parent's interquartile range (20)
    assert summary["wall_s"]["verdict"] == "unresolved"
    line = [x for x in bench_pairs.report("g", summary) if " wall_s:" in x][0]
    assert "pair ratio 0.900 [0.900, 0.900]" in line
    # a group without a complete pair has no ratio to report
    runs, _ = synthetic_runs([10.0, None], [None, 9.0])
    lone = bench_pairs.summarize({"g": runs}, declared)["g"]
    assert lone["wall_s"]["pair_ratio"] is None
    assert "no pair ratio" in bench_pairs.report("g", lone)[0]


def test_a_zero_parent_median_is_judged_not_divided_by():
    # a side that stops counting a metric reports 0 for it; this raised
    # ZeroDivisionError before the BENCH file was written
    runs, declared = synthetic_runs([0.0, 0.0], [0.0, 5.0])
    summary = bench_pairs.summarize({"g": runs}, declared)["g"]
    for name in ("wall_s", "train_samples_per_s"):
        entry = summary[name]
        assert entry["relative_worsening"] is None
        assert entry["parent_iqr_over_median"] is None
        # the change's runs 0 and 5 spread around their median 2.5
        assert entry["verdict"] == "unresolved"
    assert len(bench_pairs.report("g", summary)) == len(declared)
    # a worsening from a zero median is worse, and 0 against 0 is no change
    runs, _ = synthetic_runs([0.0, 0.0], [5.0, 5.0])
    moved = bench_pairs.summarize({"g": runs}, declared)["g"]
    assert moved["wall_s"]["verdict"] == "worse"
    assert moved["train_samples_per_s"]["verdict"] == "gain"
    runs, _ = synthetic_runs([0.0, 0.0], [0.0, 0.0])
    still = bench_pairs.summarize({"g": runs}, declared)["g"]
    assert {still[m["name"]]["verdict"] for m in declared} == {"within bound"}



def test_a_zero_parent_leaves_the_bench_file_strict_json():
    # a parent reading 0, as 0/0 in the first pair and 0 against 5 in the
    # second, stored a ratio of inf, which json.dumps writes as Infinity
    runs, declared = synthetic_runs([0.0, 0.0, 10.0], [0.0, 5.0, 9.0])
    summary = bench_pairs.summarize({"g": runs}, declared)["g"]

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    parsed = json.loads(json.dumps(summary), parse_constant=refuse)
    assert parsed["wall_s"]["pair_ratio"]["sorted_runs"] == [0.9]
    runs, _ = synthetic_runs([0.0, 0.0], [0.0, 5.0])
    summary = bench_pairs.summarize({"g": runs}, declared)["g"]
    parsed = json.loads(json.dumps(summary), parse_constant=refuse)
    assert parsed["wall_s"]["pair_ratio"] is None


# a tier-1 run with one failed criterion, as ``pytest -q`` prints it
TIER1_STDOUT = """\
........................................................................ [ 15%]
...........................F.........................F..                 [100%]
=================================== FAILURES ===================================
___________________ test_seed_one_runs_match_the_oracle_record _________________
E       AssertionError: metrics differ from tools/oracle.json: ['h2h-fedsc-standard']
----------------------------- Captured stdout call -----------------------------
h2h-fedsc-standard weights: same (max abs diff 0)
============================= acceptance criteria ==============================
CRITERION 1: PASS - fedsc mean 1.00000 vs fedavg mean 1.00000, slowest run 5s
CRITERION 4: FAIL - max relative gradient error 1.156e+00 over 50 random instances
h2h-fedsc-standard weights: same (max abs diff 0)
h2h-fedavg-longtail weights: differs (max abs diff 2.78e-16)
=========================== short test summary info ============================
FAILED tests/test_acceptance.py::test_seed_one_runs_match_the_oracle_record
2 failed, 483 passed in 40.00s
"""


def test_keeps_the_acceptance_lines_of_a_tier1_run():
    assert bench_pairs.acceptance_summary(TIER1_STDOUT) == [
        "CRITERION 1: PASS - fedsc mean 1.00000 vs fedavg mean 1.00000, slowest run 5s",
        "CRITERION 4: FAIL - max relative gradient error 1.156e+00 over 50 random instances",
        "h2h-fedsc-standard weights: same (max abs diff 0)",
        "h2h-fedavg-longtail weights: differs (max abs diff 2.78e-16)",
    ]
    # a run that never reached the acceptance module has no such section
    assert bench_pairs.acceptance_summary("3 passed in 0.10s\n") == []
