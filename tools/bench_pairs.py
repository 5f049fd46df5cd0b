"""Run alternating parent/change pairs of the benchmark and write a BENCH file.

Usage (each DIR the root of a source checkout; about 50 s per run):

    python tools/bench_pairs.py --parent DIR --change DIR --workload desk-cli \\
        --pairs 10 --out BENCH_23.json [--seed 1] [--seconds 40] [--trace 0]

Pair i runs every ``--workload`` in turn on both sides with that side's own
``perfbench/run.py``, the parent first in odd pairs and the change first in
even pairs; the two sides never run at once.  Each result file is copied
out right after its run, because ``perfbench/run.py`` writes every run of a
workload to the same path.  Each side's ``git rev-parse HEAD`` (or
``unknown`` when DIR is not the top of a git work tree) and one run of its
tier-1 suite are recorded: wall time, summary line and the acceptance lines,
which carry each criterion's verdict and the oracle runs' weights verdicts.

The file keeps ``BENCH_20.json``'s layout (``what``, ``command``,
``procedure``, ``summary``, ``results``) plus ``sides``, as compact JSON.
``results`` maps ``<workload> --seed <s> --trace <t>`` to the runs in pair
order.  When ``--out`` exists its groups and tier-1 times are kept, this
invocation's groups are added or replaced, and the summary is recomputed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from itertools import takewhile
from pathlib import Path

TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]


def quartiles(values: list[float]) -> dict:
    """Median, inclusive quartiles and the sorted runs of one side."""
    runs = sorted(values)
    if len(runs) == 1:
        q1 = q3 = runs[0]
    else:
        q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": statistics.median(runs), "q1": q1, "q3": q3, "sorted_runs": runs}


def verdict(parent: dict, change: dict, wins: int, pairs: int, lower: bool,
            bound: float, crashed: int = 0) -> str:
    """The rule for a measured change on a small, noisy host.

    ``gain``: no run of the group crashed (``crashed`` counts the runs that
    left no result), the change wins at least nine tenths of the pairs and
    its median is better by more than the parent's interquartile range.
    ``unresolved``: either side's interquartile range is wider than
    ``bound`` of its median, unless every change run beats every parent run.
    ``worse``: the median worsened by more than ``bound``.  Otherwise
    ``within bound``.
    """
    sign = 1.0 if lower else -1.0
    p_med, c_med = parent["median"], change["median"]
    if (not crashed and wins >= 0.9 * pairs
            and sign * (p_med - c_med) > parent["q3"] - parent["q1"]):
        return "gain"
    spread = max((side["q3"] - side["q1"]) / side["median"] for side in (parent, change))
    p_runs, c_runs = parent["sorted_runs"], change["sorted_runs"]
    separated = (c_runs[-1] < p_runs[0]) if lower else (c_runs[0] > p_runs[-1])
    if spread > bound and not separated:
        return "unresolved"
    if sign * (c_med - p_med) / p_med > bound:
        return "worse"
    return "within bound"


def _by_side(runs: list[dict]) -> dict[str, list[dict]]:
    return {side: [r for r in runs if r["side"] == side and r["result"] is not None]
            for side in ("parent", "change")}


def _no_result(runs: list[dict]) -> dict[str, int]:
    """Each side's runs that crashed and left no result."""
    return {side: sum(r["side"] == side and r["result"] is None for r in runs)
            for side in ("parent", "change")}


def summarize_end_to_end(runs: list[dict], declared: list[dict]) -> dict:
    """Per-metric medians, quartiles, pairs won, worsening and verdict, plus
    the quartiles of the per-pair change/parent ratio (``pair_ratio``, a
    reported figure that the verdict does not read): the host can drift
    between pairs by more than the change moves within one."""
    sides = _by_side(runs)
    pair_of = {side: {r["pair"]: r["result"]["metrics"] for r in sides[side]}
               for side in sides}
    pairs = sorted(set(pair_of["parent"]) & set(pair_of["change"]))
    no_result = _no_result(runs)
    out: dict = {"pairs": len(pairs), "no_result": no_result}
    for metric in declared:
        name, lower, bound = metric["name"], metric["better"] == "lower", metric["bound"]
        parent = quartiles([r["result"]["metrics"][name] for r in sides["parent"]])
        change = quartiles([r["result"]["metrics"][name] for r in sides["change"]])
        wins, ratios = 0, []
        for i in pairs:
            p, c = pair_of["parent"][i][name], pair_of["change"][i][name]
            wins += (c < p) if lower else (c > p)
            ratios.append(c / p if p else math.inf)
        worsening = (change["median"] - parent["median"]) / parent["median"]
        out[name] = {
            "parent": parent, "change": change, "change_wins": wins,
            "pair_ratio": quartiles(ratios) if ratios else None,
            "relative_worsening": worsening if lower else -worsening,
            "bound": bound,
            "parent_iqr_over_median": (parent["q3"] - parent["q1"]) / parent["median"],
            "verdict": verdict(parent, change, wins, len(pairs), lower, bound,
                               sum(no_result.values())),
        }
    out["failed"] = {side: sum(r["result"]["failed"] for r in sides[side])
                     for side in sides}
    return out


def summarize_per_layer(runs: list[dict]) -> dict:
    """Each per-layer metric's median over each side's traced runs."""
    sides = _by_side(runs)
    return {name: {side: statistics.median(r["result"]["metrics"][name]
                                           for r in sides[side])
                   for side in sides}
            for name in sides["parent"][0]["result"]["metrics"]}


def summarize(results: dict, declared: list[dict]) -> dict:
    """The summary of every group of ``results``; ``declared`` is
    ``BENCHMARK.json``'s ``end_to_end`` list."""
    summary = {}
    for group, runs in results.items():
        done = [r for r in runs if r["result"] is not None]
        if {r["side"] for r in done} != {"parent", "change"}:
            # a side with no result leaves nothing to compare
            summary[group] = {"no_result": _no_result(runs)}
        elif done[0]["result"]["trace"]:
            summary[group] = summarize_per_layer(runs)
        else:
            summary[group] = summarize_end_to_end(runs, declared)
    return summary


def git_sha(root: Path) -> str:
    """HEAD of ``root`` when it is itself the top of a git work tree, else unknown."""
    try:
        top = subprocess.run(["git", "-C", str(root), "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != root:
            return "unknown"
        head = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        return head.stdout.strip() if head.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def acceptance_summary(stdout: str) -> list[str]:
    """The lines of the ``acceptance criteria`` section that the suite's
    conftest adds to pytest's terminal summary: one ``CRITERION n:`` line
    per criterion and one ``<run> weights:`` line per oracle run."""
    lines = iter(stdout.splitlines())
    for line in lines:
        if re.fullmatch(r"=+ acceptance criteria =+", line):
            return list(takewhile(re.compile(r"CRITERION \d+: |\S+ weights: ").match,
                                  lines))
    return []


def run_tier1(root: Path) -> dict:
    """Wall time, summary line and acceptance lines of one tier-1 run in ``root``."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=root, env=env,
                          capture_output=True, text=True)
    seconds = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines() or [""]
    return {"seconds": seconds, "returncode": proc.returncode, "summary": lines[-1],
            "acceptance": acceptance_summary(proc.stdout)}


def run_bench(root: Path, workload: str, seed: int, seconds: float, trace: int,
              keep: Path) -> dict | None:
    """One ``perfbench/run.py`` run in ``root``; its result file is copied to
    ``keep`` at once and returned, or None when the run failed."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        print(proc.stderr[-2000:], file=sys.stderr)
        return None
    produced = root / "perfbench" / "out" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    shutil.copyfile(produced, keep)
    return json.loads(keep.read_text())


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", action="append", required=True,
                        help="repeat to run several workloads in each pair")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--what", default=None, help="one-line description of the change")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    declared = json.loads((roots["change"] / "BENCHMARK.json").read_text())["end_to_end"]
    bench = json.loads(args.out.read_text()) if args.out.exists() else {}
    sides = bench.get("sides", {})
    for side, root in roots.items():
        if "tier1" not in sides.get(side, {}):
            print(f"tier-1 on the {side} side ...", file=sys.stderr, flush=True)
            sides[side] = {"git_sha": git_sha(root), "tier1": run_tier1(root)}
    results = bench.get("results", {})
    keep = args.out.parent / (args.out.stem + "-runs")
    keep.mkdir(exist_ok=True)
    groups = {w: f"{w} --seed {args.seed} --trace {args.trace}" for w in args.workload}
    for group in groups.values():
        results[group] = []
    for pair in range(1, args.pairs + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for workload, group in groups.items():
            for side in order:
                name = f"{workload}-seed{args.seed}-trace{args.trace}-pair{pair}-{side}.json"
                result = run_bench(roots[side], workload, args.seed, args.seconds,
                                   args.trace, keep / name)
                results[group].append({"pair": pair, "side": side, "result": result})
                print(f"pair {pair} {workload} {side}: "
                      f"{'failed' if result is None else 'done'}", file=sys.stderr, flush=True)
    bench = {
        "what": args.what if args.what is not None else bench.get("what", ""),
        "command": "python3 perfbench/run.py --workload <w> --seed <s> "
                   "--seconds <seconds> --trace <t>",
        "procedure": "tools/bench_pairs.py: pair i runs each workload of a group on "
                     "both sides, the parent first in odd pairs and the change first "
                     "in even pairs, one run at a time; each result file is copied "
                     "right after its run; relative_worsening is (change median - "
                     "parent median) / parent median, sign-flipped for "
                     "higher-is-better metrics; quartiles are inclusive",
        "sides": sides,
        "summary": summarize(results, declared),
        "results": results,
    }
    args.out.write_text(json.dumps(bench, separators=(",", ":")))
    shutil.rmtree(keep)
    for group in groups.values():
        for line in report(group, bench["summary"].get(group, {})):
            print(line)
    return 0


def report(group: str, summary: dict) -> list[str]:
    """One line per end-to-end metric of a group's summary, with the runs
    that left no result; a group where every run of a side crashed gets one
    line."""
    if "no_result" not in summary:
        return []
    no_result = summary["no_result"]
    crashed = f"no result parent {no_result['parent']} change {no_result['change']}"
    if set(summary) == {"no_result"}:
        return [f"{group}: every run of a side crashed, {crashed}"]
    return [f"{group} {name}: {entry['parent']['median']:.6g} -> "
            f"{entry['change']['median']:.6g}, change won "
            f"{entry['change_wins']}/{summary['pairs']}, {_ratio(entry)}, {crashed}, "
            f"{entry['verdict']}"
            for name, entry in summary.items()
            if isinstance(entry, dict) and "verdict" in entry]


def _ratio(entry: dict) -> str:
    ratio = entry["pair_ratio"]
    if ratio is None:
        return "no pair ratio"
    return (f"pair ratio {ratio['median']:.3f} "
            f"[{ratio['q1']:.3f}, {ratio['q3']:.3f}]")


if __name__ == "__main__":
    sys.exit(main())
