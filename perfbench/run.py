"""fedsc benchmark: one workload, one seed, one process.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload h2h-fedsc --seed 1 --seconds 40 --trace 0

The workloads, metric names, units and bounds are in ``BENCHMARK.json`` at
the checkout root; ``workloads.py`` says how each workload is built.  The
package is imported from the checkout's ``src/``; BLAS thread variables are
pinned to 1 before numpy loads and ``FEDSC_SEED`` is cleared so ``--seed``
decides every input.

``--trace 0`` runs the workload's experiment at least ``min_reps`` times
and again while another fits in ``--seconds``, each after a batch of
set-up-only runs, and prints the end-to-end metrics: per-experiment figures
averaged over the run.  ``--trace 1`` runs one untraced and one traced
experiment, checks that their outputs are equal, runs a traced
cross-device experiment and the probes in ``probes.py`` and prints the
per-layer metrics, with spans written under ``perfbench/out/spans``.
Every experiment's output is checked; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A full record, including the machine block, goes to
``perfbench/out/results``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--rounds", type=int, default=None,
                        help="shorten every experiment to this many rounds and "
                             "skip the accuracy checks (harness smoke test)")
    return parser.parse_args(argv)


def machine_block(cli_threads: int) -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas_name": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(),
        "desk_cli_threads": cli_threads,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str:
    """HEAD of the checkout when it is itself a git work tree, else unknown."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
            return "unknown"
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        return head.stdout.strip() if head.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("FEDSC_SEED", None)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import fedsc
    except ImportError as exc:
        print(f"perfbench: cannot import fedsc from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if ROOT / "src" not in Path(fedsc.__file__).resolve().parents:
        print(f"perfbench: fedsc imported from {fedsc.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    import harness
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    rounds = args.rounds or workload.rounds
    check = args.rounds is None
    nproc = len(os.sched_getaffinity(0))
    cli_threads = nproc if (os.cpu_count() or 1) > nproc else None
    machine = machine_block(cli_threads or os.cpu_count())

    (OUT / "work").mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT / "work"))
    try:
        if args.trace:
            record = harness.per_layer(
                workload, args.seed, rounds, check, workdir, cli_threads,
                OUT / "spans")
            declared = spec["per_layer"]
        else:
            record = harness.end_to_end(
                workload, args.seed, args.seconds, rounds, check, workdir,
                cli_threads)
            declared = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if record is None:
        print(f"perfbench: no experiment of {workload.name} completed",
              file=sys.stderr)
        return 1

    attempted, failed = record["attempted"], record["failed"]
    record.update(workload=workload.name, seed=args.seed, trace=args.trace,
                  rounds=rounds, seconds=args.seconds,
                  failed_share=failed / attempted, machine=machine)
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    (OUT / "results" / name).write_text(json.dumps(record, indent=1))

    for key, value in machine.items():
        print(f"machine {key} = {value}")
    for r in record["experiments"]:
        print("experiment", {k: v for k, v in r.items()
                             if k not in ("accuracy", "round_ms")})
    if not args.trace:
        print(f"round_ms_p50 and round_ms_tail (p{record['round_ms_tail_percentile']}) "
              f"are per-experiment percentiles averaged over "
              f"{len(record['experiments'])} experiments, "
              f"{record['round_samples']} rounds; setup_s averages the medians "
              f"of batches of set-ups, {record['setup_samples']} in all")
        print(f"time_to_target_s = {record['time_to_target_s']} s "
              f"(accuracy {workload.target}, reported, not gated)")
    else:
        print(f"traced run recorded {record['spans']} spans")
    print(f"failed_share = {failed / attempted} ({failed} of {attempted} experiments)")
    metrics = {}
    for entry in declared:
        value = record["metrics"][entry["name"]]
        print(f"{entry['name']} = {value} {entry['unit']}")
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
