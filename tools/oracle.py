"""Equivalence oracle: rerun fixed-seed experiments and compare them with a
recorded copy.

Usage, from the root of a source checkout (about 20 s on 2 vCPUs):

    python tools/oracle.py            # compare with the recorded copy
    python tools/oracle.py --record   # overwrite the recorded copy

The runs are the head-to-head of the acceptance tests, as
``tests/h2h_protocol.py`` defines it (fedsc and fedavg at seed 1, on the
standard data and on the 100:1 long tail), and
``fedsc generate/run --preset desk --seed 1`` for both algorithms at
``--threads 1`` and ``3``.  Each artifact gets one line, ``same`` or
``differs``: the metrics rows without ``wall_ms``, ``meta_<algorithm>.txt``,
the data files, and the final global weights of each head-to-head run with
the largest absolute difference from the recorded weights.

Digests live in ``oracle.json`` and weights in ``oracle_weights.npz`` next
to this script.  The exit code is 1 when a metrics, meta or data artifact
differs; a weights difference is reported but not fatal, because a
refactor may change float summation order in the last bits.  BLAS runs on
one thread.  The test suite checks the four head-to-head metrics digests
against the same record, from the runs its acceptance fixtures train.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE.parent / "tests"))

import numpy as np  # noqa: E402

from fedsc.cli import main as cli_main  # noqa: E402
from h2h_protocol import (  # noqa: E402
    ALGORITHMS,
    csv_digest,
    head_to_head,
    metrics_digest,
    run_name,
    weights_line,
)

DIGESTS = HERE / "oracle.json"
WEIGHTS = HERE / "oracle_weights.npz"
SEED = 1


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def seed_one_runs(digests: dict, weights: dict) -> None:
    """The acceptance head-to-head at seed 1, standard and long tail."""
    for long_tail in (False, True):
        runs = head_to_head(SEED, long_tail=long_tail)
        for algorithm in ALGORITHMS:
            name = run_name(algorithm, long_tail)
            digests[f"{name} metrics"] = metrics_digest(runs[algorithm].metrics)
            weights[name] = runs[algorithm].state.params.flat.copy()


def desk_cli(work: Path, digests: dict) -> None:
    """``fedsc generate`` and ``fedsc run`` with the desk preset."""
    for threads in (1, 3):
        out = work / f"desk-threads{threads}"
        common = ["--preset", "desk", "--seed", str(SEED), "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            if cli_main(["generate", *common]) != 0:
                raise SystemExit(f"fedsc generate failed for {out}")
            for algorithm in ALGORITHMS:
                if cli_main(["run", *common, "--algorithm", algorithm,
                             "--threads", str(threads)]) != 0:
                    raise SystemExit(f"fedsc run --algorithm {algorithm} failed")
        name = f"desk-threads{threads}"
        for data_file in ("train.fsd", "test.fsd"):
            digests[f"{name} {data_file}"] = _sha((out / data_file).read_bytes())
        for algorithm in ALGORITHMS:
            digests[f"{name} metrics_{algorithm}.csv"] = csv_digest(
                out / f"metrics_{algorithm}.csv")
            digests[f"{name} meta_{algorithm}.txt"] = _sha(
                (out / f"meta_{algorithm}.txt").read_bytes())


def compare(digests: dict, weights: dict) -> int:
    recorded = json.loads(DIGESTS.read_text())
    failed = False
    for key in sorted(digests.keys() | recorded.keys()):
        same = digests.get(key) == recorded.get(key)
        failed |= not same
        print(f"{key}: {'same' if same else 'differs'}")
    with np.load(WEIGHTS) as stored:
        for name in sorted(weights.keys() | set(stored.files)):
            print(weights_line(name, weights.get(name),
                               stored[name] if name in stored.files else None))
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true",
                        help="overwrite the recorded digests and weights")
    args = parser.parse_args(argv)
    digests: dict[str, str] = {}
    weights: dict[str, np.ndarray] = {}
    with tempfile.TemporaryDirectory() as tmp:
        seed_one_runs(digests, weights)
        desk_cli(Path(tmp), digests)
    if args.record:
        DIGESTS.write_text(json.dumps(dict(sorted(digests.items())), indent=1) + "\n")
        np.savez(WEIGHTS, **weights)
        print(f"recorded {len(digests)} digests and {len(weights)} weight vectors")
        return 0
    return compare(digests, weights)


if __name__ == "__main__":
    sys.exit(main())
