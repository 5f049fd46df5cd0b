"""Equivalence oracle: rerun fixed-seed experiments and compare them with a
recorded copy.

Usage, from the root of a source checkout (about 60 s on 2 vCPUs):

    python tools/oracle.py            # compare with the recorded copy
    python tools/oracle.py --record   # overwrite the recorded copy

The runs are the head-to-head of the acceptance tests (fedsc and fedavg at
seed 1, on the standard data and on the 100:1 long tail) and
``fedsc generate/run --preset desk --seed 1`` for both algorithms at
``--threads 1`` and ``3``.  Each artifact gets one line, ``same`` or
``differs``: the metrics rows without ``wall_ms``, ``meta_<algorithm>.txt``,
the data files, and the final global weights of each head-to-head run with
the largest absolute difference from the recorded weights.

Digests live in ``oracle.json`` and weights in ``oracle_weights.npz`` next
to this script.  The exit code is 1 when a metrics, meta or data artifact
differs; a weights difference is reported but not fatal, because a
refactor may change float summation order in the last bits.  BLAS runs on
one thread.
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

import numpy as np  # noqa: E402

from fedsc.cli import main as cli_main  # noqa: E402
from fedsc.data import (  # noqa: E402
    PartitionConfig,
    apply_long_tail,
    generate_gaussian_blobs,
    split_holdout,
)
from fedsc.federation import (  # noqa: E402
    FederationConfig,
    run_experiment,
    write_metrics_csv,
)

DIGESTS = HERE / "oracle.json"
WEIGHTS = HERE / "oracle_weights.npz"
SEED = 1
ALGORITHMS = ("fedsc", "fedavg")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _metrics_digest(path: Path) -> str:
    """Digest of a metrics CSV with its last column, ``wall_ms``, cut off."""
    rows = [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]
    return _sha("\n".join(rows).encode())


def head_to_head(work: Path, digests: dict, weights: dict) -> None:
    """The acceptance head-to-head: 10 clients, 30 rounds, hidden 128."""
    full = generate_gaussian_blobs(10, 1000, 16, 4.0, SEED)
    train, test = split_holdout(full, 0.5, seed=SEED)
    partition = PartitionConfig("dirichlet", 10, 0.2, seed=SEED)
    for data, train_set in (("standard", train),
                            ("longtail", apply_long_tail(train, 100.0, seed=SEED))):
        for algorithm in ALGORITHMS:
            config = FederationConfig(rounds=30, num_clients=10, local_epochs=5,
                                      algorithm=algorithm, seed=SEED,
                                      hidden_dim=128, feature_dim=32)
            result = run_experiment(config, train_set, partition, test=test)
            name = f"h2h-{algorithm}-{data}"
            path = work / f"{name}.csv"
            write_metrics_csv(path, result.metrics)
            digests[f"{name} metrics"] = _metrics_digest(path)
            weights[name] = result.state.params.flat.copy()


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
            digests[f"{name} metrics_{algorithm}.csv"] = _metrics_digest(
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
            if name not in weights or name not in stored.files:
                print(f"{name} weights: differs (missing)")
                continue
            diff = float(np.abs(weights[name] - stored[name]).max())
            verdict = "same" if np.array_equal(weights[name], stored[name]) else "differs"
            print(f"{name} weights: {verdict} (max abs diff {diff:.3g})")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true",
                        help="overwrite the recorded digests and weights")
    args = parser.parse_args(argv)
    digests: dict[str, str] = {}
    weights: dict[str, np.ndarray] = {}
    with tempfile.TemporaryDirectory() as tmp:
        head_to_head(Path(tmp), digests, weights)
        desk_cli(Path(tmp), digests)
    if args.record:
        DIGESTS.write_text(json.dumps(dict(sorted(digests.items())), indent=1) + "\n")
        np.savez(WEIGHTS, **weights)
        print(f"recorded {len(digests)} digests and {len(weights)} weight vectors")
        return 0
    return compare(digests, weights)


if __name__ == "__main__":
    sys.exit(main())
