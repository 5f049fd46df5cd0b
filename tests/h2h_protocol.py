"""The head-to-head protocol, defined once for the acceptance criteria and
the equivalence oracle (``tools/oracle.py``).

One run is fedsc against fedavg on 10-class Gaussian blobs (1000 per class,
dim 16, separation 4), half of them held out as the i.i.d. test set, the
train half optionally cut to a 100:1 long tail, split over 10 clients by a
Dirichlet(0.2) partition, for 30 rounds of 5 local epochs with hidden width
128 and feature width 32.  The oracle records its seed-1 runs; the digest
and the weights line below are the forms it compares them in.
"""

from __future__ import annotations

import hashlib
import tempfile
import time
from pathlib import Path

import numpy as np

from fedsc.data import (
    PartitionConfig,
    apply_long_tail,
    generate_gaussian_blobs,
    split_holdout,
)
from fedsc.federation import FederationConfig, run_experiment, write_metrics_csv

ALGORITHMS = ("fedsc", "fedavg")


def protocol_data(seed, long_tail=False):
    """10-class blobs, 500/class train plus an equal i.i.d. test half."""
    full = generate_gaussian_blobs(
        num_classes=10, per_class_count=1000, dim=16, separation=4.0, seed=seed
    )
    train, test = split_holdout(full, 0.5, seed=seed)
    if long_tail:
        train = apply_long_tail(train, 100.0, seed=seed)
    return train, test


def head_to_head(seed, long_tail=False, rounds=30):
    """Both algorithms' results by name, and each run's wall time in seconds
    under ``<algorithm>_seconds``."""
    train, test = protocol_data(seed, long_tail=long_tail)
    partition = PartitionConfig(
        scheme="dirichlet", num_clients=10, alpha=0.2, seed=seed
    )
    out = {}
    for algorithm in ALGORITHMS:
        config = FederationConfig(
            rounds=rounds,
            num_clients=10,
            local_epochs=5,
            algorithm=algorithm,
            seed=seed,
            hidden_dim=128,
            feature_dim=32,
        )
        start = time.perf_counter()
        out[algorithm] = run_experiment(config, train, partition, test=test)
        out[algorithm + "_seconds"] = time.perf_counter() - start
    return out


def run_name(algorithm, long_tail):
    """The oracle's name of one head-to-head run, e.g. ``h2h-fedsc-longtail``."""
    return f"h2h-{algorithm}-{'longtail' if long_tail else 'standard'}"


def csv_digest(path) -> str:
    """Digest of a metrics CSV with its last column, ``wall_ms``, cut off."""
    rows = [line.rsplit(",", 1)[0] for line in Path(path).read_text().splitlines()]
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


def metrics_digest(metrics) -> str:
    """:func:`csv_digest` of ``metrics`` as ``write_metrics_csv`` writes them."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "metrics.csv"
        write_metrics_csv(path, metrics)
        return csv_digest(path)


def weights_line(name, weights, recorded) -> str:
    """The oracle's verdict on one run's final weights against the recorded
    vector (None when none is recorded)."""
    if weights is None or recorded is None:
        return f"{name} weights: differs (missing)"
    diff = float(np.abs(weights - recorded).max())
    verdict = "same" if np.array_equal(weights, recorded) else "differs"
    return f"{name} weights: {verdict} (max abs diff {diff:.3g})"
